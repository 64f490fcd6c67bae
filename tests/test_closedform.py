import math

import numpy as np
import pytest

from duomech import (
    closed_sigma,
    closed_sigma_corrected,
    default_validation_grid,
    validate_closed_forms,
    write_report_csv,
)
from duomech import EXAMPLE_CONFIG, HBAR, KB, derive, dynamics, parse_config
from duomech.closedform import GridPoint
from duomech.dynamics import solve_lyapunov, system_matrices
from duomech.errors import ConfigError

TWO_PI = 2 * math.pi
KAPPA = TWO_PI * 14000.0
GAMMA = TWO_PI * 140.0
N_TH = 1.7380208490312972

# verbatim evaluation at (C=32.11, r=1, xi=0.2, gamma/kappa=0.01), rad/s rates
VERBATIM_SIGMA1 = 158134.57973365005
VERBATIM_SIGMA12 = 0.6141997172192339
VERBATIM_SIGMA13 = 1.497746351754473


DEVICE = parse_config(EXAMPLE_CONFIG)


def device(c, r, xi, gok, temperature=DEVICE.temperature):
    """The report's device at a point, at any bath temperature."""
    return DEVICE.with_updates(cooperativity=c, squeezing_r=r, hopping_lambda=xi * KAPPA,
                               gamma=gok * KAPPA, temperature=temperature)


def temperature_for(n_th):
    """The bath temperature at which each mirror holds n_th phonons."""
    return HBAR * DEVICE.omega_m / (KB * math.log1p(1.0 / n_th))


def lyapunov_triple(params):
    mech = solve_lyapunov(system_matrices(derive(params))).mechanical_block
    return float(mech[0, 0]), float(mech[0, 1]), float(mech[0, 2])


class TestClosedSigmaLimits:
    def test_undriven_limit(self):
        out = closed_sigma(0.0, 1.3, 0.4, GAMMA, KAPPA, N_TH)
        assert out.sigma1 == pytest.approx(N_TH + 0.5, rel=1e-12)
        assert out.sigma12 == 0.0
        assert out.sigma13 == 0.0

    def test_no_squeezing_kills_correlations(self):
        out = closed_sigma(32.11, 0.0, 0.25, GAMMA, KAPPA, N_TH)
        assert out.sigma12 == 0.0
        assert out.sigma13 == 0.0

    def test_no_hopping_kills_sigma12(self):
        out = closed_sigma(32.11, 1.0, 0.0, GAMMA, KAPPA, N_TH)
        assert out.sigma12 == 0.0
        assert out.sigma13 > 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            closed_sigma(-1.0, 1.0, 0.2, GAMMA, KAPPA, N_TH)
        with pytest.raises(ConfigError):
            closed_sigma(1.0, 1.0, 0.2, 0.0, KAPPA, N_TH)


class TestOverflow:
    def test_closed_forms_raise_config_error(self):
        for closed in (closed_sigma, closed_sigma_corrected):
            with pytest.raises(ConfigError, match="too large"):
                closed(32.11, 400.0, 0.2, GAMMA, KAPPA, N_TH)

    def test_validation_grid_raises_config_error(self):
        with pytest.raises(ConfigError, match="too large"):
            validate_closed_forms([GridPoint(32.11, 400.0, 0.2, 0.01)])


class TestCorrectedForm:
    # (C, r, xi, gamma/kappa, n_th): T = 0, about 31 uK, 0.1 mK and 0.48 mK
    @pytest.mark.parametrize("point", [
        (32.11, 1.0, 0.2, 0.01, N_TH),
        (32.11, 2.5, 0.0, 0.01, N_TH),
        (32.11, 0.5, 0.35, 0.001, 0.0),
        (5.0, 1.5, 0.8, 0.05, 10.0),
        (0.0, 1.0, 0.2, 0.01, N_TH),
        (120.0, 3.0, 0.15, 0.02, 0.3),
    ])
    def test_matches_lyapunov(self, point):
        c, r, xi, gok, n_th = point
        params = device(c, r, xi, gok, temperature_for(n_th) if n_th else 0.0)
        derived = derive(params)
        assert derived.n_th == pytest.approx(n_th, rel=1e-12)
        s1, s12, s13 = lyapunov_triple(params)
        out = closed_sigma_corrected(c, r, xi, derived.gamma, derived.kappa, derived.n_th)
        assert out.sigma1 == pytest.approx(s1, rel=1e-10)
        assert out.sigma12 == pytest.approx(s12, rel=1e-10, abs=1e-12)
        assert out.sigma13 == pytest.approx(s13, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_verbatim_form_is_exact_in_linewidth_units(self, seed):
        # with kappa = 1 the inconsistent power disappears and the two routes
        # are algebraically identical
        rng = np.random.default_rng(seed)
        for _ in range(20):
            c = rng.uniform(0.0, 80.0)
            r = rng.uniform(0.0, 3.0)
            xi = rng.uniform(0.0, 1.0)
            gok = 10.0 ** rng.uniform(-4, 0)
            nth = rng.uniform(0.0, 20.0)
            a = closed_sigma(c, r, xi, gok, 1.0, nth)
            b = closed_sigma_corrected(c, r, xi, gok, 1.0, nth)
            assert a.sigma1 == pytest.approx(b.sigma1, rel=1e-12)
            assert a.sigma12 == pytest.approx(b.sigma12, rel=1e-12, abs=1e-15)
            assert a.sigma13 == pytest.approx(b.sigma13, rel=1e-12, abs=1e-15)


class TestVerbatimForm:
    def test_reference_point_values(self):
        out = closed_sigma(32.11, 1.0, 0.2, 0.01 * KAPPA, KAPPA, N_TH)
        assert out.sigma1 == pytest.approx(VERBATIM_SIGMA1, rel=1e-12)
        assert out.sigma12 == pytest.approx(VERBATIM_SIGMA12, rel=1e-12)
        assert out.sigma13 == pytest.approx(VERBATIM_SIGMA13, rel=1e-12)

    def test_correlation_entries_exact_against_lyapunov(self):
        # sigma12 and sigma13 are exact as printed, in physical units
        _, s12, s13 = lyapunov_triple(device(32.11, 1.0, 0.2, 0.01))
        out = closed_sigma(32.11, 1.0, 0.2, 0.01 * KAPPA, KAPPA, N_TH)
        assert out.sigma12 == pytest.approx(s12, rel=1e-10)
        assert out.sigma13 == pytest.approx(s13, rel=1e-10)

    def test_variance_entry_deviates_in_physical_units(self):
        # the kappa^2 cosh(2r) bracket term dominates for rad/s rates
        s1, _, _ = lyapunov_triple(device(32.11, 1.0, 0.2, 0.01))
        out = closed_sigma(32.11, 1.0, 0.2, 0.01 * KAPPA, KAPPA, N_TH)
        assert out.sigma1 / s1 > 1e3


@pytest.fixture(scope="module")
def report():
    return validate_closed_forms(default_validation_grid())


class TestValidationReport:

    def test_exact_agreement_on_undriven_line(self, report):
        assert report.max_rel_dev_at_c0 < 1e-10

    def test_correlations_agree_on_unsqueezed_line(self, report):
        assert report.max_rel_dev_12_13_at_r0 < 1e-10

    def test_correlation_formulas_exact_everywhere(self, report):
        assert report.max_rel_dev_12 < 1e-8
        assert report.max_rel_dev_13 < 1e-8

    def test_variance_deviation_documented(self, report):
        assert report.max_rel_dev_1 > 1e-8
        assert not report.agrees_within_1e8

    def test_normalization_study_isolates_the_typo(self, report):
        assert report.max_rel_dev_1_normalized < 1e-10

    def test_no_unstable_points_in_default_grid(self, report):
        assert report.skipped_unstable == ()

    def test_one_stability_check_per_point(self, monkeypatch):
        # undriven, the slowest rate is -gamma/2: at gamma = 1e-9 kappa the
        # drift is marginal, and the point is skipped
        undamped = GridPoint(0.0, 1.0, 0.2, 1e-9)
        grid = default_validation_grid() + [undamped]
        calls = []
        check = dynamics.check_stability

        def counted(drift):
            calls.append(1)
            return check(drift)

        monkeypatch.setattr(dynamics, "check_stability", counted)
        report = validate_closed_forms(grid)
        assert len(calls) == len(grid)
        assert report.skipped_unstable == (undamped,)
        assert len(report.rows) == len(grid) - 1

    def test_csv_artifact(self, report, tmp_path):
        path = tmp_path / "closedform_report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert any("max_rel_dev_1=" in l for l in meta)
        assert body[0].startswith("C,r,xi,gamma_over_kappa,n_th,sigma1_closed")
        assert len(body) == 1 + len(report.rows)
        first = body[1].split(",")
        assert len(first) == 14


@pytest.mark.parametrize("point", [
    GridPoint(1.0, 1.0, 0.2, 0.0),
    GridPoint(1.0, 1.0, 0.2, -0.01),
    GridPoint(-1.0, 1.0, 0.2, 0.01),
    GridPoint(1.0, 1.0, math.nan, 0.01),
    GridPoint(1.0, 1.0, -0.2, 0.01),
], ids=["gamma_zero", "gamma_negative", "cooperativity_negative", "xi_nan", "xi_negative"])
def test_invalid_point_raises_config_error(point):
    # each point is the device's PhysicalParams, validated like any other
    with pytest.raises(ConfigError, match=r"GridPoint\(cooperativity="):
        validate_closed_forms([point])
