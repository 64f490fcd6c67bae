import dataclasses
import decimal
import math

import numpy as np
import pytest

from duomech import measures
from duomech import (
    EXAMPLE_CONFIG,
    PhysicalityError,
    SweepSpec,
    TwoModeCovariance,
    UnsupportedBranchError,
    correlation_report,
    evaluate_point,
    f_function,
    figure_preset,
    gaussian_discord,
    gaussian_steering,
    log_negativity,
    parse_config,
    run_sweep,
    symplectic_eigenvalues,
    symplectic_spectrum,
    thermal_state,
    two_mode_squeezed_state,
)

# frozen by direct evaluation of the entropy-kernel combination
TMSV_DISCORD = {0.5: 0.6594529591680367, 1.0: 1.6198220928977025,
                2.0: 3.6138174635076084}


class TestFFunction:
    def test_vacuum_boundary_is_zero(self):
        assert f_function(0.5) == 0.0

    def test_reference_values(self):
        assert f_function(1.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
        assert f_function(2.24) == pytest.approx(1.7980446048819405, rel=1e-12)

    def test_continuous_at_vacuum(self):
        assert f_function(0.5 + 1e-12) < 1e-10

    def test_domain_error(self):
        with pytest.raises(PhysicalityError):
            f_function(0.4)

    @pytest.mark.parametrize("x", [0.6, 3.0, 1e3, 1e8, 1e11, 1e15])
    def test_no_cancellation_at_large_arguments(self, x):
        # f grows like ln x, each term of its definition like x ln x;
        # the reference is the definition in 50-digit decimal
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            xp = decimal.Decimal(x) + decimal.Decimal("0.5")
            xm = decimal.Decimal(x) - decimal.Decimal("0.5")
            exact = xp * xp.ln() - xm * xm.ln()
        assert f_function(x) == pytest.approx(float(exact), rel=1e-14)


class TestSymplecticSpectrum:
    def test_vacuum(self):
        assert symplectic_spectrum(0.5 * np.eye(4)) == pytest.approx([0.5, 0.5])

    def test_thermal(self):
        assert symplectic_spectrum(thermal_state(1.7)) == pytest.approx([2.2, 2.2])

    def test_pure_two_mode_squeezed(self):
        nus = symplectic_spectrum(two_mode_squeezed_state(1.3))
        assert nus == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError):
            symplectic_spectrum(np.eye(3))


class TestSymplecticEigenvalues:
    @pytest.mark.parametrize("cov,expected", [
        (0.5 * np.eye(4), (0.5, 0.5)),
        (thermal_state(2.0), (2.5, 2.5)),
        (two_mode_squeezed_state(1.0), (0.5, 0.5)),
    ])
    def test_reference_states(self, cov, expected):
        tp, tm = symplectic_eigenvalues(cov)
        assert (tp, tm) == pytest.approx(expected, abs=1e-9)

    def test_cross_check_against_spectrum(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            cov = _random_physical(rng)
            tp, tm = symplectic_eigenvalues(cov)
            ref = symplectic_spectrum(cov)
            assert abs(tm - ref[0]) < 1e-9
            assert abs(tp - ref[1]) < 1e-9


    def test_disagreement_is_a_physicality_error(self, monkeypatch):
        # a spectrum that the block-determinant formula does not reproduce
        original = measures._spectrum
        monkeypatch.setattr(measures, "_spectrum",
                            lambda cov, i_omega: original(cov, i_omega) * (1.0 + 1e-4))
        cov = TwoModeCovariance.from_matrix(thermal_state(2.0))
        with pytest.raises(PhysicalityError, match="disagrees"):
            symplectic_eigenvalues(cov)
        held = figure_preset("fig2").held
        rows = run_sweep(SweepSpec("r", 0.5, 1.0, 2, held))
        assert [row.stable for row in rows] == [False, False]
        assert all(row.log_negativity is None and row.xi is None for row in rows)


class TestSteering:
    @pytest.mark.parametrize("n", [0.0, 0.5, 2.0])
    def test_thermal_product_not_steerable(self, n):
        s_ab, s_ba = gaussian_steering(thermal_state(n))
        assert s_ab == 0.0
        assert s_ba == 0.0

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_two_mode_squeezed_value(self, s):
        s_ab, s_ba = gaussian_steering(two_mode_squeezed_state(s))
        assert s_ab == pytest.approx(math.log(math.cosh(2 * s)), abs=1e-9)
        assert s_ba == s_ab


class TestLogNegativity:
    @pytest.mark.parametrize("n", [0.0, 1.0, 3.3])
    def test_thermal_product_not_entangled(self, n):
        en, nu = log_negativity(thermal_state(n))
        assert en == 0.0
        assert nu == pytest.approx(n + 0.5, rel=1e-12)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_two_mode_squeezed_value(self, s):
        en, nu = log_negativity(two_mode_squeezed_state(s))
        assert nu == pytest.approx(math.exp(-2 * s) / 2.0, rel=1e-9)
        assert en == pytest.approx(2.0 * s, abs=1e-9)

    def test_entanglement_criterion_consistency(self):
        for cov in (thermal_state(0.3), two_mode_squeezed_state(0.7)):
            en, nu = log_negativity(cov)
            assert (en > 0.0) == (nu < 0.5)


class TestDiscord:
    def test_thermal_product_has_no_discord(self):
        assert gaussian_discord(thermal_state(1.2)) == 0.0

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_two_mode_squeezed_reference(self, s):
        assert gaussian_discord(two_mode_squeezed_state(s)) == pytest.approx(
            TMSV_DISCORD[s], rel=1e-10
        )

    def test_positive_det_z_branch_refused(self):
        cov = thermal_state(1.0)
        cov[0, 2] = cov[2, 0] = 0.3
        cov[1, 3] = cov[3, 1] = 0.3  # det Z = +0.09
        with pytest.raises(UnsupportedBranchError, match="det Z"):
            gaussian_discord(cov)

    def test_asymmetric_blocks_refused(self):
        cov = np.diag([1.0, 1.0, 2.0, 2.0])
        with pytest.raises(UnsupportedBranchError, match="symmetric"):
            gaussian_discord(cov)


class TestTwoModeCovariance:
    def test_rejects_unphysical(self):
        with pytest.raises(PhysicalityError, match="symplectic"):
            TwoModeCovariance.from_matrix(0.3 * np.eye(4))

    def test_rejects_asymmetric(self):
        m = 0.5 * np.eye(4)
        m[0, 1] = 0.2
        with pytest.raises(PhysicalityError, match="symmetric"):
            TwoModeCovariance.from_matrix(m)

    def test_rejects_zero_matrix(self):
        with pytest.raises(PhysicalityError, match="zero covariance"):
            TwoModeCovariance.from_matrix(np.zeros((4, 4)))

    def test_symmetrizes_input_asymmetric_within_tolerance(self):
        m = two_mode_squeezed_state(1.0)
        m[0, 1] += 1e-11
        cov = TwoModeCovariance.from_matrix(m)
        assert np.array_equal(cov.matrix, 0.5 * (m + m.T))

    @pytest.mark.parametrize("m", [
        np.full((4, 4), np.nan),
        1e308 * np.eye(4),                        # block determinants overflow
        1e308 * np.eye(4) + np.eye(4, k=1),       # symmetrization overflows
    ], ids=["nan", "huge", "huge-asymmetric"])
    def test_nan_or_overflowing_input_is_a_physicality_error(self, m):
        with np.errstate(all="ignore"), pytest.raises(PhysicalityError):
            TwoModeCovariance.from_matrix(m)

    def test_rejects_non_positive_determinant(self, monkeypatch):
        # the symplectic gate sees moduli only: diag(1, -1, 1, 1) passes it
        # with both eigenvalues 1, and has det sigma = -1
        with pytest.raises(PhysicalityError, match="non-positive covariance determinant"):
            TwoModeCovariance.from_matrix(np.diag([1.0, -1.0, 1.0, 1.0]))
        monkeypatch.setattr(np.linalg, "det", lambda m: 0.0)
        with pytest.raises(PhysicalityError, match="non-positive covariance determinant"):
            TwoModeCovariance.from_matrix(thermal_state(1.0))

    @pytest.mark.parametrize("m", [
        -two_mode_squeezed_state(1.0),
        -thermal_state(1.0),
        np.diag([-1.0, -1.0, 1.0, 1.0]),
        np.block([[np.eye(2), 2.0 * np.eye(2)], [2.0 * np.eye(2), np.eye(2)]]),
    ], ids=["negative-tmsv", "negative-thermal", "negative-mode", "indefinite"])
    def test_rejects_matrix_not_positive_definite(self, m):
        # each passes the symplectic and det sigma > 0 gates: the spectrum
        # and the determinant cannot tell sigma from -sigma
        with pytest.raises(PhysicalityError, match="not positive definite"):
            correlation_report(m)

    @pytest.mark.parametrize("field, value, match", [
        ("det_full", 0.0, "non-positive covariance determinant"),
        ("det_full", math.inf, "overflow"),
        ("det_full", 1e-20, "lost to rounding"),
        ("spectrum", np.array([0.3, 0.3]), "symplectic"),
        ("matrix", -thermal_state(1.0), "not positive definite"),
    ])
    def test_gates_hold_however_the_object_is_built(self, field, value, match):
        # dataclasses.replace runs the constructor, not from_matrix
        cov = TwoModeCovariance.from_matrix(thermal_state(1.0))
        with pytest.raises(PhysicalityError, match=match):
            dataclasses.replace(cov, **{field: value})

    def test_cached_determinants(self):
        cov = TwoModeCovariance.from_matrix(two_mode_squeezed_state(1.0))
        assert cov.det_x == pytest.approx(math.cosh(2.0) ** 2 / 4.0, rel=1e-12)
        assert cov.det_z == pytest.approx(-math.sinh(2.0) ** 2 / 4.0, rel=1e-12)
        assert cov.det_full == pytest.approx(1.0 / 16.0, rel=1e-9)


class TestCorrelationReport:
    def test_pure_state_fields(self):
        rep = correlation_report(two_mode_squeezed_state(1.0))
        assert rep.log_negativity == pytest.approx(2.0, abs=1e-9)
        assert rep.steering_ab == pytest.approx(math.log(math.cosh(2.0)), abs=1e-9)
        assert rep.theta_plus == pytest.approx(0.5, abs=1e-9)
        assert rep.theta_minus == pytest.approx(0.5, abs=1e-9)

    def test_one_discriminant_band_per_eigenvalue_pair(self, monkeypatch):
        # one band for the partial-transpose pair, one for theta_pm (which the
        # spectrum cross-check reuses)
        calls = []
        band = measures._disc_band

        def counted(*args):
            calls.append(1)
            return band(*args)

        monkeypatch.setattr(measures, "_disc_band", counted)
        correlation_report(TwoModeCovariance.from_matrix(two_mode_squeezed_state(1.0)))
        assert len(calls) == 2

    def test_invariant_combinations(self):
        cov = TwoModeCovariance.from_matrix(two_mode_squeezed_state(0.8))
        rep = correlation_report(cov)
        # steering never exceeds entanglement on these states
        assert rep.steering_ab <= rep.log_negativity + 1e-12


class TestPartialTransposePrecision:
    @pytest.mark.parametrize("r", [6.0, 8.0, 8.9])
    def test_nu_minus_of_squeezed_mirrors_without_hopping(self, r):
        # at xi = 0 the mirror block has the standard form X = B = a I,
        # Z = diag(c, -c), whose partial transpose has nu_minus = a - c; a and
        # c agree to within a factor 2, so the float subtraction is exact
        result = evaluate_point(figure_preset("fig2").held.with_updates(squeezing_r=r))
        m = result.state.mechanical_block
        a, c = m[0, 0], m[0, 2]
        assert np.array_equal(m, [[a, 0, c, 0], [0, a, 0, -c],
                                  [c, 0, a, 0], [0, -c, 0, a]])
        assert result.report.nu_minus == pytest.approx(a - c, rel=1e-8)
        # and the spectrum of sigma itself is degenerate at sqrt(a^2 - c^2)
        theta = math.sqrt((a - c) * (a + c))
        assert result.report.theta_plus == result.report.theta_minus == pytest.approx(
            theta, rel=1e-8)
        # the i Omega sigma eigenvalue route is itself about 2e-8 off at r = 8.9
        p = np.diag([1.0, 1.0, 1.0, -1.0])
        assert result.report.nu_minus == pytest.approx(
            symplectic_spectrum(p @ m @ p)[0], rel=1e-7)


class TestLargeSqueezing:
    # references: an 80-digit mpmath solve of W sigma + sigma W^T + R = 0
    # for the same float W and R, with the measures evaluated at 80 digits

    def test_discord_with_hopping(self):
        # EXAMPLE_CONFIG's point (xi = 0.2) at r = 10: the mirror block's
        # symplectic eigenvalues are near 1e8, where the definition of the
        # entropy kernel cancels to 1e-8 relative
        params = parse_config(EXAMPLE_CONFIG).with_updates(squeezing_r=10.0)
        report = evaluate_point(params).report
        assert report.discord == pytest.approx(2.70227398611e-08, rel=1e-6)

    def test_determinant_lost_to_rounding_is_refused(self):
        held = figure_preset("fig2").held   # xi = 0
        with pytest.raises(PhysicalityError, match="lost to rounding"):
            evaluate_point(held.with_updates(squeezing_r=20.0))
        report = evaluate_point(held.with_updates(squeezing_r=8.0)).report
        assert report.log_negativity == pytest.approx(1.72504029848, abs=1e-8)


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def _random_physical(rng: np.random.Generator) -> np.ndarray:
    """Random physical two-mode covariance via a symplectic transform of a
    Williamson normal form."""
    nu1, nu2 = rng.uniform(0.5, 3.0, size=2)
    sigma = np.diag([nu1, nu1, nu2, nu2])
    s = np.eye(4)
    for _ in range(2):
        block = np.zeros((4, 4))
        block[:2, :2] = _rotation(rng.uniform(0, 2 * math.pi))
        block[2:, 2:] = _rotation(rng.uniform(0, 2 * math.pi))
        s = block @ s
        z1, z2 = rng.uniform(-0.8, 0.8, size=2)
        s = np.diag([math.exp(z1), math.exp(-z1), math.exp(z2), math.exp(-z2)]) @ s
        theta = rng.uniform(0, 2 * math.pi)
        c, sn = math.cos(theta), math.sin(theta)
        mixer = np.block([[c * np.eye(2), sn * np.eye(2)],
                          [-sn * np.eye(2), c * np.eye(2)]])
        s = mixer @ s
    return s @ sigma @ s.T


class TestLocalInvariance:
    def test_equal_rotations_leave_measures_unchanged(self):
        # measures depend only on the block determinants
        base = two_mode_squeezed_state(0.9)
        rng = np.random.default_rng(3)
        s0_ab, _ = gaussian_steering(base)
        en0, _ = log_negativity(base)
        d0 = gaussian_discord(base)
        for _ in range(10):
            rot = np.kron(np.eye(2), _rotation(rng.uniform(0, 2 * math.pi)))
            rotated = rot @ base @ rot.T
            s_ab, _ = gaussian_steering(rotated)
            en, _ = log_negativity(rotated)
            d = gaussian_discord(rotated)
            assert s_ab == pytest.approx(s0_ab, abs=1e-10)
            assert en == pytest.approx(en0, abs=1e-10)
            assert d == pytest.approx(d0, abs=1e-10)
