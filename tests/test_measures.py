import dataclasses
import decimal
import math

import mpmath
import numpy as np
import pytest

from conftest import assert_theta_matches_spectrum, reference_params
from duomech import (
    EXAMPLE_CONFIG,
    PhysicalityError,
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
    symplectic_eigenvalues,
    symplectic_spectrum,
    thermal_state,
    two_mode_squeezed_state,
)

KAPPA = reference_params().kappa

# frozen by direct evaluation of the entropy-kernel combination
TMSV_DISCORD = {0.5: 0.6594529591680367, 1.0: 1.6198220928977025,
                2.0: 3.6138174635076084}


def _spectrum_at_80_digits(block: np.ndarray) -> list[float]:
    """Both symplectic eigenvalues of the float block, ascending, from its
    block determinants and det at 80 digits."""
    with mpmath.workdps(80):
        m = mpmath.matrix(block.tolist())
        det2 = lambda i, j: m[i, j] * m[i + 1, j + 1] - m[i, j + 1] * m[i + 1, j]
        delta = det2(0, 0) + det2(2, 2) + 2 * det2(0, 2)
        root = mpmath.sqrt(max(delta * delta - 4 * mpmath.det(m), 0))
        return [float(mpmath.sqrt((delta + sign * root) / 2)) for sign in (-1, 1)]


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


@pytest.mark.parametrize("build, arg", [
    (thermal_state, -0.1),
    (thermal_state, math.nan),
    (thermal_state, math.inf),
    (two_mode_squeezed_state, math.nan),
    (two_mode_squeezed_state, math.inf),
    (two_mode_squeezed_state, -math.inf),
    (two_mode_squeezed_state, 400.0),    # cosh 2s overflows
])
def test_reference_state_refuses_its_argument(build, arg):
    with pytest.raises(ValueError, match="must be finite|too large"):
        build(arg)


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

    @pytest.mark.parametrize("params, reference", [
        (figure_preset("fig2").held.with_updates(squeezing_r=8.0), _spectrum_at_80_digits),
        (reference_params(cooperativity=1.3e-3, hopping_lambda=9.9 * KAPPA, temperature=2.5e-3),
         symplectic_spectrum),
        (reference_params(gamma=1e-5 * KAPPA), symplectic_spectrum),
        (reference_params(squeezing_r=15.0), symplectic_spectrum),
    ], ids=["fig2-r8", "weak-coupling-strong-hopping", "gamma-1e-5-kappa", "r15"])
    def test_pipeline_points_match_spectrum(self, params, reference):
        # extreme points of the sweep path.  At fig2's r = 8 the i Omega
        # sigma route is itself 1.7e-9 relative off the 80-digit theta of the
        # same float block (1.1e-6 at theta = 616), where the report's
        # det sigma ** 1/4 is 1.4e-11 off, so that point is checked against
        # 80 digits
        result = evaluate_point(params)
        assert_theta_matches_spectrum(result.report, result.state.mechanical_block, reference)

    def test_real_split_of_large_blocks(self):
        # X = B = 1e4 I and Z = diag(c1, -c2) with c1 != c2: theta_pm =
        # (10, 0.6) is a real split, though delta^2 - 4 det sigma would cancel
        # from terms of size 1e17
        a = 1e4
        z = np.diag([a - 1.8e-5, -(a - 5e-3)])
        m = np.block([[a * np.eye(2), z], [z, a * np.eye(2)]])
        assert symplectic_spectrum(m) == pytest.approx([0.6, 10.0], abs=1e-6)
        report = correlation_report(m)
        assert (report.theta_minus, report.theta_plus) == pytest.approx((0.6, 10.0), abs=1e-6)


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
    @pytest.mark.parametrize("shape", [(3, 3), (8, 8), (4,), (4, 2)])
    def test_rejects_a_shape_other_than_4x4(self, shape):
        with pytest.raises(ValueError, match="expected a 4x4 covariance"):
            TwoModeCovariance(np.ones(shape))

    def test_rejects_unphysical(self):
        with pytest.raises(PhysicalityError, match="symplectic"):
            TwoModeCovariance.from_matrix(0.3 * np.eye(4))

    @pytest.mark.parametrize("theta_minus, shown", [(0.4, "0.4000"), (0.5 - 1e-6, "0.49999")])
    def test_rejects_unphysical_state_with_large_blocks(self, theta_minus, shown):
        # X = a I, B = b I, Z = diag(c, -c) with theta_pm = (10, theta_minus):
        # delta is small against det_scale, so delta^2 - 4 det sigma would
        # cancel from terms of size 1e17; at 1/2 - 1e-6 theta_minus is below
        # the vacuum bound by less than eps |sigma|_F^2 delta, a rounding
        # allowance that would hold for any sigma
        a = 1e4
        b = a + 10.0 - theta_minus
        c = math.sqrt(a * b - 10.0 * theta_minus)
        m = np.block([[a * np.eye(2), np.diag([c, -c])], [np.diag([c, -c]), b * np.eye(2)]])
        assert symplectic_spectrum(m) == pytest.approx([theta_minus, 10.0], rel=1e-6)
        with pytest.raises(PhysicalityError, match=f"min symplectic eigenvalue {shown}"):
            TwoModeCovariance.from_matrix(m)

    @pytest.mark.parametrize("hot", [1.0, 1e6])
    @pytest.mark.parametrize("below, refused", [(1e-3, True), (2e-9, True), (5e-10, False)])
    def test_gate_is_the_vacuum_bound_on_theta_minus(self, hot, below, refused):
        # a thermal mode beside one at theta = 1/2 - below: the gate refuses
        # theta_minus < 1/2 - 1e-9 and nothing above it, also beside a mode
        # 1e6 hot, where delta and det sigma are of size 1e12
        m = np.diag([hot, hot, 0.5 - below, 0.5 - below])
        if refused:
            with pytest.raises(PhysicalityError, match="min symplectic eigenvalue 0.49"):
                TwoModeCovariance.from_matrix(m)
        else:
            assert TwoModeCovariance.from_matrix(m).theta_minus == pytest.approx(
                0.5 - below, abs=1e-12)

    def test_no_report_below_the_vacuum_bound(self):
        # vacuum squeezed by r = 7 at 45 degrees, beside vacuum: det X = 1/4
        # cancels down from entries of size 3e5 and rounds to 0.24998, so the
        # blocks give a theta_minus below 1/2 - 1e-9, which the gate refuses
        ch, sh = 0.5 * math.cosh(14.0), 0.5 * math.sinh(14.0)
        m = np.zeros((4, 4))
        m[:2, :2] = [[ch, sh], [sh, ch]]
        m[2:, 2:] = 0.5 * np.eye(2)
        with pytest.raises(PhysicalityError, match="min symplectic eigenvalue 0.49"):
            TwoModeCovariance.from_matrix(m)

    @pytest.mark.parametrize("r", [2.0, 3.0, 4.0])
    def test_accepts_pure_state_with_squeezed_blocks(self, r):
        # vacuum through local squeezers r at two angles, a 50:50 beam
        # splitter and two-mode squeezing 1: the blocks cancel down from
        # entries of size e^(2r), and the theta_pm they give must let the
        # pure state (theta_pm = 1/2) through the gate's 1e-9
        def local(angle):
            rot = np.array([[math.cos(angle), -math.sin(angle)],
                            [math.sin(angle), math.cos(angle)]])
            return rot @ np.diag([math.exp(r), math.exp(-r)]) @ rot.T

        zeros = np.zeros((2, 2))
        squeezers = np.block([[local(0.3), zeros], [zeros, local(1.1)]])
        splitter = np.block([[np.eye(2), np.eye(2)], [-np.eye(2), np.eye(2)]]) / math.sqrt(2.0)
        tms = np.block([[math.cosh(1.0) * np.eye(2), math.sinh(1.0) * np.diag([1.0, -1.0])],
                        [math.sinh(1.0) * np.diag([1.0, -1.0]), math.cosh(1.0) * np.eye(2)]])
        s = tms @ splitter @ squeezers
        m = s @ s.T / 2.0
        cov = TwoModeCovariance.from_matrix(0.5 * (m + m.T))
        assert (cov.theta_plus, cov.theta_minus) == pytest.approx((0.5, 0.5), abs=1e-9)

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

    @pytest.mark.parametrize("m, match, over", [
        (np.full((4, 4), np.nan), "not finite", "warn"),
        (np.diag([1.0, np.nan, 1.0, 1.0]), "not finite", "warn"),   # exactly symmetric
        (np.diag([1.0, 1.0, 1.0, np.inf]), "not finite", "warn"),
        (1e308 * np.eye(4), "overflow", "warn"),            # block determinants overflow
        (1e308 * np.eye(4) + np.eye(4, k=1), "not finite", "ignore"),  # m + m.T overflows
    ], ids=["nan", "nan-diagonal", "inf-diagonal", "huge", "huge-asymmetric"])
    def test_nan_or_overflowing_input_is_a_physicality_error(self, m, match, over):
        # a non-finite entry is refused before det, and det is not called
        # where it would overflow, so a warning from det fails the test; only
        # the symmetrization's m + m.T may overflow
        with np.errstate(over=over), pytest.raises(PhysicalityError, match=match):
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
        # the det sigma > 0 gate cannot tell sigma from -sigma (or from an
        # indefinite matrix with det sigma > 0); the leading-minor gate refuses them
        with pytest.raises(PhysicalityError, match="not positive definite"):
            correlation_report(m)

    def test_gates_hold_however_the_object_is_built(self):
        # dataclasses.replace runs the constructor, which takes the matrix
        # alone, and refuses a cached field
        cov = TwoModeCovariance.from_matrix(thermal_state(1.0))
        with pytest.raises(PhysicalityError, match="not positive definite"):
            dataclasses.replace(cov, matrix=-thermal_state(1.0))
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(cov, det_full=0.9 * cov.det_full)

    @pytest.mark.parametrize("m", [thermal_state(1.0), two_mode_squeezed_state(1.0)],
                             ids=["thermal", "tmsv"])
    def test_constructor_is_from_matrix(self, m):
        built, parsed = TwoModeCovariance(m), TwoModeCovariance.from_matrix(m)
        for f in dataclasses.fields(TwoModeCovariance):
            assert np.array_equal(getattr(built, f.name), getattr(parsed, f.name)), f.name
        assert [f.name for f in dataclasses.fields(TwoModeCovariance) if f.init] == ["matrix"]

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

    def test_nu_minus_of_a_thermal_point_against_80_digits(self):
        # a thermal point of the fig3 device whose partial transpose has the
        # discriminant 16 z^2 det X = 6.6, where delta^2 - 4 det sigma would
        # cancel from terms of size det_scale^2 = 7.5e12; the reference is an
        # 80-digit evaluation of the same float W and R
        held = figure_preset("fig3").held
        params = held.with_updates(cooperativity=0.0593, hopping_lambda=2.94 * held.kappa,
                                   gamma=3.24e-4 * held.kappa, temperature=53.3e-3,
                                   squeezing_r=0.327)
        report = evaluate_point(params).report
        assert report.nu_minus == pytest.approx(1170.7957233240975, rel=1e-12)


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
