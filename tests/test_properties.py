"""Property tests of the pipeline over the physical parameter space: every
sampled point solves to a physical, exchange-symmetric mirror state whose
residual is the one its definition gives, whose symplectic eigenvalues agree
with the i Omega sigma route, whose measures obey their ordering and whose
variance matches the closed form; whose reported theta, nu_minus and E_N lie
within their rounding bounds of an 80-digit evaluation; and the abstract's
claims on temperature (everywhere), squeezing (everywhere without hopping)
and strong coupling (not everywhere)."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_theta_matches_spectrum
from duomech import (
    DuomechError,
    PointResult,
    StabilityError,
    TwoModeCovariance,
    build_drift,
    build_noise,
    check_stability,
    closed_sigma_corrected,
    correlation_report,
    derive,
    dynamics,
    evaluate_point,
    figure_preset,
    solve_lyapunov,
    symplectic_spectrum,
    system_matrices,
)


def log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


HELD = figure_preset("fig3").held


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(
    cooperativity=log_uniform(-3, 5),
    xi=log_uniform(-4, 1),
    gamma_over_kappa=log_uniform(-5, 0),
    temperature=log_uniform(-6, -1),
    squeezing_r=st.floats(0.0, 3.0),
)
def test_pipeline_invariants(cooperativity, xi, gamma_over_kappa, temperature, squeezing_r):
    kappa = HELD.kappa
    params = HELD.with_updates(
        cooperativity=cooperativity, hopping_lambda=xi * kappa,
        gamma=gamma_over_kappa * kappa, temperature=temperature,
        squeezing_r=squeezing_r,
    )
    result = evaluate_point(params)
    assert result.stable
    state, report, derived = result.state, result.report, result.derived

    assert state.residual <= 1e-10
    # the residual as ||W sigma + sigma W^T + R||_F / ||R||_F
    w, r = build_drift(derived), build_noise(derived)
    sigma = state.full
    expected = np.linalg.norm(w @ sigma + sigma @ w.T + r) / np.linalg.norm(r)
    assert abs(state.residual - expected) <= 1e-13
    assert symplectic_spectrum(state.full)[0] >= 0.5 - 1e-9

    mech = state.mechanical_block
    assert_theta_matches_spectrum(report, mech)
    x, z, b = mech[:2, :2], mech[:2, 2:], mech[2:, 2:]
    assert (b == x).all()
    assert z[0, 1] == 0.0 and z[1, 0] == 0.0 and z[1, 1] == -z[0, 0]

    assert report.steering_ab <= report.log_negativity + 1e-12
    assert report.discord >= 0.0

    closed = closed_sigma_corrected(derived.cooperativity, squeezing_r, derived.xi,
                                    derived.gamma, derived.kappa, derived.n_th)
    assert closed.sigma1 == pytest.approx(float(mech[0, 0]), rel=1e-8)


def _same_outcome_on_both_routes(params) -> str:
    """Compare evaluate_point with the solve of the built matrices followed
    by the measures, composed from the public API: the same stable verdict,
    bit for bit the same state and report, or the same error type and
    message.  Return which of "stable", "unstable" and "refused" it was."""
    def outcome(route):
        try:
            return route()
        except DuomechError as exc:
            return type(exc), str(exc)

    def composed():
        try:
            state = solve_lyapunov(system_matrices(derive(params)))
        except StabilityError:
            return None
        return state, correlation_report(TwoModeCovariance.from_matrix(state.mechanical_block))

    with np.errstate(all="ignore"):   # an overflowing R makes the solve NaN, and numpy warns
        expected, point = outcome(composed), outcome(lambda: evaluate_point(params))
    if expected is None:
        assert isinstance(point, PointResult) and not point.stable
        assert point.state is None and point.report is None
        return "unstable"
    if isinstance(expected[0], type):
        assert point == expected
        return "refused"
    state, report = expected
    assert point.state.full.tobytes() == state.full.tobytes()
    assert point.state.mechanical_block.tobytes() == state.mechanical_block.tobytes()
    assert point.state.residual.hex() == state.residual.hex()
    assert point.report == report
    return "stable"


# the ranges of test_pipeline_invariants, with gamma/kappa down to 1e-11
# (a marginal drift below about 2e-9 at weak coupling) and r up to 352 (the
# mirror block overflows from about r = 90, and R near r = 350)
@settings(derandomize=True, deadline=None, max_examples=500, database=None)
@given(
    cooperativity=log_uniform(-3, 5),
    xi=log_uniform(-4, 1),
    gamma_over_kappa=st.one_of(log_uniform(-5, 0), log_uniform(-11, -5)),
    temperature=log_uniform(-6, -1),
    squeezing_r=st.one_of(st.floats(0.0, 3.0), st.floats(3.0, 352.0)),
)
def test_point_state_is_the_solve_of_its_matrices(cooperativity, xi, gamma_over_kappa,
                                                  temperature, squeezing_r):
    kappa = HELD.kappa
    params = HELD.with_updates(
        cooperativity=cooperativity, hopping_lambda=xi * kappa,
        gamma=gamma_over_kappa * kappa, temperature=temperature,
        squeezing_r=squeezing_r,
    )
    _same_outcome_on_both_routes(params)


@pytest.mark.parametrize("changes,kind", [
    # undriven with gamma = 1e-10 kappa, the drift is marginal: no steady state
    (dict(cooperativity=0.0, gamma=1e-10 * HELD.kappa), "unstable"),
    # the solve passes; the measures refuse the overflowing mirror block
    (dict(squeezing_r=150.0), "refused"),
    # R overflows; the residual gate refuses the NaN solution
    (dict(squeezing_r=352.0), "refused"),
    (dict(squeezing_r=352.0, hopping_lambda=3.0 * HELD.kappa), "refused"),
])
def test_point_outside_the_ranges_has_the_solves_outcome(changes, kind):
    assert _same_outcome_on_both_routes(HELD.with_updates(**changes)) == kind


_U = 2.0 ** -53   # unit roundoff: one rounding moves a float by at most _U relative


class _Rounded:
    """A float or complex result of floating-point operations with a bound
    on its distance from the result of the same operations done exactly
    (running error analysis).  The bound on one operation's own rounding is
    _U |x| for a real result, _U (|Re x| + |Im x|) for a complex sum,
    4 _U |a| |b| for a complex product (each component within
    2 _U (|a_r b_r| + |a_i b_i|), with or without FMA) and 12 _U |a / b| for
    CPython's complex quotient (Smith's method: each component within
    7 _U |a / b|)."""

    def __init__(self, value, err=0.0):
        self.value, self.err = value, err

    @staticmethod
    def of(x):
        return x if isinstance(x, _Rounded) else _Rounded(x)   # a literal is exact

    def __add__(self, other):
        o = _Rounded.of(other)
        v = self.value + o.value
        return _Rounded(v, self.err + o.err + _U * (abs(v.real) + abs(v.imag)))

    __radd__ = __add__

    def __neg__(self):
        return _Rounded(-self.value, self.err)

    def __sub__(self, other):
        return self + -_Rounded.of(other)

    def __rsub__(self, other):
        return _Rounded.of(other) + -self

    def __mul__(self, other):
        o = _Rounded.of(other)
        a, b = abs(self.value), abs(o.value)
        v = self.value * o.value
        own = _U * abs(v) if isinstance(v, float) else 4.0 * _U * a * b
        return _Rounded(v, a * o.err + b * self.err + self.err * o.err + own)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _Rounded.of(other)
        v = self.value / o.value
        own = (_U if isinstance(v, float) else 12.0 * _U) * abs(v)
        assert o.err < abs(o.value)
        return _Rounded(v, (self.err + abs(v) * o.err) / (abs(o.value) - o.err) + own)

    def __rtruediv__(self, other):
        return _Rounded.of(other) / self

    @property
    def real(self):
        return _Rounded(self.value.real, self.err)

    @property
    def imag(self):
        return _Rounded(self.value.imag, self.err)

    def conjugate(self):
        return _Rounded(self.value.conjugate(), self.err)


# the rows of _SIGMA_MAP that give the mirror block
_MIRROR_MAP = dynamics._SIGMA_MAP.reshape(8, 8, 10)[:4, :4]


def _mirror_block_with_bound(rates, weights):
    """The solve's float mirror block, through _sector_covariance and the
    sigma map, and a bound on each entry's distance from exact arithmetic
    on the same float W and R: the rates and weights over the fastest rate
    are rounded once, and a map row rounds a/2 +- b/2 once."""
    scale = max(abs(rates[0]), abs(rates[1]))
    drift = [_Rounded(v, _U * (abs(v.real) + abs(v.imag)))
             for v in dynamics._collective_drift(*(x / scale for x in rates))]
    noise = [_Rounded(x / scale, _U * abs(x / scale)) for x in weights]
    entries = dynamics._sector_covariance(drift, *noise)
    sigma, err = np.zeros((4, 4)), np.zeros((4, 4))
    for i, j in np.ndindex(4, 4):
        read = [(c, entries[k]) for k, c in enumerate(_MIRROR_MAP[i, j].tolist()) if c]
        sigma[i, j] = sum(c * e.value for c, e in read)
        err[i, j] = sum(abs(c) * e.err for c, e in read)
        if len(read) == 2:
            err[i, j] += _U * abs(sigma[i, j])
    return sigma, err


def _exact_measures(rates, weights):
    """theta (both symplectic eigenvalues), nu_minus and E_N of the same
    float W and R at 80 digits: mpmath numbers through _sector_covariance
    and the sigma map, then det sigma, Delta and Delta~."""
    with mpmath.workdps(80):
        scale = max(abs(rates[0]), abs(rates[1]))
        gamma, kappa, coupling, lam = (mpmath.mpf(x) / scale for x in rates)
        drift = (-gamma / 2, coupling, -coupling, mpmath.mpc(-kappa / 2, lam))  # _collective_drift
        entries = dynamics._sector_covariance(drift, *(mpmath.mpf(x) / scale for x in weights))
        sigma = mpmath.matrix([[mpmath.fsum(mpmath.mpf(c) * e for c, e in zip(coefs, entries))
                                for coefs in map_row.tolist()] for map_row in _MIRROR_MAP])
        det_full = mpmath.det(sigma)
        det2 = lambda i, j: sigma[i, j] * sigma[i + 1, j + 1] - sigma[i, j + 1] * sigma[i + 1, j]
        blocks = det2(0, 0) + det2(2, 2)

        def minus(delta):
            return mpmath.sqrt((delta - mpmath.sqrt(max(delta * delta - 4 * det_full, 0))) / 2)

        theta, nu_minus = minus(blocks + 2 * det2(0, 2)), minus(blocks - 2 * det2(0, 2))
        return float(theta), float(nu_minus), float(max(0, -mpmath.log(2 * nu_minus)))


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(
    cooperativity=log_uniform(-3, 5),
    xi=log_uniform(-4, 1),
    gamma_over_kappa=log_uniform(-5, 0),
    temperature=log_uniform(-6, -1),
    squeezing_r=st.floats(0.0, 3.0),
)
def test_report_within_its_rounding_bound_of_80_digits(cooperativity, xi, gamma_over_kappa,
                                                       temperature, squeezing_r):
    # the tolerance is a first-order rounding bound, computed at each point
    # and never fitted to the errors seen: the running bound on the mirror
    # block (above), then det sigma as numpy's LU gives it (the exact det of
    # sigma + E with |E| <= gamma_4 P |L| |U|, as sign exp(sum log |u_ii|)),
    # the running bound on the partial transpose's delta and discriminant
    # (the operations of _eigenvalue_pair), and the closed forms of the
    # measures.  The terms left out are of second order, the square of a
    # relative bound
    kappa = HELD.kappa
    params = HELD.with_updates(
        cooperativity=cooperativity, hopping_lambda=xi * kappa,
        gamma=gamma_over_kappa * kappa, temperature=temperature,
        squeezing_r=squeezing_r,
    )
    result = evaluate_point(params)
    report = result.report
    w, r = build_drift(result.derived), build_noise(result.derived)
    rates = check_stability(w).rates
    weights = (r.item(0, 0), r.item(4, 4), r.item(4, 6))
    sigma, err = _mirror_block_with_bound(rates, weights)
    # the bound describes the pipeline's own arithmetic
    assert sigma.tobytes() == result.state.mechanical_block.tobytes()
    theta, nu_minus, log_negativity = _exact_measures(rates, weights)

    cov = TwoModeCovariance.from_matrix(sigma)
    det_full = cov.det_full
    p, lower, upper = scipy.linalg.lu(sigma)
    backward = 4.0 * _U / (1.0 - 4.0 * _U) * (p @ (abs(lower) @ abs(upper)))
    # each log |u_ii| and each partial sum rounds (5 _U sum |log|), and exp (2 _U)
    log_sum = float(abs(np.log(abs(np.diag(upper)))).sum())
    det_err = (float(np.vdot(abs(det_full * np.linalg.inv(sigma)).T, err + backward))
               + det_full * (5.0 * _U * log_sum + 2.0 * _U))
    # the model's state is degenerate, so both theta are det sigma ** 1/4
    assert report.theta_plus == report.theta_minus
    theta_rel = det_err / (4.0 * det_full) + 2.0 * _U
    assert abs(report.theta_plus - theta) <= theta_rel * theta

    # the partial transpose's delta and discriminant as _eigenvalue_pair
    # takes them (s = -1), with a running bound on each
    (x11, x12, z11, z12), (x21, x22, z21, z22), (_, _, b11, b12), (_, _, b21, b22) = [
        [_Rounded(v, e) for v, e in zip(row, row_err)]
        for row, row_err in zip(sigma.tolist(), err.tolist())]
    det_x, det_b = x11 * x22 - x12 * x21, b11 * b22 - b12 * b21
    delta = det_x + det_b - 2.0 * (z11 * z22 - z12 * z21)
    m11 = x22 * z11 - x12 * z21 - (z22 * b11 - z21 * b21)
    m12 = x22 * z12 - x12 * z22 - (z22 * b12 - z21 * b22)
    m21 = x11 * z21 - x21 * z11 - (z11 * b21 - z12 * b11)
    m22 = x11 * z22 - x21 * z12 - (z11 * b22 - z12 * b12)
    disc = (det_x - det_b) * (det_x - det_b) - 4.0 * (m11 * m22 - m12 * m21)
    if disc.value <= 0.0:
        # nu_minus = det sigma ** 1/4 = theta, off s - |z| by the factor
        # sqrt((s + |z|) / (s - |z|)); the exact discriminant is
        # 16 s^2 z^2 with s^2 = det X, and at most disc.err - disc.value
        assert report.nu_minus == report.theta_minus
        split = math.sqrt(disc.err - disc.value) / (4.0 * det_x.value)
        nu_rel = theta_rel + math.sqrt((1.0 + split) / (1.0 - split)) - 1.0
    else:   # nu_minus = sqrt(det sigma / nu_plus^2), from these floats
        root = math.sqrt(disc.value)
        plus_sq = 0.5 * (delta.value + root)
        assert report.nu_minus == math.sqrt(det_full / plus_sq)
        plus_err = 0.5 * (delta.err + disc.err / root + _U * root) + _U * plus_sq
        nu_rel = 0.5 * (det_err / det_full + plus_err / plus_sq + _U) + _U
    assert abs(report.nu_minus - nu_minus) <= nu_rel * nu_minus
    # E_N = max(0, -ln 2 nu_minus), and _snap_floor's 1e-12
    en_err = nu_rel / (1.0 - nu_rel) + 2.0 * _U * log_negativity + 1e-12
    assert abs(report.log_negativity - log_negativity) <= en_err


# 1 uK to 0.1 K, the property test's temperature range, log spaced
TEMPERATURES = np.geomspace(1e-6, 0.1, 25).tolist()

# the smallest E_N whose discord the measures' 1e-12 snap cannot hide.  The
# mirror state fixes E_N = -ln(2 (s - |z|)) with s = sqrt(det X) >= 1/2, so
# E_N <= -ln(1 - 2|z|), about 2|z|: first order in the mirror correlation z.
# The discord is second order, at least z^2 near the vacuum (pure states:
# z^2 (1 + ln(1 / z^2))), so it exceeds the snap wherever E_N > 2 sqrt(1e-12)
RESOLVED_LOG_NEGATIVITY = 2.0 * math.sqrt(1e-12)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(
    cooperativity=log_uniform(-3, 5),
    xi=log_uniform(-4, 1),
    gamma_over_kappa=log_uniform(-5, 0),
    squeezing_r=st.floats(0.0, 3.0),
)
def test_correlations_fall_with_temperature(cooperativity, xi, gamma_over_kappa, squeezing_r):
    # the abstract's thermal claim along a T curve from each base point: no
    # measure rises by more than a relative 1e-9 plus the measures' snap
    # scale 1e-12, and an entangled point always has discord, wherever the
    # snap can show it
    kappa = HELD.kappa
    base = HELD.with_updates(
        cooperativity=cooperativity, hopping_lambda=xi * kappa,
        gamma=gamma_over_kappa * kappa, squeezing_r=squeezing_r,
    )
    previous = None
    for temperature in TEMPERATURES:
        result = evaluate_point(base.with_updates(temperature=temperature))
        assert result.stable
        report = result.report
        current = (report.log_negativity, report.steering_ab, report.steering_ba,
                   report.discord)
        if previous is not None:
            for before, after in zip(previous, current):
                assert after <= before + 1e-9 * abs(before) + 1e-12, (temperature, previous, current)
        assert report.log_negativity <= RESOLVED_LOG_NEGATIVITY or report.discord > 0.0, temperature
        previous = current


# 0 to 3, the property test's squeezing range
SQUEEZINGS = np.linspace(0.0, 3.0, 25).tolist()


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(
    cooperativity=log_uniform(-3, 5),
    gamma_over_kappa=log_uniform(-5, 0),
    temperature=log_uniform(-6, -1),
)
def test_correlations_grow_with_squeezing_without_hopping(cooperativity, gamma_over_kappa,
                                                         temperature):
    # the abstract's squeezing claim along an r curve from each base point with
    # xi = 0: no measure falls by more than a relative 1e-9 plus the measures'
    # snap scale 1e-12 (with hopping the claim fails, see the README)
    kappa = HELD.kappa
    base = HELD.with_updates(
        cooperativity=cooperativity, hopping_lambda=0.0,
        gamma=gamma_over_kappa * kappa, temperature=temperature,
    )
    previous = None
    for squeezing_r in SQUEEZINGS:
        result = evaluate_point(base.with_updates(squeezing_r=squeezing_r))
        assert result.stable
        report = result.report
        current = (report.log_negativity, report.steering_ab, report.steering_ba,
                   report.discord)
        if previous is not None:
            for before, after in zip(previous, current):
                assert after >= before - 1e-9 * abs(before) - 1e-12, (squeezing_r, previous, current)
        previous = current


def test_entanglement_can_die_at_strong_coupling():
    # the abstract's "optimal at strong coupling" holds only in part of the
    # space: at this fig3-device point E_N peaks below C = 1 and is exactly
    # zero from C = 3 on
    kappa = HELD.kappa
    base = HELD.with_updates(hopping_lambda=0.18 * kappa, gamma=1.4e-3 * kappa,
                             temperature=4e-6, squeezing_r=2.2)
    en = lambda c: evaluate_point(base.with_updates(cooperativity=c)).report.log_negativity
    assert en(0.7) == pytest.approx(0.110, abs=5e-4)
    assert en(1.0) == pytest.approx(0.081, abs=5e-4)
    assert all(en(c) == 0.0 for c in np.geomspace(3.0, 1e4, 8))
