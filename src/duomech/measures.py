"""Gaussian correlation quantifiers for two-mode covariance matrices.

All measures are functions of the block determinants of

    sigma = [[X, Z], [Z^T, B]],    X, B, Z : 2x2,

with the vacuum-variance-1/2 convention and natural logarithms (results in
nats).  The states produced by this package are exchange symmetric (B = X,
Z = diag(z, -z)); the steering and log-negativity routines accept general
physical two-mode covariances, the discord routine is restricted to the
det Z <= 0, B = X branch its closed form covers and refuses anything else.
The symplectic eigenvalues of sigma come from the same determinants, once
per covariance; :func:`symplectic_spectrum`, the general n-mode route through
the eigenvalues of i Omega sigma, stays as the independent reference the
tests compare them with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PhysicalityError, UnsupportedBranchError

__all__ = [
    "TwoModeCovariance",
    "CorrelationReport",
    "f_function",
    "symplectic_spectrum",
    "symplectic_eigenvalues",
    "gaussian_steering",
    "log_negativity",
    "gaussian_discord",
    "correlation_report",
    "thermal_state",
    "two_mode_squeezed_state",
]

VACUUM_VARIANCE = 0.5
_PHYS_TOL = 1e-9     # slack on the nu >= 1/2 physicality bound
_SNAP = 1e-12        # |measure| below this snaps to exactly 0
_EPS = float(np.finfo(float).eps)
_MAX_ROUNDING = 1e-7  # largest relative rounding of the spectrum, see below


_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_spectrum(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of an n-mode covariance matrix, ascending.

    Computed as the moduli of the eigenvalues of i Omega sigma (each value
    appears twice in that spectrum; duplicates are removed by sorting and
    taking every other entry).
    """
    cov = np.asarray(cov, dtype=float)
    n2 = cov.shape[0]
    if cov.ndim != 2 or cov.shape[1] != n2 or n2 % 2:
        raise ValueError(f"covariance must be square with even size, got {cov.shape}")
    moduli = abs(np.linalg.eigvals(1j * np.kron(np.eye(n2 // 2), _J) @ cov))
    moduli.sort()
    return moduli[::2]


@dataclass(frozen=True)
class TwoModeCovariance:
    """4x4 two-mode covariance in (q_A, Y_A, q_B, Y_B) order with cached
    block determinants and symplectic eigenvalues.

    ``theta_plus`` and ``theta_minus`` are the symplectic eigenvalues of
    ``matrix`` from its block determinants (:func:`symplectic_eigenvalues`),
    computed once on construction.  This is the one place a covariance is
    validated: overflowing block determinants, det sigma <= 0, a det sigma
    lost to rounding (eps det_scale > 1e-7 sqrt(det sigma)), a matrix that is
    not positive definite or a symplectic eigenvalue below the vacuum bound
    raise :class:`PhysicalityError` however the object is built, and the
    measures do not repeat these gates.
    """

    matrix: np.ndarray
    det_x: float
    det_b: float
    det_z: float
    det_full: float
    det_scale: float     # |det X| + |det B| + 2 |det Z|, see _disc_band
    theta_plus: float = field(init=False)
    theta_minus: float = field(init=False)

    def __post_init__(self) -> None:
        # the measures square delta = det X + det B +- 2 det Z and form
        # 4 det sigma; for a physical state both are bounded by det_scale^2
        if not (math.isfinite(self.det_scale * self.det_scale)
                and math.isfinite(self.det_full)):
            raise PhysicalityError(
                f"covariance too large: its block determinants overflow "
                f"(max |entry| = {float(abs(self.matrix).max()):.3e})"
            )
        if self.det_full <= 0.0:
            raise PhysicalityError(f"non-positive covariance determinant {self.det_full!r}")
        # det sigma = (theta+ theta-)^2 cancels down from terms of size
        # det_scale^2, so rounding of the entries by eps moves the smallest
        # symplectic eigenvalues by about eps det_scale / sqrt(det sigma)
        # relative (X = a I, Z = diag(c, -c): eps a / (a - c))
        if _EPS * self.det_scale > _MAX_ROUNDING * math.sqrt(self.det_full):
            raise PhysicalityError(
                f"covariance determinant lost to rounding: det sigma = "
                f"{self.det_full!r} against block determinants of size "
                f"{self.det_scale!r}"
            )
        # the spectrum and det sigma are those of -sigma too: with det sigma > 0
        # above, positive leading minors of orders 1-3 make sigma positive
        # definite (Sylvester's criterion)
        (x11, x12, z11, _), (_, x22, z21, _), (_, _, b11, _), _ = self.matrix.tolist()
        minor3 = self.det_x * b11 - x22 * z11 * z11 + 2.0 * x12 * z11 * z21 - x11 * z21 * z21
        if not (x11 > 0.0 and self.det_x > 0.0 and minor3 > 0.0):
            raise PhysicalityError(
                f"covariance not positive definite: leading minors "
                f"{x11!r}, {self.det_x!r}, {minor3!r}"
            )
        # theta_plus^2 and theta_minus^2 are the roots of
        # t^2 - delta t + det sigma, real for a positive definite sigma
        # (Williamson's theorem), so theta_minus >= v exactly when
        # det sigma >= v^4 and v^2 delta <= det sigma + v^4.  The gate tests
        # these with v = 1/2 - _PHYS_TOL before it reads theta_minus:
        # _eigenvalue_pair snaps a discriminant inside its band to
        # degeneracy, and that band can hide theta_minus < 1/2.  A positive
        # excess refuses the state unless 8 times its first-order rounding
        # (_gate_rounding, computed only then) explains it; a state the
        # rounding lets through must still report theta_minus >= v.
        delta = self.det_x + self.det_b + 2.0 * self.det_z
        v2 = (VACUUM_VARIANCE - _PHYS_TOL) ** 2
        excess = max(v2 * delta - self.det_full - v2 * v2, v2 * v2 - self.det_full)
        refused = not delta > 0.0 or (   # delta = theta_plus^2 + theta_minus^2
            excess > 0.0 and excess > 8.0 * _gate_rounding(self.matrix, self.det_full))
        if refused:   # theta_minus unsnapped, for the message: sqrt(det sigma) / theta_plus
            den = delta + math.sqrt(max(delta * delta - 4.0 * self.det_full, 0.0))
            theta_minus = math.sqrt(2.0 * self.det_full / den) if den > 0.0 else math.nan
        else:
            theta_plus, theta_minus = _eigenvalue_pair(delta, self)
        if refused or theta_minus < VACUUM_VARIANCE - _PHYS_TOL:
            raise PhysicalityError(
                f"unphysical covariance: min symplectic eigenvalue {theta_minus!r} < 1/2"
            )
        object.__setattr__(self, "theta_plus", theta_plus)
        object.__setattr__(self, "theta_minus", theta_minus)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "TwoModeCovariance":
        # a copy: the cached determinants must keep describing ``matrix``
        m = np.array(matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 covariance, got shape {m.shape}")
        (x11, x12, z11, z12), (x21, x22, z21, z22), (y11, y12, b11, b12), (y21, y22, b21, b22) = (
            m.tolist()
        )
        # exactly symmetric input (every block the solve hands over) needs
        # neither the tolerance gate nor the symmetrization, which would
        # return it unchanged; a zero first variance (the zero matrix among
        # others) takes the full path, which refuses the zero matrix
        if not x11 or (x12, z11, z12, z21, z22, b12) != (x21, y11, y21, y12, y22, b21):
            scale = float(abs(m).max())
            if scale == 0.0:
                raise PhysicalityError("zero covariance matrix is unphysical")
            if abs(m - m.T).max() > 1e-10 * scale:
                raise PhysicalityError("covariance matrix must be symmetric")
            m = 0.5 * (m + m.T)
            (x11, x12, z11, z12), (x21, x22, z21, z22), (_, _, b11, b12), (_, _, b21, b22) = (
                m.tolist()
            )
        det_x = x11 * x22 - x12 * x21
        det_b = b11 * b22 - b12 * b21
        det_z = z11 * z22 - z12 * z21
        det_scale = abs(det_x) + abs(det_b) + 2.0 * abs(det_z)
        # every entry of the symmetric m lies in X, Z or B, so a NaN or an
        # infinite one makes det_scale non-finite; refused before det, which
        # would warn on it
        if not math.isfinite(det_scale) and not np.isfinite(m).all():
            raise PhysicalityError("covariance matrix is not finite: it has a NaN or infinite entry")
        return cls(matrix=m, det_x=det_x, det_b=det_b, det_z=det_z,
                   det_full=float(np.linalg.det(m)), det_scale=det_scale)


def _gate_rounding(m: np.ndarray, det_full: float) -> float:
    """First-order rounding of the physicality gate's v^2 delta - det sigma
    - v^4: eps times the products the block determinants cancel from (a
    quarter of them, the weight v^2 of delta), plus eps times
    sum |adj(sigma)_ji sigma_ij|, the rounding of np.linalg.det."""
    (x11, x12, z11, z12), (x21, x22, z21, z22), (_, _, b11, b12), (_, _, b21, b22) = m.tolist()
    products = (abs(x11 * x22) + abs(x12 * x21) + abs(b11 * b22) + abs(b12 * b21)
                + 2.0 * (abs(z11 * z22) + abs(z12 * z21)))
    try:
        adjugate = det_full * np.linalg.inv(m)
    except np.linalg.LinAlgError:   # a singular matrix built with det sigma > 0: no slack
        return 0.0
    return _EPS * (0.25 * products + float(np.vdot(abs(adjugate), abs(m.T))))


def _as_cov(cov: TwoModeCovariance | np.ndarray) -> TwoModeCovariance:
    if isinstance(cov, TwoModeCovariance):
        return cov
    return TwoModeCovariance.from_matrix(cov)


def f_function(x: float) -> float:
    """Entropy kernel f(x) = (x+1/2) ln(x+1/2) - (x-1/2) ln(x-1/2).

    Continuous at the vacuum point: f(1/2) = 0 through the x ln x -> 0
    limit.  Arguments below 1/2 by more than 1e-9 are unphysical.
    """
    if x < VACUUM_VARIANCE - _PHYS_TOL:
        raise PhysicalityError(f"f_function argument {x!r} below vacuum value 1/2")
    xm = x - VACUUM_VARIANCE
    if xm <= 0.0:
        return 0.0
    # = ln(x+1/2) + (x-1/2) ln(1 + 1/(x-1/2)): the two x ln x terms of the
    # definition cancel down to a value of order ln x
    return math.log(x + VACUUM_VARIANCE) + xm * math.log1p(1.0 / xm)


def _disc_band(delta: float, det_full: float, det_scale: float) -> float:
    """Roundoff band of the discriminant delta^2 - 4 det_full.

    ``det_scale`` is the pre-cancellation magnitude of the block-determinant
    combination (|det X| + |det B| + 2 |det Z|): both delta and det_full are
    differences of terms of that size, so the discriminant inherits an
    absolute error of order eps * det_scale^2 even when it is exactly zero.
    """
    return 4096.0 * _EPS * max(
        delta * delta, abs(4.0 * det_full), det_scale * det_scale, 1e-300
    )


def _eigenvalue_pair(delta: float, c: TwoModeCovariance) -> tuple[float, float]:
    """(plus, minus) = sqrt[(delta +- sqrt(disc)) / 2] with
    disc = delta^2 - 4 det sigma.  minus is taken as sqrt(det sigma / plus^2),
    and both as det sigma ** 1/4 at degeneracy: delta - sqrt(disc), and there
    delta itself, lose digits.

    States produced by this system have exactly degenerate symplectic
    spectra (delta^2 = 4 det sigma), so the cancellation leaves the
    discriminant straddling zero at roundoff level; the square root would
    amplify that into a spurious eigenvalue split.  Values inside the
    cancellation band (:func:`_disc_band`) snap to exact degeneracy; values
    negative beyond it mean a genuinely complex eigenvalue and are refused.
    """
    disc = delta * delta - 4.0 * c.det_full
    band = _disc_band(delta, c.det_full, c.det_scale)
    if disc < -max(band, 1e-12):
        raise PhysicalityError(
            f"complex symplectic eigenvalue: discriminant {disc!r} < 0"
        )
    if disc < band:
        both = c.det_full ** 0.25
        return both, both
    plus_sq = (delta + math.sqrt(disc)) / 2.0
    return math.sqrt(plus_sq), math.sqrt(c.det_full / plus_sq)


def symplectic_eigenvalues(cov: TwoModeCovariance | np.ndarray) -> tuple[float, float]:
    """(theta_plus, theta_minus) of a two-mode covariance from the block
    determinants, as :class:`TwoModeCovariance` caches them.

    theta_pm = sqrt[(Delta' +- sqrt(Delta'^2 - 4 det sigma)) / 2] with
    Delta' = det X + det B + 2 det Z, evaluated as in :func:`_eigenvalue_pair`.
    The tests compare it with the general :func:`symplectic_spectrum`.
    """
    c = _as_cov(cov)
    return c.theta_plus, c.theta_minus


def gaussian_steering(cov: TwoModeCovariance | np.ndarray) -> tuple[float, float]:
    """Gaussian steering in both directions, (S_AB, S_BA), in nats.

    S^{A->B} = max[0, (1/2) ln(det X / (4 det sigma))], and det B in place
    of det X for the reverse direction; the two coincide for the exchange
    symmetric states this system produces.
    """
    c = _as_cov(cov)
    s_ab = 0.5 * math.log(c.det_x / (4.0 * c.det_full))
    s_ba = 0.5 * math.log(c.det_b / (4.0 * c.det_full))
    return _snap_floor(s_ab), _snap_floor(s_ba)


def log_negativity(cov: TwoModeCovariance | np.ndarray) -> tuple[float, float]:
    """(E_N, nu_minus): logarithmic negativity in nats and the smallest
    symplectic eigenvalue of the partially transposed covariance.

    nu_pm = sqrt[(Delta +- sqrt(Delta^2 - 4 det sigma)) / 2] with
    Delta = det X + det B - 2 det Z, evaluated as in :func:`_eigenvalue_pair`.
    The modes are entangled iff nu_minus < 1/2, and
    E_N = max[0, -ln(2 nu_minus)].
    """
    c = _as_cov(cov)
    _, nu_minus = _eigenvalue_pair(c.det_x + c.det_b - 2.0 * c.det_z, c)
    if nu_minus <= 0.0:
        raise PhysicalityError("vanishing partial-transpose symplectic eigenvalue")
    return _snap_floor(-math.log(2.0 * nu_minus)), nu_minus


def gaussian_discord(cov: TwoModeCovariance | np.ndarray) -> float:
    """Gaussian quantum discord in nats, det Z <= 0 branch.

    D = f(sqrt(det X)) - f(theta_plus) - f(theta_minus) + f(delta) with
    delta = (sqrt(det X) + 2 det X + 2 det Z) / (1 + 2 sqrt(det X)).

    The closed form for the measurement term is valid for det Z <= 0 and
    exchange-symmetric blocks (B = X), which covers every state this system
    produces; other inputs raise :class:`UnsupportedBranchError` rather than
    return a silently wrong value.
    """
    c = _as_cov(cov)
    scale = max(abs(c.det_x), abs(c.det_b), 1e-300)
    if c.det_z > _SNAP * scale:
        raise UnsupportedBranchError(
            f"gaussian_discord implements only the det Z <= 0 branch "
            f"(got det Z = {c.det_z!r})"
        )
    if abs(c.det_x - c.det_b) > 1e-9 * scale:
        raise UnsupportedBranchError(
            "gaussian_discord requires exchange-symmetric blocks "
            f"(det X = {c.det_x!r}, det B = {c.det_b!r})"
        )
    sqrt_det_x = math.sqrt(c.det_x)
    delta = (sqrt_det_x + 2.0 * c.det_x + 2.0 * c.det_z) / (1.0 + 2.0 * sqrt_det_x)
    d = (
        f_function(sqrt_det_x)
        - f_function(c.theta_plus)
        - f_function(c.theta_minus)
        + f_function(delta)
    )
    return _snap_floor(d)


def _snap_floor(value: float) -> float:
    """max[0, value] with |value| < 1e-12 snapped to exactly 0 so that sweep
    output is stable at the measure onset boundary."""
    if abs(value) < _SNAP:
        return 0.0
    return max(0.0, value)


@dataclass(frozen=True)
class CorrelationReport:
    """Every quantifier for one parameter point."""

    steering_ab: float
    steering_ba: float
    log_negativity: float
    discord: float
    nu_minus: float
    theta_plus: float
    theta_minus: float


def correlation_report(cov: TwoModeCovariance | np.ndarray) -> CorrelationReport:
    """Evaluate all measures on one two-mode covariance."""
    c = _as_cov(cov)
    s_ab, s_ba = gaussian_steering(c)
    en, nu_minus = log_negativity(c)
    return CorrelationReport(
        steering_ab=s_ab,
        steering_ba=s_ba,
        log_negativity=en,
        discord=gaussian_discord(c),
        nu_minus=nu_minus,
        theta_plus=c.theta_plus,
        theta_minus=c.theta_minus,
    )


def thermal_state(n_mean: float) -> np.ndarray:
    """Two-mode product thermal covariance (n + 1/2) I4."""
    if not (math.isfinite(n_mean) and n_mean >= 0.0):
        raise ValueError(f"mean occupation must be finite and >= 0, got {n_mean!r}")
    return (n_mean + VACUUM_VARIANCE) * np.eye(4)


def two_mode_squeezed_state(s: float) -> np.ndarray:
    """Pure two-mode squeezed vacuum covariance with squeezing ``s``."""
    if not math.isfinite(s):
        raise ValueError(f"squeezing must be finite, got {s!r}")
    ch = 0.5 * math.cosh(2.0 * s)
    sh = 0.5 * math.sinh(2.0 * s)
    return np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )
