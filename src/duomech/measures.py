"""Gaussian correlation quantifiers for two-mode covariance matrices.

All measures are functions of the block determinants of

    sigma = [[X, Z], [Z^T, B]],    X, B, Z : 2x2,

with the vacuum-variance-1/2 convention and natural logarithms (results in
nats).  The states produced by this package are exchange symmetric (B = X,
Z = diag(z, -z)); the steering and log-negativity routines accept general
physical two-mode covariances, the discord routine is restricted to the
det Z <= 0, B = X branch its closed form covers and refuses anything else.
The symplectic eigenvalues of sigma and of its partial transpose come from
the same blocks, once per covariance, their discriminant from the block
adjugates; :func:`symplectic_spectrum`, the general n-mode route
through the eigenvalues of i Omega sigma, stays as the independent
reference the tests compare them with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, PhysicalityError, UnsupportedBranchError, _check_number

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
    taking every other entry).  i Omega sigma is not normal, so its
    eigenvalues carry an absolute error of up to about
    eps ||sigma||^2 / theta_minus: at fig2's held point with r = 8, theta_plus
    (616) is 1.7e-9 relative off the 80-digit value of the same float
    matrix, where the two-mode closed form is 1.4e-11 off.
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

    ``matrix`` is the only constructor argument.  The object keeps a copy,
    symmetrized if symmetric to within 1e-10 of its largest entry, and
    computes every other field from it once, on construction: ``theta_plus``
    and ``theta_minus``, and ``nu_plus`` and ``nu_minus`` of the partial
    transpose, from the blocks, as :func:`_eigenvalue_pair` gives them.
    This is the one place a
    covariance is validated, and the measures do not repeat its gates: a
    shape other than 4x4 raises ``ValueError``, and :class:`PhysicalityError`
    is raised for a zero, non-symmetric or non-finite matrix, overflowing
    block determinants, det sigma <= 0, a det sigma lost to rounding
    (eps det_scale > 1e-7 sqrt(det sigma)), a matrix that is not positive
    definite, a symplectic invariant lost to rounding (delta <= 0 for sigma
    or its partial transpose, see :func:`_eigenvalue_pair`) or a symplectic
    eigenvalue below the vacuum bound.
    """

    matrix: np.ndarray
    det_x: float = field(init=False)
    det_b: float = field(init=False)
    det_z: float = field(init=False)
    det_full: float = field(init=False)
    det_scale: float = field(init=False)   # |det X| + |det B| + 2 |det Z|, the rounding gate's scale
    theta_plus: float = field(init=False)
    theta_minus: float = field(init=False)
    nu_plus: float = field(init=False)
    nu_minus: float = field(init=False)

    def __post_init__(self) -> None:
        # a copy: the cached determinants must keep describing ``matrix``
        m = np.array(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 covariance, got shape {m.shape}")
        rows = m.tolist()
        (x11, x12, z11, z12), (x21, x22, z21, z22), (y11, y12, b11, b12), (y21, y22, b21, b22) = rows
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
            rows = m.tolist()
            (x11, x12, z11, z12), (x21, x22, z21, z22), (_, _, b11, b12), (_, _, b21, b22) = rows
        det_x = x11 * x22 - x12 * x21
        det_b = b11 * b22 - b12 * b21
        det_z = z11 * z22 - z12 * z21
        det_scale = abs(det_x) + abs(det_b) + 2.0 * abs(det_z)
        # every entry of the symmetric m lies in X, Z or B, so a NaN or an
        # infinite one makes det_scale non-finite; refused before det, which
        # would warn on it
        if not math.isfinite(det_scale) and not np.isfinite(m).all():
            raise PhysicalityError("covariance matrix is not finite: it has a NaN or infinite entry")
        # det overflows, and warns, about where det_scale^2 does: refused as inf
        det_full = float(np.linalg.det(m)) if math.isfinite(det_scale * det_scale) else math.inf
        # the measures square det X - det B and delta = det X + det B +- 2 det Z,
        # both at most det_scale
        if not (math.isfinite(det_scale * det_scale) and math.isfinite(det_full)):
            raise PhysicalityError(
                f"covariance too large: its block determinants overflow "
                f"(max |entry| = {float(abs(m).max()):.3e})"
            )
        if det_full <= 0.0:
            raise PhysicalityError(f"non-positive covariance determinant {det_full!r}")
        # det sigma = (theta+ theta-)^2 cancels down from terms of size
        # det_scale^2, so rounding of the entries by eps moves the smallest
        # symplectic eigenvalues by about eps det_scale / sqrt(det sigma)
        # relative (X = a I, Z = diag(c, -c): eps a / (a - c))
        if _EPS * det_scale > _MAX_ROUNDING * math.sqrt(det_full):
            raise PhysicalityError(
                f"covariance determinant lost to rounding: det sigma = "
                f"{det_full!r} against block determinants of size "
                f"{det_scale!r}"
            )
        # the spectrum and det sigma are those of -sigma too: with det sigma > 0
        # above, positive leading minors of orders 1-3 make sigma positive
        # definite (Sylvester's criterion)
        minor3 = det_x * b11 - x22 * z11 * z11 + 2.0 * x12 * z11 * z21 - x11 * z21 * z21
        if not (x11 > 0.0 and det_x > 0.0 and minor3 > 0.0):
            raise PhysicalityError(
                f"covariance not positive definite: leading minors "
                f"{x11!r}, {det_x!r}, {minor3!r}"
            )
        theta_plus, theta_minus = _eigenvalue_pair(rows, 1.0, det_full)
        if not theta_minus >= VACUUM_VARIANCE - _PHYS_TOL:
            raise PhysicalityError(
                f"unphysical covariance: min symplectic eigenvalue {theta_minus!r} < 1/2"
            )
        nu_plus, nu_minus = _eigenvalue_pair(rows, -1.0, det_full)
        # frozen: the fields are set past its __setattr__
        vars(self).update(matrix=m, det_x=det_x, det_b=det_b, det_z=det_z, det_full=det_full,
                          det_scale=det_scale, theta_plus=theta_plus, theta_minus=theta_minus,
                          nu_plus=nu_plus, nu_minus=nu_minus)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "TwoModeCovariance":
        """The validated covariance of ``matrix``: ``TwoModeCovariance(matrix)``."""
        return cls(matrix)


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


def _eigenvalue_pair(rows: list, s: float, det_full: float) -> tuple[float, float]:
    """(plus, minus): the symplectic eigenvalues of sigma (s = +1) or of its
    partial transpose (s = -1), from the rows of sigma and its det_full.

    plus^2 and minus^2 are the roots of t^2 - delta t + det sigma with
    delta = det X + det B + 2 s det Z.  Their discriminant
    delta^2 - 4 det sigma is a difference of terms of size det_scale^2; it
    is taken as the equal (det X - det B)^2 + 4 s det(adj(X) Z + s adj(Z)^T B)
    (exact for symmetric X and B), which is 0 bit for bit for the theta of
    the model's states (X = B, Z = diag(z, -z)) and 16 z^2 det X, with no
    such cancellation, for their partial transpose.  Both discriminants are
    >= 0 for a positive definite sigma (Williamson's theorem), so a negative
    value is rounding: at disc <= 0 both are det sigma ** 1/4, else
    plus^2 = (delta + sqrt(disc)) / 2 and minus = sqrt(det sigma / plus^2),
    since delta - sqrt(disc) loses digits.
    """
    (x11, x12, z11, z12), (x21, x22, z21, z22), (_, _, b11, b12), (_, _, b21, b22) = rows
    det_x = x11 * x22 - x12 * x21
    det_b = b11 * b22 - b12 * b21
    delta = det_x + det_b + 2.0 * s * (z11 * z22 - z12 * z21)
    # adj(X) Z + s adj(Z)^T B, with adj([[p, q], [r, t]]) = [[t, -q], [-r, p]]
    m11 = x22 * z11 - x12 * z21 + s * (z22 * b11 - z21 * b21)
    m12 = x22 * z12 - x12 * z22 + s * (z22 * b12 - z21 * b22)
    m21 = x11 * z21 - x21 * z11 + s * (z11 * b21 - z12 * b11)
    m22 = x11 * z22 - x21 * z12 + s * (z11 * b22 - z12 * b12)
    disc = (det_x - det_b) ** 2 + 4.0 * s * (m11 * m22 - m12 * m21)
    if not delta > 0.0:   # delta = plus^2 + minus^2
        raise PhysicalityError(f"symplectic invariant lost to rounding: delta = {delta!r} <= 0")
    if disc <= 0.0:
        both = det_full ** 0.25
        return both, both
    plus_sq = (delta + math.sqrt(disc)) / 2.0
    return math.sqrt(plus_sq), math.sqrt(det_full / plus_sq)


def symplectic_eigenvalues(cov: TwoModeCovariance | np.ndarray) -> tuple[float, float]:
    """(theta_plus, theta_minus) of a two-mode covariance from the block
    determinants, as :class:`TwoModeCovariance` caches them.

    theta_pm = sqrt[(Delta' +- sqrt(Delta'^2 - 4 det sigma)) / 2] with
    Delta' = det X + det B + 2 det Z, the discriminant taken from the block
    adjugates as in :func:`_eigenvalue_pair`.
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
    Delta = det X + det B - 2 det Z, the discriminant taken from the block
    adjugates as in :func:`_eigenvalue_pair`, as :class:`TwoModeCovariance`
    caches it.  The modes are entangled iff nu_minus < 1/2, and
    E_N = max[0, -ln(2 nu_minus)].
    """
    c = _as_cov(cov)
    return _snap_floor(-math.log(2.0 * c.nu_minus)), c.nu_minus


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


class CorrelationReport(NamedTuple):
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
    return CorrelationReport(s_ab, s_ba, en, gaussian_discord(c), nu_minus,
                             c.theta_plus, c.theta_minus)


def thermal_state(n_mean: float) -> np.ndarray:
    """Two-mode product thermal covariance (n + 1/2) I4, n a finite real
    number >= 0 (else a ConfigError)."""
    _check_number("mean occupation", n_mean, minimum=0.0)
    return (n_mean + VACUUM_VARIANCE) * np.eye(4)


def two_mode_squeezed_state(s: float) -> np.ndarray:
    """Pure two-mode squeezed vacuum covariance with squeezing ``s``: a
    finite real number whose cosh 2s does not overflow, or a ConfigError."""
    _check_number("squeezing", s)
    if not math.isfinite(s):
        raise ConfigError(f"squeezing must be finite, got {s!r}")
    try:
        ch, sh = 0.5 * math.cosh(2.0 * s), 0.5 * math.sinh(2.0 * s)
    except OverflowError:
        raise ConfigError(f"squeezing = {s!r} is too large: cosh 2s overflows") from None
    return np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )
