"""Drift and noise matrices of the linearized fluctuation dynamics and the
steady-state covariance from the continuous Lyapunov equation.

Quadrature ordering (program-wide constant)::

    index  0      1      2      3      4      5      6      7
           q_b1   Y_b1   q_b2   Y_b2   q_c1   Y_c1   q_c2   Y_c2

b: mechanical modes, c: cavity modes, in the frame rotating at the
mechanical/cavity resonance (red-sideband, rotating-wave regime).

Convention: vacuum quadrature variance is 1/2.  The covariance matrix sigma
of symmetric-ordered moments is physical iff every symplectic eigenvalue is
>= 1/2; the entanglement threshold for the partially transposed two-mode
block is nu_minus < 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhysicalityError, StabilityError, UnsupportedBranchError
from .params import DerivedParams

__all__ = [
    "QUADRATURE_LABELS",
    "SystemMatrices",
    "CovarianceState",
    "StabilityReport",
    "build_drift",
    "build_noise",
    "system_matrices",
    "check_stability",
    "solve_lyapunov",
    "write_matrix",
]

QUADRATURE_LABELS = ("q_b1", "Y_b1", "q_b2", "Y_b2", "q_c1", "Y_c1", "q_c2", "Y_c2")

_N = 8


@dataclass(frozen=True)
class SystemMatrices:
    """Drift matrix W and stationary noise matrix R, both 8x8, rad/s units."""

    drift: np.ndarray
    noise: np.ndarray


@dataclass(frozen=True)
class StabilityReport:
    verdict: str        # "stable" | "marginal" | "unstable"
    max_real: float     # largest real part of the drift spectrum [rad/s]
    threshold: float    # scale-aware tolerance used for the verdict [rad/s]

    @property
    def is_stable(self) -> bool:
        return self.verdict == "stable"


@dataclass(frozen=True)
class CovarianceState:
    """Steady-state covariance: full 8x8 plus the mechanical 4x4 block.

    ``residual`` is ||W sigma + sigma W^T + R||_F / ||R||_F, recomputed after
    the solve as an unconditional quality gate.
    """

    full: np.ndarray
    mechanical_block: np.ndarray
    residual: float


def build_drift(derived: DerivedParams) -> np.ndarray:
    """Assemble the 8x8 drift matrix.

    Mechanical damping -gamma/2 and cavity damping -kappa/2 on the diagonal;
    beam-splitter coupling +G in the mechanical rows, -G in the cavity rows;
    photon hopping enters the cavity block antisymmetrically, rotating the
    two cavity quadrature planes in opposite senses.
    """
    g, k = derived.gamma, derived.kappa
    gc, lam = derived.coupling, derived.hopping_lambda
    w = np.zeros((_N, _N))
    for i in range(4):
        w[i, i] = -g / 2.0
        w[i, i + 4] = gc
        w[i + 4, i] = -gc
        w[i + 4, i + 4] = -k / 2.0
    w[4, 7] = -lam
    w[5, 6] = +lam
    w[6, 5] = -lam
    w[7, 4] = +lam
    return w


def build_noise(derived: DerivedParams) -> np.ndarray:
    """Assemble the 8x8 symmetric stationary noise matrix.

    Mechanical block gamma' I4; optical block kappa' on the diagonal with
    +/- M kappa cross-cavity entries from the two-mode squeezed input
    (positive for the q-q pair, negative for Y-Y).  Positive semidefinite
    since kappa'^2 - (M kappa)^2 = kappa^2/4 > 0.
    """
    k, m_sq = derived.kappa, derived.m_sq
    r = np.zeros((_N, _N))
    for i in range(4):
        r[i, i] = derived.gamma_prime
        r[i + 4, i + 4] = derived.kappa_prime
    r[4, 6] = r[6, 4] = m_sq * k
    r[5, 7] = r[7, 5] = -m_sq * k
    return r


def system_matrices(derived: DerivedParams) -> SystemMatrices:
    return SystemMatrices(drift=build_drift(derived), noise=build_noise(derived))


def _rate_scale(drift: np.ndarray) -> float:
    # diagonal carries -gamma/2 and -kappa/2, so this recovers max(gamma, kappa)
    scale = 2.0 * float(np.max(np.abs(np.diag(drift))))
    if scale == 0.0:
        scale = max(float(np.max(np.abs(drift))), 1.0)
    return scale


def check_stability(drift: np.ndarray, scale: float | None = None) -> StabilityReport:
    """Classify the drift spectrum as stable/marginal/unstable.

    Stable iff max Re(eig) < -eps, marginal iff |max Re| <= eps, with the
    scale-aware tolerance eps = 1e-9 * max(gamma, kappa) (rates span several
    decades, so an absolute tolerance would be meaningless).
    """
    drift = np.asarray(drift, dtype=float)
    if drift.ndim != 2 or drift.shape[0] != drift.shape[1]:
        raise ValueError(f"drift must be square, got shape {drift.shape}")
    if scale is None:
        scale = _rate_scale(drift)
    eps = 1e-9 * scale
    try:
        eigvals = np.linalg.eigvals(drift)
    except np.linalg.LinAlgError as exc:
        raise StabilityError(f"eigenvalue solver failed on drift matrix: {exc}") from exc
    max_real = float(eigvals.real.max())
    if max_real < -eps:
        verdict = "stable"
    elif abs(max_real) <= eps:
        verdict = "marginal"
    else:
        verdict = "unstable"
    return StabilityReport(verdict=verdict, max_real=max_real, threshold=eps)


def _require_stable(drift: np.ndarray, scale: float | None = None) -> None:
    """Raise :class:`StabilityError` unless ``drift`` is strictly stable."""
    report = check_stability(drift, scale)
    if not report.is_stable:
        raise StabilityError(
            f"drift matrix is {report.verdict} "
            f"(max Re eig = {report.max_real:.6e} rad/s, "
            f"threshold {report.threshold:.1e} rad/s); no steady state"
        )


_MAX_ASYMMETRY = 1e-10
_MAX_RESIDUAL = 1e-10

# Quadratures in mode order: the modes (b1, c1) of cavity 1, then (b2, c2).
# The permutation is its own inverse: quadrature n sits at position
# _MODE_ORDER[n].
_MODE_ORDER = np.array([0, 1, 4, 5, 2, 3, 6, 7])
_CAVITY_MODES = _MODE_ORDER.reshape(2, 4)
# flat 8x8 index of entry (i, j) of the 4x4 block that couples the modes of
# cavity k to those of cavity l, as [k, l, i, j]
_MODE_BLOCKS = 8 * _CAVITY_MODES[:, None, :, None] + _CAVITY_MODES[None, :, None, :]
# inverse: flat index into the (2, 4, 4) stack [same-cavity block,
# cross-cavity block] of each entry of an exchange-symmetric 8x8 matrix
_FROM_BLOCKS = (
    16 * (_MODE_ORDER[:, None] // 4 != _MODE_ORDER[None, :] // 4)
    + 4 * (_MODE_ORDER[:, None] % 4)
    + _MODE_ORDER[None, :] % 4
)
_PLUS_MINUS = np.array([1.0, -1.0])[:, None, None]
_EYE4 = np.eye(4)


def _split_sectors(m: np.ndarray, name: str) -> np.ndarray:
    """(2, 4, 4) stack of the + and - collective-mode sectors of an
    exchange-symmetric 8x8 matrix; :class:`UnsupportedBranchError` if it is
    not exchange symmetric.

    In mode order the matrix is [[A, B], [B, A]]; in the (mode1 +- mode2)/sqrt2
    basis it is block diagonal with sectors A + B and A - B.  They are formed
    by exact addition and subtraction: a rotation by 1/sqrt2 would turn exact
    zeros into rounding noise.
    """
    blocks = m.take(_MODE_BLOCKS)
    if not (blocks[0] == blocks[1, ::-1]).all():
        raise UnsupportedBranchError(
            f"{name} matrix is not exchange symmetric (cavity 1 <-> 2); "
            "the collective-mode sector solve does not apply"
        )
    return blocks[0, 0] + _PLUS_MINUS * blocks[0, 1]


def solve_lyapunov(matrices: SystemMatrices) -> CovarianceState:
    """Solve W sigma + sigma W^T + R = 0 for the steady-state covariance.

    The two cavities are identical, so W and R are exchange symmetric and
    split exactly into the sectors of the collective modes (mode1 +- mode2)/sqrt2.
    Each sector's 4x4 equation is vectorized through the Kronecker identity
    into a 16x16 linear system; both are solved in one stacked pivoted LU
    call, and sigma is rebuilt from the sector covariances S+ and S- as
    (S+ + S-)/2 on the diagonal mode blocks and (S+ - S-)/2 off it.  Matrices
    are normalized by the fastest rate before solving, which keeps the
    systems well conditioned for gamma/kappa ratios down to 1e-4 (the
    covariance itself is dimensionless and unaffected by the rescaling).
    The asymmetry and residual gates act on the full 8x8 solution.

    Raises
    ------
    StabilityError
        If the drift is not strictly stable (no stationary state exists).
    UnsupportedBranchError
        If W or R is not exchange symmetric, so the sector split does not apply.
    PhysicalityError
        If the solve leaves an asymmetry or residual beyond 1e-10, or a
        residual that is not a number, which signals a numerically
        meaningless solution.
    """
    w = np.asarray(matrices.drift, dtype=float)
    r = np.asarray(matrices.noise, dtype=float)
    scale = _rate_scale(w)
    _require_stable(w, scale)
    if w.shape != (_N, _N) or r.shape != (_N, _N):
        raise ValueError(f"drift and noise must be 8x8, got {w.shape} and {r.shape}")
    wn = w / scale
    rn = r / scale
    w_sectors = _split_sectors(wn, "drift")
    r_sectors = _split_sectors(rn, "noise")

    # row-major vec(W S + S W^T) = (W (x) I + I (x) W) vec(S), built by
    # broadcasting: index (sector, a, b, c, d) -> row 4a + b, column 4c + d
    lhs = (
        w_sectors[:, :, None, :, None] * _EYE4[None, None, :, None, :]
        + _EYE4[None, :, None, :, None] * w_sectors[:, None, :, None, :]
    ).reshape(2, 16, 16)
    try:
        s_plus, s_minus = np.linalg.solve(lhs, -r_sectors.reshape(2, 16, 1)).reshape(2, 4, 4)
    except np.linalg.LinAlgError as exc:
        raise PhysicalityError(f"singular vectorized Lyapunov system: {exc}") from exc
    # (S+ + S-)/2 within one cavity's modes, (S+ - S-)/2 across the cavities
    sigma = (0.5 * (s_plus + _PLUS_MINUS * s_minus)).take(_FROM_BLOCKS)

    norm = float(np.abs(sigma).max())
    asym = float(np.abs(sigma - sigma.T).max())
    if norm > 0 and asym > _MAX_ASYMMETRY * norm:
        raise PhysicalityError(
            f"Lyapunov solution asymmetric beyond tolerance: {asym / norm:.3e} relative"
        )
    sigma = 0.5 * (sigma + sigma.T)

    residual = float(
        np.linalg.norm(wn @ sigma + sigma @ wn.T + rn) / np.linalg.norm(rn)
    )
    if not residual <= _MAX_RESIDUAL:   # a NaN residual fails too
        raise PhysicalityError(f"Lyapunov residual too large: {residual:.3e}")
    return CovarianceState(
        full=sigma, mechanical_block=sigma[:4, :4].copy(), residual=residual
    )


def write_matrix(matrix: np.ndarray, path) -> None:
    """Dump a matrix as plain text: one row per line, space separated,
    17 significant digits (for cross-tool comparison)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")
