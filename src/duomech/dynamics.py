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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicalityError, StabilityError, UnsupportedBranchError
from .params import DerivedParams

__all__ = [
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
    scale = 2.0 * float(np.abs(drift.diagonal()).max())
    if scale == 0.0:
        scale = max(float(np.max(np.abs(drift))), 1.0)
    return scale


def _eigenvalues(m11: complex, m12: complex, m21: complex,
                 m22: complex) -> tuple[complex, complex]:
    """Both eigenvalues of the complex 2x2 matrix [[m11, m12], [m21, m22]]:
    the one of larger modulus from the quadratic formula, the other as
    det / that one, so neither is a difference of nearly equal terms."""
    half_trace = 0.5 * (m11 + m22)
    half_gap = 0.5 * (m11 - m22)
    root = cmath.sqrt(half_gap * half_gap + m12 * m21)
    if (half_trace.conjugate() * root).real < 0.0:
        root = -root
    big = half_trace + root
    if big == 0.0:
        return 0j, 0j
    return big, (m11 * m22 - m12 * m21) / big


def check_stability(drift: np.ndarray) -> StabilityReport:
    """Classify the drift spectrum as stable/marginal/unstable.

    Stable iff max Re(eig) < -eps, marginal iff |max Re| <= eps, with the
    scale-aware tolerance eps = 1e-9 * max(gamma, kappa) (rates span several
    decades, so an absolute tolerance would be meaningless).  An 8x8 drift
    with the structure of :func:`_sector_drifts` has the spectrum of its two
    2x2 sector drifts M+- and their complex conjugates; any other matrix
    goes through ``np.linalg.eigvals``.
    """
    drift = np.asarray(drift, dtype=float)
    if drift.ndim != 2 or drift.shape[0] != drift.shape[1]:
        raise ValueError(f"drift must be square, got shape {drift.shape}")
    eps = 1e-9 * _rate_scale(drift)
    sectors = _sector_drifts(drift)
    parts = [] if sectors is None else [
        lam.real for m in sectors for lam in _eigenvalues(*m)
    ]
    # max() would pass over a NaN, so a non-finite drift goes to eigvals,
    # which refuses it
    if parts and math.isfinite(sum(parts)):
        max_real = max(parts)
    else:
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


def _require_stable(drift: np.ndarray) -> None:
    """Raise :class:`StabilityError` unless ``drift`` is strictly stable."""
    report = check_stability(drift)
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
# inverse: flat index into the (2, 4, 4) stack [same-cavity block,
# cross-cavity block] of each entry of an exchange-symmetric 8x8 matrix
_FROM_BLOCKS = (
    16 * (_MODE_ORDER[:, None] // 4 != _MODE_ORDER[None, :] // 4)
    + 4 * (_MODE_ORDER[:, None] % 4)
    + _MODE_ORDER[None, :] % 4
)
_PLUS_MINUS = np.array([1.0, -1.0])[:, None, None]

# flat index of the entry that swapping the cavities (1 <-> 2) moves to (i, j)
_SWAP = np.array([2, 3, 0, 1, 6, 7, 4, 5])
_EXCHANGED = 8 * _SWAP[:, None] + _SWAP[None, :]
# A drift that is exchange symmetric with every 2x2 block alpha I + beta J is
# fixed by rows 0 (q_b1) and 4 (q_c1), which hold the first row (alpha, beta)
# of each block.  Entry (i, j) equals _COVARIANT_SIGN[i, j] times the flat
# entry _COVARIANT[i, j]: in row 0 if i is a mechanical quadrature, row 4 if
# a cavity one; in the block of j's kind of mode in i's own cavity or in the
# other; at alpha on the 2x2 block diagonal, at beta off it, negated below it.
_I, _J = np.arange(8)[:, None], np.arange(8)[None, :]
_COVARIANT = 32 * (_I // 4) + 4 * (_J // 4) + 2 * ((_I // 2 + _J // 2) % 2) + (_I + _J) % 2
_COVARIANT_SIGN = np.where((_I % 2 == 1) & (_J % 2 == 0), -1.0, 1.0)
_DRIFT_ROWS = np.array([[0], [32]]) + np.arange(8)   # rows 0 and 4, flat
del _I, _J


def _noise_split_table() -> np.ndarray:
    """(16, 64) complex map from a flat exchange-symmetric noise matrix to the
    normal and anomalous parts of its sector blocks, as [sector][part][block].

    Any real 2x2 block (x11, x12, x21, x22) splits uniquely as
    p I + q J + Z (a I + b J) with Z = diag(1, -1); its normal part is
    p - i q = (x11 + x22)/2 + i (x21 - x12)/2 and its anomalous part is
    a - i b = (x11 - x22)/2 - i (x12 + x21)/2.  The sector blocks are the
    same-cavity block +- the cross-cavity one, read from cavity 1's rows.
    """
    split = np.array([[1.0, -1j, 1j, 1.0], [1.0, -1j, -1j, -1.0]]) / 2
    table = np.zeros((2, 2, 4, _N * _N), dtype=complex)
    for sector, sign in enumerate((1.0, -1.0)):
        for block in range(4):
            row, col = 4 * (block // 2), 4 * (block % 2)
            for cross, weight in ((0, 1.0), (2, sign)):
                for entry in range(4):
                    flat = 8 * (row + entry // 2) + col + cross + entry % 2
                    table[sector, :, block, flat] += weight * split[:, entry]
    return table.reshape(16, _N * _N)


_NOISE_SPLIT = _noise_split_table()


def _sector_drifts(w: np.ndarray) -> tuple[tuple[complex, ...], ...] | None:
    """The 2x2 complex drifts (M+, M-) of the collective-mode sectors, each as
    row-major (m11, m12, m21, m22) over the modes (b, c), or None unless the
    8x8 ``w`` is exchange symmetric with every 2x2 block alpha I + beta J.

    A block alpha I + beta J, J = [[0, 1], [-1, 0]], acts on q + iY as
    alpha - i beta.  In mode order the matrix is [[A, B], [B, A]], and the
    (mode1 +- mode2)/sqrt2 sectors are A +- B, formed by exact addition and
    subtraction.  For this model M+- = [[-gamma/2, G], [-G, -kappa/2 +- i lambda]].
    """
    if w.shape != (_N, _N) or not (w.take(_COVARIANT) * _COVARIANT_SIGN == w).all():
        return None
    (b0, b1, b2, b3, b4, b5, b6, b7), (c0, c1, c2, c3, c4, c5, c6, c7) = (
        w.take(_DRIFT_ROWS).tolist()
    )
    # same-cavity and cross-cavity (_x) blocks: mechanical rows, then cavity rows
    bb, bb_x, bc, bc_x = complex(b0, -b1), complex(b2, -b3), complex(b4, -b5), complex(b6, -b7)
    cb, cb_x, cc, cc_x = complex(c0, -c1), complex(c2, -c3), complex(c4, -c5), complex(c6, -c7)
    return ((bb + bb_x, bc + bc_x, cb + cb_x, cc + cc_x),
            (bb - bb_x, bc - bc_x, cb - cb_x, cc - cc_x))


def _sector_covariance(m: tuple[complex, ...], normal: list[complex],
                       anomalous: list[complex]) -> list[float]:
    """Row-major 4x4 real covariance of one sector, in (q_b, Y_b, q_c, Y_c)
    order, from its drift M and its normal and anomalous noise R_N, R_A.

    Since (alpha I + beta J) Z = Z (alpha I - beta J), the sector equation
    separates into M N + N M^dag = -R_N for the normal moments and
    conj(M) A + A M^dag = -R_A for the anomalous ones.  Both are
    L X + X M^dag = C, whose solution by Cayley-Hamilton is
    X = P^-1 (L C + C adj(M^dag)) with P = L^2 + tr(M^dag) L + det(M^dag) I.
    That gives P = 2 Re(tr M) M - 2i Im(det M) I for the normal moments and
    P = 2 conj(tr M) conj(M) for the anomalous ones; det P is the product of
    the sums of two eigenvalues of M or of conj(M), non-zero when M is stable.
    """
    m11, m12, m21, m22 = m
    trace = m11 + m22
    det = m11 * m22 - m12 * m21
    # H = adj(M^dag)
    h11, h12 = m22.conjugate(), -m21.conjugate()
    h21, h22 = -m12.conjugate(), m11.conjugate()

    r11, r12, r21, r22 = normal
    k11 = -(m11 * r11 + m12 * r21 + r11 * h11 + r12 * h21)
    k12 = -(m11 * r12 + m12 * r22 + r11 * h12 + r12 * h22)
    k21 = -(m21 * r11 + m22 * r21 + r21 * h11 + r22 * h21)
    k22 = -(m21 * r12 + m22 * r22 + r21 * h12 + r22 * h22)
    a, b = 2.0 * trace.real, -2j * det.imag
    p11, p12, p21, p22 = a * m11 + b, a * m12, a * m21, a * m22 + b
    det_p = p11 * p22 - p12 * p21
    n11 = (p22 * k11 - p12 * k21) / det_p
    n12 = (p22 * k12 - p12 * k22) / det_p
    n21 = (p11 * k21 - p21 * k11) / det_p
    n22 = (p11 * k22 - p21 * k12) / det_p

    # X = P^-1 (conj(M) C + C H) = (C + H^T C H / conj(det M)) / (2 conj(tr M))
    r11, r12, r21, r22 = anomalous
    g11, g12 = r11 * h11 + r12 * h21, r11 * h12 + r12 * h22
    g21, g22 = r21 * h11 + r22 * h21, r21 * h12 + r22 * h22
    inv_det = 1.0 / det.conjugate()
    inv_trace = -0.5 / trace.conjugate()
    a11 = (r11 + (h11 * g11 + h21 * g21) * inv_det) * inv_trace
    a12 = (r12 + (h11 * g12 + h21 * g22) * inv_det) * inv_trace
    a21 = (r21 + (h12 * g11 + h22 * g21) * inv_det) * inv_trace
    a22 = (r22 + (h12 * g12 + h22 * g22) * inv_det) * inv_trace

    # block N + Z A = [[Re(N + A), -Im(N + A)], [Im(N - A), Re(N - A)]]
    u11, u12, u21, u22 = n11 + a11, n12 + a12, n21 + a21, n22 + a22
    v11, v12, v21, v22 = n11 - a11, n12 - a12, n21 - a21, n22 - a22
    return [
        u11.real, -u11.imag, u12.real, -u12.imag,
        v11.imag, v11.real, v12.imag, v12.real,
        u21.real, -u21.imag, u22.real, -u22.imag,
        v21.imag, v21.real, v22.imag, v22.real,
    ]


def solve_lyapunov(matrices: SystemMatrices) -> CovarianceState:
    """Solve W sigma + sigma W^T + R = 0 for the steady-state covariance.

    The two cavities are identical and the model is phase covariant, so W
    splits exactly into the 2x2 complex drifts M+- of the collective modes
    (mode1 +- mode2)/sqrt2 (see :func:`_sector_drifts`), and R into each
    sector's normal and anomalous noise.  Each sector's 4x4 equation then
    becomes two 2x2 equations with explicit solutions (see
    :func:`_sector_covariance`), and sigma is rebuilt from the sector
    covariances S+ and S- as (S+ + S-)/2 on the diagonal mode blocks and
    (S+ - S-)/2 off it.  Matrices are normalized by the fastest rate before
    solving (the covariance itself is dimensionless and unaffected by the
    rescaling).  The asymmetry and residual gates act on the full 8x8
    solution.

    Raises
    ------
    StabilityError
        If the drift is not strictly stable (no stationary state exists).
    UnsupportedBranchError
        If W is not exchange symmetric with phase-covariant 2x2 blocks, or R
        is not exchange symmetric, so the sector solve does not apply.
    PhysicalityError
        If the solve leaves an asymmetry or residual beyond 1e-10, or a
        residual that is not a number, which signals a numerically
        meaningless solution.
    """
    w = np.asarray(matrices.drift, dtype=float)
    r = np.asarray(matrices.noise, dtype=float)
    _require_stable(w)
    scale = _rate_scale(w)
    if w.shape != (_N, _N) or r.shape != (_N, _N):
        raise ValueError(f"drift and noise must be 8x8, got {w.shape} and {r.shape}")
    wn = w / scale
    rn = r / scale
    drifts = _sector_drifts(wn)
    if drifts is None:
        raise UnsupportedBranchError(
            "drift matrix is not exchange symmetric (cavity 1 <-> 2) with "
            "2x2 blocks alpha I + beta J (phase covariant); the collective-mode "
            "sector solve does not apply"
        )
    if not (rn.take(_EXCHANGED) == rn).all():
        raise UnsupportedBranchError(
            "noise matrix is not exchange symmetric (cavity 1 <-> 2); "
            "the collective-mode sector solve does not apply"
        )
    noise = (_NOISE_SPLIT @ rn.ravel()).tolist()
    sectors = np.array(
        _sector_covariance(drifts[0], noise[0:4], noise[4:8])
        + _sector_covariance(drifts[1], noise[8:12], noise[12:16])
    ).reshape(2, 4, 4)
    # (S+ + S-)/2 within one cavity's modes, (S+ - S-)/2 across the cavities
    sigma = (0.5 * (sectors[0] + _PLUS_MINUS * sectors[1])).take(_FROM_BLOCKS)

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
