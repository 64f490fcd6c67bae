"""Drift and noise matrices of the linearized fluctuation dynamics and the
steady-state covariance from the continuous Lyapunov equation.

Quadrature ordering (program-wide constant)::

    index  0      1      2      3      4      5      6      7
           q_b1   Y_b1   q_b2   Y_b2   q_c1   Y_c1   q_c2   Y_c2

b: mechanical modes, c: cavity modes, in the frame rotating at the
mechanical/cavity resonance (red-sideband, rotating-wave regime).
``_drift`` and ``_noise``, through their slot tables, are the one place this
layout is written; the stability check decodes W, and the solve R, by
rebuilding them.

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
    rates: tuple | None # (gamma, kappa, G, lambda) if _drift rebuilds W from them

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


# W = (0, -gamma/2, G, -G, -kappa/2, -lambda, lambda)[_DRIFT_SLOTS] and
# R = (0, gamma', kappa', M kappa, -M kappa)[_NOISE_SLOTS]
_DRIFT_SLOTS = np.array([
    [1, 0, 0, 0, 2, 0, 0, 0],
    [0, 1, 0, 0, 0, 2, 0, 0],
    [0, 0, 1, 0, 0, 0, 2, 0],
    [0, 0, 0, 1, 0, 0, 0, 2],
    [3, 0, 0, 0, 4, 0, 0, 5],
    [0, 3, 0, 0, 0, 4, 6, 0],
    [0, 0, 3, 0, 0, 5, 4, 0],
    [0, 0, 0, 3, 6, 0, 0, 4],
])
_NOISE_SLOTS = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 2, 0, 3, 0],
    [0, 0, 0, 0, 0, 2, 0, 4],
    [0, 0, 0, 0, 3, 0, 2, 0],
    [0, 0, 0, 0, 0, 4, 0, 2],
])


def _drift(gamma: float, kappa: float, coupling: float, lam: float) -> np.ndarray:
    """The one description of where each rate sits in the drift W."""
    return np.array(
        (0.0, -gamma / 2.0, coupling, -coupling, -kappa / 2.0, -lam, lam)
    ).take(_DRIFT_SLOTS)


def _noise(gamma_prime: float, kappa_prime: float, m_kappa: float) -> np.ndarray:
    """The one description of where each noise weight sits in R."""
    return np.array((0.0, gamma_prime, kappa_prime, m_kappa, -m_kappa)).take(_NOISE_SLOTS)


def build_drift(derived: DerivedParams) -> np.ndarray:
    """Assemble the 8x8 drift matrix.

    Mechanical damping -gamma/2 and cavity damping -kappa/2 on the diagonal;
    beam-splitter coupling +G in the mechanical rows, -G in the cavity rows;
    photon hopping enters the cavity block antisymmetrically, rotating the
    two cavity quadrature planes in opposite senses.
    """
    return _drift(derived.gamma, derived.kappa, derived.coupling, derived.hopping_lambda)


def build_noise(derived: DerivedParams) -> np.ndarray:
    """Assemble the 8x8 symmetric stationary noise matrix.

    Mechanical block gamma' I4; optical block kappa' on the diagonal with
    +/- M kappa cross-cavity entries from the two-mode squeezed input
    (positive for the q-q pair, negative for Y-Y).  Positive semidefinite
    since kappa'^2 - (M kappa)^2 = kappa^2/4 > 0.
    """
    return _noise(derived.gamma_prime, derived.kappa_prime, derived.m_sq * derived.kappa)


def system_matrices(derived: DerivedParams) -> SystemMatrices:
    return SystemMatrices(drift=build_drift(derived), noise=build_noise(derived))


def _collective_drift(gamma: float, kappa: float, coupling: float, lam: float) -> tuple:
    """Row-major 2x2 complex drift M = [[-gamma/2, G], [-G, -kappa/2 + i lambda]]
    over the modes (b, c) of the collective-mode sector (mode1 + mode2)/sqrt2.
    The sector (mode1 - mode2)/sqrt2 has drift conj(M)."""
    return (-gamma / 2.0, coupling, -coupling, complex(-kappa / 2.0, lam))


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
    decades, so an absolute tolerance would be meaningless).  The report
    keeps the rates read where :func:`_drift` writes them if it rebuilds the
    drift from them exactly.  Such a drift has the spectrum of the 2x2
    sector drift M of its rates (see :func:`_collective_drift`), of conj(M)
    and of their complex conjugates, so its max Re eig is that of M alone;
    any other matrix goes through ``np.linalg.eigvals``.
    """
    drift = np.asarray(drift, dtype=float)
    if drift.ndim != 2 or drift.shape[0] != drift.shape[1]:
        raise ValueError(f"drift must be square, got shape {drift.shape}")
    rates = None
    if drift.shape == (_N, _N):
        rates = (-2.0 * drift.item(0, 0), -2.0 * drift.item(4, 4),
                 drift.item(0, 4), drift.item(7, 4))
        rates = rates if (drift == _drift(*rates)).all() else None
    # the diagonal carries -gamma/2 and -kappa/2, so this is max(gamma, kappa)
    if rates is None:
        scale = 2.0 * float(abs(drift.diagonal()).max())
    else:
        scale = max(abs(rates[0]), abs(rates[1]))
    if scale == 0.0:
        scale = max(float(abs(drift).max()), 1.0)
    eps = 1e-9 * scale
    parts = [] if rates is None else [
        lam.real for lam in _eigenvalues(*_collective_drift(*rates))
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
    return StabilityReport(verdict=verdict, max_real=max_real, threshold=eps, rates=rates)


def _require_stable(drift: np.ndarray) -> StabilityReport:
    """The stability report of ``drift``; raise :class:`StabilityError`
    unless it is strictly stable."""
    report = check_stability(drift)
    if not report.is_stable:
        raise StabilityError(
            f"drift matrix is {report.verdict} "
            f"(max Re eig = {report.max_real:.6e} rad/s, "
            f"threshold {report.threshold:.1e} rad/s); no steady state"
        )
    return report


_MAX_ASYMMETRY = 1e-10
_MAX_RESIDUAL = 1e-10

# Quadratures in mode order: the modes (b1, c1) of cavity 1, then (b2, c2).
# The permutation is its own inverse: quadrature n sits at position
# _MODE_ORDER[n].
_MODE_ORDER = np.array([0, 1, 4, 5, 2, 3, 6, 7])
# flat index into the row-major 4x4 (q_b, Y_b, q_c, Y_c) covariance of the
# + sector of each entry of the - sector: P S+ P, where P swaps q and Y
# within each mode.  The - sector has drift conj(M) and anomalous noise
# -M kappa, so its moments are N- = conj(N+) and A- = -conj(A+), hence
# u- = N- + A- = conj(v+) and v- = conj(u+), and each block
# [[Re u, -Im u], [Im v, Re v]] of S- is the q <-> Y swap of that block of
# S+.  IEEE rounding is symmetric and complex +, * and / commute exactly
# with negation and conjugation, so this is bit for bit what
# _sector_covariance returns for conj(M) and -M kappa, signed zeros included.
_SWAP_QY = np.array([1, 0, 3, 2])
_MINUS_FROM_PLUS = 4 * _SWAP_QY[:, None] + _SWAP_QY[None, :]
# sigma = ((S+)[_SIGMA_PLUS] + _SIGMA_SIGN (S+)[_SIGMA_MINUS]) / 2: for each
# entry of sigma, the entry of S+ and of S- it is the half sum (within one
# cavity's modes) or the half difference (across the cavities) of
_SIGMA_PLUS = 4 * (_MODE_ORDER[:, None] % 4) + _MODE_ORDER[None, :] % 4
_SIGMA_MINUS = _MINUS_FROM_PLUS.ravel()[_SIGMA_PLUS]
_SIGMA_SIGN = np.where(_MODE_ORDER[:, None] // 4 == _MODE_ORDER[None, :] // 4, 1.0, -1.0)


def _sector_covariance(m: tuple[complex, ...], gamma_prime: float,
                       kappa_prime: float, squeezing: float) -> list[float]:
    """Row-major 4x4 real covariance of the (mode1 + mode2)/sqrt2 sector, in
    (q_b, Y_b, q_c, Y_c) order, from its drift M (see
    :func:`_collective_drift`), its normal noise R_N = diag(gamma', kappa')
    and its anomalous noise R_A = diag(0, M kappa) (``squeezing``).

    Since (alpha I + beta J) Z = Z (alpha I - beta J), the sector equation
    separates into M N + N M^dag = -R_N for the normal moments and
    conj(M) A + A M^dag = -R_A for the anomalous ones.  Both are
    L X + X M^dag = C, whose solution by Cayley-Hamilton is
    X = P^-1 (L C + C adj(M^dag)) with P = L^2 + tr(M^dag) L + det(M^dag) I.
    That gives P = 2 Re(tr M) M - 2i Im(det M) I for the normal moments and
    P = 2 conj(tr M) conj(M) for the anomalous ones; det P is the product of
    the sums of two eigenvalues of M or of conj(M), non-zero when M is stable.
    Terms of the zero entries of R_N and R_A are left out.
    """
    m11, m12, m21, m22 = m
    trace = m11 + m22
    det = m11 * m22 - m12 * m21
    # H = adj(M^dag)
    h11, h12 = m22.conjugate(), -m21.conjugate()
    h21, h22 = -m12.conjugate(), m11.conjugate()

    k11 = -(m11 * gamma_prime + gamma_prime * h11)
    k12 = -(m12 * kappa_prime + gamma_prime * h12)
    k21 = -(m21 * gamma_prime + kappa_prime * h21)
    k22 = -(m22 * kappa_prime + kappa_prime * h22)
    a, b = 2.0 * trace.real, -2j * det.imag
    p11, p12, p21, p22 = a * m11 + b, a * m12, a * m21, a * m22 + b
    det_p = p11 * p22 - p12 * p21
    n11 = (p22 * k11 - p12 * k21) / det_p
    n12 = (p22 * k12 - p12 * k22) / det_p
    n21 = (p11 * k21 - p21 * k11) / det_p
    n22 = (p11 * k22 - p21 * k12) / det_p

    # X = P^-1 (conj(M) C + C H) = (C + H^T C H / conj(det M)) / (2 conj(tr M));
    # C H has one non-zero row (g1, g2)
    g1, g2 = squeezing * h21, squeezing * h22
    inv_det = 1.0 / det.conjugate()
    inv_trace = -0.5 / trace.conjugate()
    a11 = h21 * g1 * inv_det * inv_trace
    a12 = h21 * g2 * inv_det * inv_trace
    a21 = h22 * g1 * inv_det * inv_trace
    a22 = (squeezing + h22 * g2 * inv_det) * inv_trace

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

    The rates come from the report of :func:`check_stability`, and R's
    weights are accepted only if :func:`_noise` rebuilds R exactly.  The
    cavities are identical and the model phase covariant, so the collective
    modes (mode1 +- mode2)/sqrt2 decouple: the + sector has drift M (see
    :func:`_collective_drift`), normal noise diag(gamma', kappa') and
    anomalous noise M kappa, the - sector drift conj(M) and anomalous noise
    -M kappa.  The + sector's 4x4 equation becomes two 2x2 equations with
    explicit solutions (see :func:`_sector_covariance`); the - sector's
    covariance S- is S+ with q and Y swapped within each mode, exactly.
    sigma is (S+ + S-)/2 on the diagonal mode blocks and (S+ - S-)/2 off it.
    Matrices are normalized by the fastest rate before solving (sigma is
    dimensionless).  The asymmetry and residual gates act on the full 8x8
    solution.

    Raises
    ------
    ValueError
        If W or R is not 8x8.
    StabilityError
        If the drift is not strictly stable (no stationary state exists).
    UnsupportedBranchError
        If W or R is not of the form the model's builders write, so the
        sector solve does not apply.
    PhysicalityError
        If the solve leaves an asymmetry or residual beyond 1e-10, or a
        residual that is not a number, which signals a numerically
        meaningless solution.
    """
    w = np.asarray(matrices.drift, dtype=float)
    r = np.asarray(matrices.noise, dtype=float)
    if w.shape != (_N, _N) or r.shape != (_N, _N):
        raise ValueError(f"drift and noise must be 8x8, got {w.shape} and {r.shape}")
    rates = _require_stable(w).rates
    weights = (r.item(0, 0), r.item(4, 4), r.item(4, 6))
    if rates is None or not (r == _noise(*weights)).all():
        which = "drift" if rates is None else "noise"
        raise UnsupportedBranchError(
            f"{which} matrix is not exchange symmetric (cavity 1 <-> 2) or not of the "
            f"form build_{which} writes; the collective-mode sector solve does not apply"
        )
    scale = max(abs(rates[0]), abs(rates[1]))  # > 0: W is stable, so gamma + kappa > 0
    wn = w / scale
    rn = r / scale
    gamma, kappa, coupling, lam = rates
    gamma_prime, kappa_prime, m_kappa = weights
    plus = np.array(_sector_covariance(
        _collective_drift(gamma / scale, kappa / scale, coupling / scale, lam / scale),
        gamma_prime / scale, kappa_prime / scale, m_kappa / scale,
    ))
    sigma = (plus.take(_SIGMA_PLUS) + _SIGMA_SIGN * plus.take(_SIGMA_MINUS)) * 0.5

    norm = float(abs(sigma).max())
    asym = float(abs(sigma - sigma.T).max())
    if norm > 0 and asym > _MAX_ASYMMETRY * norm:
        raise PhysicalityError(
            f"Lyapunov solution asymmetric beyond tolerance: {asym / norm:.3e} relative"
        )
    sigma = 0.5 * (sigma + sigma.T)

    # sigma is exactly symmetric, so sigma Wn^T is (Wn sigma)^T; numpy
    # divides, so a zero R gives a NaN residual, not a ZeroDivisionError
    flux = wn @ sigma
    excess = flux + flux.T + rn
    residual = float(math.sqrt(np.vdot(excess, excess)) / np.sqrt(np.vdot(rn, rn)))
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
