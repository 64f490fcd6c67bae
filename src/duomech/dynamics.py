"""Drift and noise matrices of the linearized fluctuation dynamics and the
steady-state covariance from the continuous Lyapunov equation.

Quadrature ordering (program-wide constant)::

    index  0      1      2      3      4      5      6      7
           q_b1   Y_b1   q_b2   Y_b2   q_c1   Y_c1   q_c2   Y_c2

b: mechanical modes, c: cavity modes, in the frame rotating at the
mechanical/cavity resonance (red-sideband, rotating-wave regime).
``_drift`` and ``_noise`` write this layout for W and R through their slot
tables, and the stability check decodes W, and ``solve_lyapunov`` R, by
rebuilding them (a sweep point, which built R itself, passes its weights
straight to the solve's kernel, ``_covariance_state``); ``_sigma_map``
writes the layout for sigma as a permutation of the mode order.
The solve assembles sigma from the distinct entries of one symmetric sector
covariance, so sigma is symmetric by construction.

Convention: vacuum quadrature variance is 1/2.  The covariance matrix sigma
of symmetric-ordered moments is physical iff every symplectic eigenvalue is
>= 1/2; the entanglement threshold for the partially transposed two-mode
block is nu_minus < 1/2.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

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


class SystemMatrices(NamedTuple):
    """Drift matrix W and stationary noise matrix R, both 8x8, rad/s units."""

    drift: np.ndarray
    noise: np.ndarray


class StabilityReport(NamedTuple):
    verdict: str        # "stable" | "marginal" | "unstable"
    max_real: float     # largest real part of the drift spectrum [rad/s]
    threshold: float    # scale-aware tolerance used for the verdict [rad/s]
    rates: tuple        # (gamma, kappa, G, lambda), read where _drift writes them

    @property
    def is_stable(self) -> bool:
        return self.verdict == "stable"


class CovarianceState(NamedTuple):
    """Steady-state covariance: full 8x8, exactly symmetric by construction,
    plus the mechanical 4x4 block.

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


def _noise_weights(derived: DerivedParams) -> tuple[float, float, float]:
    """R's three weights (gamma', kappa', M kappa) in :func:`_noise`'s order."""
    return derived.gamma_prime, derived.kappa_prime, derived.m_sq * derived.kappa


def build_noise(derived: DerivedParams) -> np.ndarray:
    """Assemble the 8x8 symmetric stationary noise matrix.

    Mechanical block gamma' I4; optical block kappa' on the diagonal with
    +/- M kappa cross-cavity entries from the two-mode squeezed input
    (positive for the q-q pair, negative for Y-Y).  Positive semidefinite
    since kappa'^2 - (M kappa)^2 = kappa^2/4 > 0.
    """
    return _noise(*_noise_weights(derived))


def system_matrices(derived: DerivedParams) -> SystemMatrices:
    return SystemMatrices(build_drift(derived), build_noise(derived))


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


def _unsupported(which: str) -> UnsupportedBranchError:
    return UnsupportedBranchError(
        f"{which} matrix is not exchange symmetric (cavity 1 <-> 2) or not of the "
        f"form build_{which} writes; the collective-mode sector solve does not apply")


def check_stability(drift: np.ndarray) -> StabilityReport:
    """Classify the drift spectrum as stable/marginal/unstable.

    Stable iff max Re(eig) < -eps, marginal iff |max Re| <= eps, with the
    scale-aware tolerance eps = 1e-9 * max(gamma, kappa) (rates span several
    decades, so an absolute tolerance would be meaningless).  The rates are
    read where :func:`_drift` writes them; a drift it does not rebuild from
    them exactly raises :class:`UnsupportedBranchError`, any other shape
    ``ValueError``.  The drift has the spectrum of the 2x2 sector drift M of
    its rates (see :func:`_collective_drift`), of conj(M) and of their
    complex conjugates, so its max Re eig is that of M alone; a spectrum
    that is not finite raises :class:`StabilityError`.
    """
    drift = np.asarray(drift, dtype=float)
    if drift.shape != (_N, _N):
        raise ValueError(f"drift must be 8x8, got shape {drift.shape}")
    rates = (-2.0 * drift.item(0, 0), -2.0 * drift.item(4, 4),
             drift.item(0, 4), drift.item(7, 4))
    # count_nonzero(!=) gives all(==)'s verdict, NaN included, at half the cost
    if np.count_nonzero(drift != _drift(*rates)):
        raise _unsupported("drift")
    scale = max(abs(rates[0]), abs(rates[1]))
    if scale == 0.0:
        scale = max(float(abs(drift).max()), 1.0)
    eps = 1e-9 * scale
    parts = [lam.real for lam in _eigenvalues(*_collective_drift(*rates))]
    # max() would pass over a NaN; the sum does not
    if not math.isfinite(sum(parts)):
        raise StabilityError(f"drift spectrum is not finite (rates {rates!r})")
    max_real = max(parts)
    if max_real < -eps:
        verdict = "stable"
    elif abs(max_real) <= eps:
        verdict = "marginal"
    else:
        verdict = "unstable"
    return StabilityReport(verdict, max_real, eps, rates)


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


_MAX_RESIDUAL = 1e-10


def _sigma_map() -> np.ndarray:
    """The 64x10 map from the distinct entries of S+, in the order
    :func:`_sector_covariance` returns them, to sigma, row major.  In mode
    order (b1, c1, b2, c2), sigma = 1/2 [[S+ + S-, S+ - S-], [S+ - S-, S+ + S-]],
    with S- = P S+ P, P the q <-> Y swap within each mode; column k is that
    formula applied to the k-th unit symmetric S+.  sigma_ij and sigma_ji
    read the same entries alike, so sigma is exactly symmetric.  A row holds
    +1/2 and +-1/2 in two columns, or their sum (1 or 0) in one where an
    entry and its q <-> Y swap are one, so its product with S+ rounds
    1/2 a +- 1/2 b at most once, in any summation order and with or without
    FMA: (a +- b) / 2 bit for bit, but for the sign of a zero and for
    subnormals.  A non-finite entry of S+ makes all of sigma NaN (0 * inf),
    which the residual gate refuses."""
    # The - sector has drift conj(M) and anomalous noise -M kappa, so its
    # moments are N- = conj(N+) and A- = -conj(A+), hence u- = N- + A- =
    # conj(v+) and v- = conj(u+), and each block [[Re u, -Im u], [Im v, Re v]]
    # of S- is the q <-> Y swap of that block of S+.  IEEE rounding is
    # symmetric and complex +, * and / commute exactly with negation and
    # conjugation, so S- = P S+ P is bit for bit what _sector_covariance
    # returns for conj(M) and -M kappa, signed zeros included.
    swap = [1, 0, 3, 2]
    # quadrature n sits at position mode_order[n] of the mode order, and
    # the permutation is its own inverse
    mode_order = [0, 1, 4, 5, 2, 3, 6, 7]
    unit, (rows, cols) = np.arange(10), np.triu_indices(4)
    plus = np.zeros((10, 4, 4))
    plus[unit, rows, cols] = plus[unit, cols, rows] = 1.0
    minus = plus[:, swap][:, :, swap]
    half_sum, half_diff = (plus + minus) / 2.0, (plus - minus) / 2.0
    sigma = np.block([[half_sum, half_diff], [half_diff, half_sum]])
    return np.ascontiguousarray(sigma[:, mode_order][:, :, mode_order].reshape(10, _N * _N).T)


_SIGMA_MAP = _sigma_map()


def _sector_covariance(m: tuple[complex, ...], gamma_prime: float,
                       kappa_prime: float, squeezing: float) -> list[float]:
    """The 10 distinct entries, upper triangle in row-major order, of the
    symmetric 4x4 real covariance S+ of the (mode1 + mode2)/sqrt2 sector, in
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

    # N is Hermitian and A symmetric: each moment the formulas give twice
    # is taken once, as the mean of its two solutions
    n11, n22 = n11.real, n22.real
    n12, a12 = 0.5 * (n12 + n21.conjugate()), 0.5 * (a12 + a21)
    # block N + Z A = [[Re(N + A), -Im(N + A)], [Im(N - A), Re(N - A)]]
    u11, u12, u22 = n11 + a11, n12 + a12, n22 + a22
    v11, v12, v22 = n11 - a11, n12 - a12, n22 - a22
    return [u11.real, -u11.imag, u12.real, -u12.imag,   # row q_b
            v11.real, v12.imag, v12.real,               # row Y_b
            u22.real, -u22.imag, v22.real]              # rows q_c, Y_c


def solve_lyapunov(matrices: SystemMatrices) -> CovarianceState:
    """Solve W sigma + sigma W^T + R = 0 for the steady-state covariance.

    The rates come from the report of :func:`check_stability`, and R's
    weights are accepted only if :func:`_noise` rebuilds R exactly.  The
    cavities are identical and the model phase covariant, so the collective
    modes (mode1 +- mode2)/sqrt2 decouple; :func:`_sector_covariance` solves
    the + sector over the fastest rate (sigma is dimensionless), and one
    product with ``_SIGMA_MAP`` (see :func:`_sigma_map`) assembles sigma from
    it, bit for bit and exactly symmetric.  The residual gate checks
    ||W sigma + sigma W^T + R||_F / ||R||_F on W and R as given.

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
        If the solve leaves a residual beyond 1e-10, or one that is not a
        number, which signals a numerically meaningless solution.
    """
    w = np.asarray(matrices.drift, dtype=float)
    r = np.asarray(matrices.noise, dtype=float)
    if w.shape != (_N, _N) or r.shape != (_N, _N):
        raise ValueError(f"drift and noise must be 8x8, got {w.shape} and {r.shape}")
    rates = _require_stable(w).rates
    weights = (r.item(0, 0), r.item(4, 4), r.item(4, 6))
    if np.count_nonzero(r != _noise(*weights)):
        raise _unsupported("noise")
    return _covariance_state(w, r, rates, weights)


def _covariance_state(w: np.ndarray, r: np.ndarray, rates: tuple,
                      weights: tuple) -> CovarianceState:
    """The steady state of the drift of ``rates`` (gamma, kappa, G, lambda),
    strictly stable, and the noise of ``weights`` (gamma', kappa', M kappa),
    with the residual gate of :func:`solve_lyapunov` on W and R as given;
    W and R must be the 8x8 that :func:`_drift` and :func:`_noise` write
    from them."""
    gamma, kappa, coupling, lam = rates
    scale = max(abs(gamma), abs(kappa))  # > 0: W is stable, so gamma + kappa > 0
    noise = (weights[0] / scale, weights[1] / scale, weights[2] / scale)
    sigma = np.dot(_SIGMA_MAP, np.array(_sector_covariance(
        _collective_drift(gamma / scale, kappa / scale, coupling / scale, lam / scale), *noise
    ))).reshape(_N, _N)

    # sigma is exactly symmetric, so sigma W^T is (W sigma)^T.  Both norms
    # are taken over the fastest rate, as the sector solve's inputs are, and
    # by hypot, which does not overflow where the squares would (entries past
    # about 1e154).  R holds each of its three weights at four entries.  A
    # zero R (sigma = 0) leaves 0/0, which fails the gate as NaN
    flux = np.dot(w, sigma)
    excess = flux + flux.T
    excess += r
    excess /= scale
    noise_norm = 2.0 * math.hypot(*noise)
    residual = (math.hypot(*excess.ravel().tolist()) / noise_norm
                if noise_norm else math.nan)
    if not residual <= _MAX_RESIDUAL:   # a NaN residual fails too
        raise PhysicalityError(f"Lyapunov residual too large: {residual:.3e}")
    return CovarianceState(sigma, sigma[:4, :4].copy(), residual)


def write_matrix(matrix: np.ndarray, path) -> None:
    """Dump a matrix as plain text: one row per line, space separated,
    17 significant digits (for cross-tool comparison)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")
