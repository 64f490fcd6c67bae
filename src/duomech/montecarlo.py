"""Stochastic-trajectory oracle for the steady-state covariance.

The linearized quadrature dynamics du = W u dt + d.eta is integrated with
the Euler-Maruyama scheme (exact enough here: the system is linear with
additive noise, so the only discretization effect is an O(dt) bias in the
stationary second moments, of order rate*dt/2 relative -- about 0.25% on
the fast optical entries at the default step and ~30x less on the slow
mechanical block; at very deep sampling the ensemble error becomes tight
enough to resolve that bias on optical entries).  Because the dynamics is
linear and the noise
matrix R is defined as the symmetric-ordered correlation of the input
operators, the classical ensemble covariance of these trajectories equals
the symmetric-ordered quantum covariance; that equivalence is what makes
this module a valid independent check of the Lyapunov solution.

The oracle takes the rates (gamma, kappa, G, lambda) from the stability
check's report, which refuses a drift that ``build_drift`` does not write,
and refuses a gamma or kappa that is not finite and positive as a
``ConfigError``.  Time runs in units of 1/kappa
internally; configuration durations are expressed in those units.  The
generator is numpy's PCG64, seeded explicitly, and the comparison CSV
names it for reproducibility.

Each Euler step is the linear recursion u <- S u + xi, with S = I + W dt
and xi = L z the noise increment.  The ensemble is stepped in blocks of n
steps (256 for 128 trajectories), and each block evaluates the recursion as
a two-level prefix scan over c chunks of s = isqrt(n) steps:

1. the block's normals z are drawn from the one stream, in step order, and
   mixed into increments xi laid out step-in-chunk first, so step j of every
   chunk is one (c n_traj) x dim matrix;
2. a local pass runs every chunk from a zero state at once (s - 1 matrix
   products);
3. a carry pass takes the state across the chunk ends with S^s (c products);
4. in the sampling phase only, a fix-up pass adds S^(j + 1) times its
   chunk's start state to step j of each chunk, and the block's states enter
   the time averages.  Burn-in needs nothing but the carried state.

That is about 100 numpy calls for a 256-step block, where stepping one step
at a time takes about 520.  Burn-in and sampling are two phases of one loop,
so no block straddles the end of burn-in.  Two buffers of about 2 MiB are
reused whatever the run length, so the working set stays in cache: one
takes the normals and, once they are mixed in, the scan's scratch; the
other takes the increments and then the states.  Neither blocking nor the
scan changes the random stream, so the estimate depends on the block size
only through rounding.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import CovarianceState, SystemMatrices, _require_stable
from .errors import ConfigError, PhysicalityError
from .sweep import _write_table

__all__ = [
    "SdeConfig",
    "McEstimate",
    "McComparison",
    "integrate_steady_covariance",
    "compare_to_lyapunov",
    "write_comparison_csv",
]

RNG_ALGORITHM = "PCG64"
_BUFFER_BYTES = 2 << 20     # per block buffer: the working set stays in cache
_DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class SdeConfig:
    """Integration settings; durations in units of 1/kappa.

    ``burn_in`` and ``sample_duration`` default (when None) to 20/gamma and
    200/gamma respectively, gamma being the slowest relaxation rate of the
    system.  128 trajectories put the ensemble standard error near 0.5% of
    the covariance scale at the default durations, comfortably inside the
    validation tolerances.
    """

    dt: float = 0.005
    burn_in: float | None = None
    sample_duration: float | None = None
    n_trajectories: int = 128
    seed: int = 7

    def __post_init__(self) -> None:
        for name, kind in (("dt", numbers.Real), ("burn_in", numbers.Real),
                           ("sample_duration", numbers.Real),
                           ("n_trajectories", numbers.Integral),
                           ("seed", numbers.Integral)):
            value = getattr(self, name)
            if value is None and name in ("burn_in", "sample_duration"):
                continue
            # a bool is a number to Python, but seed=True is no seed
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "an integer" if kind is numbers.Integral else "a real number"
                raise ConfigError(f"{name} must be {noun}, got {value!r}")
            if kind is numbers.Real and not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")
        if self.n_trajectories < 2:
            # one trajectory has no standard error, so no verdict
            raise ConfigError(
                f"n_trajectories must be >= 2, got {self.n_trajectories!r}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class McEstimate:
    """Ensemble estimate of the steady-state covariance.

    ``std_error`` is the per-entry standard error of the mean across
    trajectories (each trajectory contributes one time-averaged covariance,
    so autocorrelation within a trajectory is accounted for).
    """

    cov_estimate: np.ndarray
    std_error: np.ndarray
    n_samples: int
    config: SdeConfig


def _noise_factor(noise: np.ndarray) -> np.ndarray:
    """Lower-triangular-ish factor L with L L^T = R, tolerating a PSD matrix
    whose smallest eigenvalues sit at rounding level."""
    noise = np.asarray(noise, dtype=float)
    try:
        return np.linalg.cholesky(noise)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(noise)
        floor = -1e-12 * max(float(eigvals.max()), 1.0)
        if eigvals.min() < floor:
            raise PhysicalityError(
                f"noise matrix is not positive semidefinite "
                f"(min eigenvalue {eigvals.min()!r})"
            ) from None
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _resolve_durations(config: SdeConfig, gamma_n: float, coupling_n: float,
                       lambda_n: float) -> tuple[int, int, float]:
    """Validate and convert durations to step counts (rates in kappa units);
    also return the slowest rate, min(gamma, kappa)."""
    fastest = max(1.0, gamma_n, coupling_n, lambda_n)
    if config.dt > 0.01 / fastest:
        raise ConfigError(
            f"dt = {config.dt!r} too coarse: must be <= 0.01/max rate "
            f"= {0.01 / fastest!r} (units of 1/kappa)"
        )
    slowest = min(gamma_n, 1.0)
    burn = 20.0 / gamma_n if config.burn_in is None else config.burn_in
    if burn < 10.0 / slowest:
        raise ConfigError(
            f"burn_in = {burn!r} shorter than 10/min(gamma, kappa) "
            f"= {10.0 / slowest!r} (units of 1/kappa)"
        )
    duration = 200.0 / gamma_n if config.sample_duration is None else config.sample_duration
    return int(round(burn / config.dt)), max(int(round(duration / config.dt)), 1), slowest


def integrate_steady_covariance(matrices: SystemMatrices,
                                config: SdeConfig | None = None) -> McEstimate:
    """Estimate the stationary covariance from an Euler-Maruyama ensemble.

    Steps u <- u + W u dt + d.eta for ``n_trajectories`` in parallel over one
    random stream; the first ``n_burn`` steps are burn-in, every later step
    contributes to a per-trajectory time average of the outer product.  The
    steps are taken as a blocked scan (see the module docstring), burn-in and
    sampling as two phases of the loop over blocks, through two reused block
    buffers; the divergence detector checks the carried state at the end of
    every block.  Deterministic for a fixed config (including seed).
    """
    if config is None:
        config = SdeConfig()
    w = np.asarray(matrices.drift, dtype=float)
    r = np.asarray(matrices.noise, dtype=float)
    gamma, kappa, coupling, lam = rates = _require_stable(w).rates
    if not all(math.isfinite(x) and x > 0.0 for x in (gamma, kappa)):
        raise ConfigError(
            "the trajectory oracle integrates only finite positive gamma and "
            f"kappa (decoded rates: {rates!r})"
        )
    wn = w / kappa
    rn = r / kappa
    n_burn, n_sample, slowest = _resolve_durations(
        config, gamma / kappa, abs(coupling) / kappa, abs(lam) / kappa
    )

    dim = w.shape[0]
    n_traj = config.n_trajectories
    stepper = np.eye(dim) + wn * config.dt
    noise_step = _noise_factor(rn) * math.sqrt(config.dt)

    # crude stationary-scale bound for the divergence detector
    scale_bound = math.sqrt(float(np.trace(rn)) / slowest) + 1.0
    limit = _DIVERGENCE_FACTOR * scale_bound

    rng = np.random.Generator(np.random.PCG64(config.seed))
    block = max(1, min(_BUFFER_BYTES // (8 * n_traj * dim), n_burn + n_sample))
    # draws holds a block's normal draws and, once they are mixed into path,
    # the scan's scratch; path holds the block's noise increments, then the
    # states they drive
    draws = np.empty((block, n_traj, dim))
    path = np.empty_like(draws)
    noise_t = np.ascontiguousarray(noise_step.T)
    # powers_t[j] = (S^(j + 1))^T, S the Euler step, for chunks of up to
    # isqrt(block) steps
    powers_t = np.empty((math.isqrt(block), dim, dim))
    powers_t[0] = stepper.T
    for j in range(1, len(powers_t)):
        np.matmul(powers_t[j - 1], powers_t[0], out=powers_t[j])
    u = np.zeros((n_traj, dim))                      # the state carried between blocks
    acc = np.zeros((n_traj, dim, dim))
    for first, end, sampling in ((0, n_burn, False), (n_burn, n_burn + n_sample, True)):
        for start in range(first, end, block):
            n = min(block, end - start)
            s = math.isqrt(n)                        # steps per chunk
            c = n // s                               # chunks; n - c s < s steps are left over
            scanned = c * s
            rng.standard_normal(out=draws[:n])
            # x[j, i] is step i s + j of the block: each x[j] is one
            # (c n_traj) x dim matrix
            x = path[:scanned].reshape(s, c * n_traj, dim)
            np.matmul(draws[:scanned].reshape(c, s, n_traj, dim), noise_t,
                      out=x.reshape(s, c, n_traj, dim).transpose(1, 0, 2, 3))
            np.matmul(draws[scanned:n], noise_t, out=path[scanned:n])
            # draws is free from here on
            tmp = draws[:c].reshape(c * n_traj, dim)
            # local pass: every chunk from a zero state at once
            for prev, row in zip(x[:-1], x[1:]):
                row += np.matmul(prev, powers_t[0], out=tmp)
            # carry pass: chunk i ends in x[s - 1, i] + S^s (state before it)
            ends = x[-1].reshape(c, n_traj, dim)
            state = u
            for end_state in ends:
                end_state += np.matmul(state, powers_t[s - 1], out=tmp[:n_traj])
                state = end_state
            for row in path[scanned:n]:              # left-over steps, one at a time
                row += np.matmul(state, powers_t[0], out=tmp[:n_traj])
                state = row
            if sampling:
                # fix-up pass: step j of chunk i gains S^(j + 1) (state before
                # it); with s = 1 there is nothing to fix up
                if s > 1:
                    starts = draws[c:2 * c].reshape(c * n_traj, dim)
                    starts[:n_traj] = u
                    starts[n_traj:] = ends[:-1].reshape(-1, dim)
                    for j, row in enumerate(x[:-1]):
                        row += np.matmul(starts, powers_t[j], out=tmp)
                sampled = path[:n]
                acc += sampled.transpose(1, 2, 0) @ sampled.transpose(1, 0, 2)
            u[...] = state                           # the next block reuses path
            if not np.all(np.abs(u) < limit):
                raise PhysicalityError(
                    f"trajectory diverged: |u| exceeded {limit:.3e} "
                    f"(expected scale {scale_bound:.3e})"
                )

    per_traj = acc / n_sample
    per_traj = 0.5 * (per_traj + per_traj.transpose(0, 2, 1))
    return McEstimate(
        cov_estimate=per_traj.mean(axis=0),
        std_error=per_traj.std(axis=0, ddof=1) / math.sqrt(n_traj),
        n_samples=n_traj * n_sample,
        config=config,
    )


@dataclass(frozen=True)
class McComparison:
    """Entry-wise comparison of an ensemble estimate to the exact covariance."""

    z_scores: np.ndarray
    rel_dev: np.ndarray          # NaN where the exact entry has no usable scale
    max_abs_z: float
    n_unique_above_3se: int
    max_dev_of_scale: float      # max |deviation| / max |diagonal entry|
    passed: bool


def compare_to_lyapunov(mc: McEstimate, exact: CovarianceState) -> McComparison:
    """Per-entry z-scores and relative deviations against the exact solve.

    Passes when every unique entry sits within 4 standard errors and at most
    2 of the 36 unique entries exceed 3 standard errors.  Relative deviation
    is reported for entries whose exact magnitude is above 1e-6 of the
    covariance scale; exactly-zero entries have no relative scale and are
    judged by their z-scores alone.
    """
    sigma = exact.full
    dev = mc.cov_estimate - sigma
    se = mc.std_error
    z = np.zeros_like(dev)
    nonzero_se = se > 0
    z[nonzero_se] = dev[nonzero_se] / se[nonzero_se]
    z[~nonzero_se & (dev != 0.0)] = np.inf

    scale = float(np.max(np.abs(np.diag(sigma))))
    usable = np.abs(sigma) > 1e-6 * scale
    rel = np.full_like(dev, np.nan)
    rel[usable] = np.abs(dev[usable]) / np.abs(sigma[usable])

    iu = np.triu_indices(sigma.shape[0])
    z_unique = np.abs(z[iu])
    n_above3 = int(np.count_nonzero(z_unique > 3.0))
    max_abs_z = float(z_unique.max())
    passed = bool(max_abs_z <= 4.0 and n_above3 <= 2)
    return McComparison(
        z_scores=z,
        rel_dev=rel,
        max_abs_z=max_abs_z,
        n_unique_above_3se=n_above3,
        max_dev_of_scale=float(np.max(np.abs(dev))) / scale,
        passed=passed,
    )


def write_comparison_csv(comparison: McComparison, mc: McEstimate,
                         exact: CovarianceState, path) -> None:
    """One row per unique covariance entry; ``rel_dev`` is empty where the
    exact entry has no relative scale (see :func:`compare_to_lyapunov`)."""
    cfg = mc.config
    dim = exact.full.shape[0]
    _write_table(path, [
        f"rng={RNG_ALGORITHM} seed={cfg.seed}",
        f"dt={cfg.dt:.17g} n_trajectories={cfg.n_trajectories} n_samples={mc.n_samples}",
        f"passed={str(comparison.passed).lower()} max_abs_z={comparison.max_abs_z:.17g} "
        f"n_unique_above_3se={comparison.n_unique_above_3se}",
    ], ("i", "j", "exact", "estimate", "std_error", "z", "rel_dev"), [
        (i, j, exact.full[i, j], mc.cov_estimate[i, j], mc.std_error[i, j],
         comparison.z_scores[i, j],
         None if np.isnan(comparison.rel_dev[i, j]) else comparison.rel_dev[i, j])
        for i in range(dim) for j in range(i, dim)
    ])
