"""Host-speed calibration of the end-to-end timings.

On a shared virtual machine the CPU time of fixed work drifts by 20-50 % in
regimes of seconds to minutes, longer than a run: other guests share the
core and its caches.  A median within a run cannot remove drift that slow,
so the runner interleaves the workload's operations with calibrations.  A
calibration is the median CPU time of ``REPS`` runs of a fixed kernel that
does the same kind of work as the workload: the small linear algebra and
float formatting of a sweep point for the sweeps and searches, a block of
random trajectories for the integrator.  It is taken after the first operation
that ends at least ``EVERY_S`` of CPU time after the previous calibration.
Each operation's CPU time is scaled by ``REF_S`` over the mean of the
calibrations just before and just after it, so it reads as CPU time on a
host where the kernel takes ``REF_S``.  The kernels are the benchmark's own
code: a change to duomech moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import bisect
import statistics

import numpy as np

from workloads import clock

REPS = 5
EVERY_S = 0.5
REF_S = 0.010
_MATRIX = np.arange(64.0).reshape(8, 8) % 7.0 - 8.0 * np.eye(8)
_EYE = np.eye(8)
_OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_COV = np.eye(4) + 0.1 * np.ones((4, 4))
_STEPPER = np.eye(8) - 0.005 * np.eye(8)


def _point_kernel() -> None:
    """The shape of one sweep point's work, on fixed matrices: a Kronecker
    64x64 solve with its residual, an 8x8 and a complex 4x4 eigenvalue
    problem, 2x2 and 4x4 determinants, and a CSV row of 17-digit floats."""
    total = 0.0
    for _ in range(40):
        lhs = np.kron(_EYE, _MATRIX) + np.kron(_MATRIX, _EYE)
        sigma = np.linalg.solve(lhs, -_MATRIX.reshape(-1)).reshape(8, 8)
        total += float(np.linalg.norm(_MATRIX @ sigma + sigma @ _MATRIX.T))
        total += float(np.linalg.eigvals(_MATRIX).real.max())
        total += float(np.linalg.eigvals(1j * _OMEGA @ _COV).real.sum())
        total += sum(float(np.linalg.det(_COV[k:k + 2, k:k + 2])) for k in (0, 2))
        total += float(np.linalg.det(_COV))
        total += len(",".join(format(float(x), ".17g") for x in sigma[0]))


def _ensemble_kernel() -> None:
    """Normal variates for a 4 MB block of 128 eight-dimensional
    trajectories, mixed through an 8x8 matrix and stepped: an integrator
    block's work."""
    rng = np.random.Generator(np.random.PCG64(0))
    z = rng.standard_normal((512, 128, 8)) @ _MATRIX.T
    u = np.zeros((128, 8))
    for k in range(100):
        u = u @ _STEPPER.T + z[k]


KERNELS = {"point": _point_kernel, "ensemble": _ensemble_kernel}


def calibrate(kind: str) -> float:
    """Median CPU time [s] of ``REPS`` runs of the ``kind`` kernel."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(REPS):
        start = clock()
        kernel()
        times.append(clock() - start)
    return statistics.median(times)


class HostSpeed:
    """Calibrations taken between operations.  Call ``tick`` after every
    timed operation and ``finish`` after the last; ``scale(i)`` is then the
    factor for the i-th operation (counting from 0)."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.done: list[int] = []       # operations finished before each calibration
        self.values: list[float] = []
        self._ops = 0
        self._calibrate()

    def _calibrate(self) -> None:
        self.done.append(self._ops)
        self.values.append(calibrate(self.kind))
        self._last = clock()

    def tick(self) -> None:
        self._ops += 1
        if clock() - self._last >= EVERY_S:
            self._calibrate()

    def finish(self) -> None:
        if self.done[-1] != self._ops:
            self._calibrate()

    def scale(self, i: int) -> float:
        after = bisect.bisect_left(self.done, i + 1)
        before = bisect.bisect_right(self.done, i) - 1
        return 2.0 * REF_S / (self.values[before] + self.values[after])
