"""Machine-speed calibration for the time metrics.

On a shared CPU the speed of a fixed pure-Python and numpy loop can drop by
a factor of 1.5 for seconds to tens of seconds, and every kind of code slows
down together, so raw wall times of short runs spread widely between runs.
A fixed kernel that calls nothing in cohrob is therefore timed in the
measuring process between cases, about every CALIBRATE_EVERY_S seconds, and
each op's wall time is scaled by KERNEL_REF_S over the kernel time measured
around it: the time the op would have taken at the speed where the kernel
takes KERNEL_REF_S.  Sampling in another process, on the other core, tracked
the measuring core worse than these samples between cases.
"""
from __future__ import annotations

import bisect
import time

import numpy as np

KERNEL_REF_S = 2e-3
CALIBRATE_EVERY_S = 0.5
KERNEL_REPEATS = 5
_MATRIX = np.cos(np.arange(24 * 24, dtype=float).reshape(24, 24))
_MATRIX = _MATRIX + _MATRIX.T


def kernel() -> float:
    """A few ms of the interpreter loops and small LAPACK calls cohrob spends its time in."""
    acc = 0.0
    for i in range(6000):
        acc += (i % 7) * 0.5
    for _ in range(30):
        acc += float(np.linalg.eigvalsh(_MATRIX)[0])
    return acc


def sample() -> tuple:
    """(midpoint, seconds) of the median of KERNEL_REPEATS kernel timings."""
    runs = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        kernel()
        runs.append((start, time.perf_counter() - start))
    start, seconds = sorted(runs, key=lambda run: run[1])[KERNEL_REPEATS // 2]
    return start + 0.5 * seconds, seconds


class SpeedLog:
    """Kernel samples (midpoint, seconds) in time order, taken between cases."""

    def __init__(self):
        self.times = []
        self.seconds = []

    def sample_if_due(self):
        if not self.times or time.perf_counter() - self.times[-1] >= CALIBRATE_EVERY_S:
            t, seconds = sample()
            self.times.append(t)
            self.seconds.append(seconds)

    def scale(self, start: float, end: float) -> float:
        """KERNEL_REF_S over the mean kernel time of the samples that bracket [start, end]."""
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return KERNEL_REF_S / (sum(self.seconds[lo:hi + 1]) / (hi - lo + 1))
