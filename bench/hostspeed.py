"""Host-speed calibration for the end-to-end times.

The 2-core VM this benchmark was defined on shares its cores with other
tenants. Its speed drifts by up to about a quarter over tens of seconds
to minutes, and the drift moves user-mode work together: over 15 s
windows the paper workload's run time and a small-numpy kernel like the
one below correlated at 0.97, and dividing one by the other cut the
spread of 15 s medians from 0.24 to 0.08. So end-to-end times are
reported in reference seconds: measured seconds times ``REFERENCE_S`` over
the kernel's time around the work (for a run, the mean of the kernel
times just before and just after it, applied to the run's user-mode CPU
time only). The kernel does not touch cyberrisk, so no program change can
move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.003   # the kernel's time on an uncontended core of that VM
SAMPLES = 11


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.random(256)
        self._large = rng.random(200_000)
        self._work = np.empty_like(self._large)
        self.kernel_s = []   # every calibration, for the record

    def _kernel(self):
        # Small numpy calls in a Python loop, like the engine's
        # per-repetition path, then one bulk sort in place. The kernel
        # must not free a large block: glibc would raise its mmap
        # threshold, and the engine's later O(kappa) allocations would
        # stop paying page faults that they pay in a fresh process.
        x = self._small
        for _ in range(300):
            y = np.sort(x)
            np.searchsorted(y, 0.5)
            x = y * 1.0000001
        np.copyto(self._work, self._large)
        self._work.sort()

    def calibrate(self) -> float:
        """Median of SAMPLES timings of the kernel, taken now (and recorded)."""
        times = []
        for _ in range(SAMPLES):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.kernel_s.append(statistics.median(times))
        return self.kernel_s[-1]


def to_reference(seconds: float, kernel_seconds: float, user_seconds: float | None = None) -> float:
    """Measured seconds in reference seconds, given the kernel's time then.

    With ``user_seconds``, only that user-mode share is scaled and the rest
    (page faults, mmap and other time in the operating system) is kept as
    measured: contention slowed the kernel, which runs in user mode, but
    left page-fault-bound runs (κ=1e5 portfolios) steady."""
    if user_seconds is None:
        return seconds * REFERENCE_S / kernel_seconds
    user = min(user_seconds, seconds)
    return user * REFERENCE_S / kernel_seconds + (seconds - user)
