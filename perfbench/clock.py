"""Machine-load correction for the benchmark's timings.

The machine's speed drifts: on the shared 2-vCPU KVM host the benchmark was
written on, the same count_zeros call took 15 ms in some phases and 27 ms in
others, each phase lasting seconds.  ``LoadClock`` measures the phase while
the workload runs: every ``INTERVAL_S`` a SIGALRM handler times one of two
small fixed kernels, which share no code with plasmaskin and slow down
with the machine.  ``interval`` turns the wall time of an interval into
seconds of the unloaded reference host: it takes out the handler's own time
and divides by the load factor sampled during the interval.

The handler only reads the clock and runs a kernel, between bytecodes of
the main thread, so it changes no result.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
from scipy.special import wofz

INTERVAL_S = 0.02
WINDOW_S = 0.1         # samples this far before a short interval also count
_Z = np.linspace(0.1, 3.0, 3) + 0.01j


def _python_kernel() -> None:
    acc = 0.0
    for i in range(500):
        acc += (i * 0.5) ** 2 % 7.0


def _numpy_kernel() -> None:
    for i in range(40):
        v = wofz(_Z * (1.0 + 1e-3 * i))
        np.sum(v * v)


# Each phase slows pure-Python code and small-array numpy calls by
# different factors, and plasmaskin's layers mix the two (the quadrature
# loop is mostly Python, zero counting mostly numpy calls), so both kernels
# are sampled, alternately, and the load factor is the geometric mean of
# their slowdowns.  The references are their times, sampled this way, on
# the unloaded reference host (2-vCPU KVM guest, Intel Xeon, Python 3.11,
# numpy 2.4, scipy 1.17): adjusted times are seconds of that host unloaded.
KERNELS = (_python_kernel, _numpy_kernel)
REFERENCE_S = (9.1e-5, 1.8e-4)


class LoadClock:
    """Samples the kernels' times every INTERVAL_S while entered."""

    def __init__(self):
        # (start, kernel index, kernel seconds, handler seconds)
        self.samples: list[tuple[float, int, float, float]] = []
        self._previous = None

    def _sample(self, signum, frame):
        k = len(self.samples) % len(KERNELS)
        t0 = time.perf_counter()
        KERNELS[k]()
        t1 = time.perf_counter()
        self.samples.append((t0, k, t1 - t0, time.perf_counter() - t0))

    def __enter__(self) -> "LoadClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def interval(self, start: float, end: float) -> tuple[float, float]:
        """(wall, adjusted) seconds of [start, end] on the perf_counter clock.

        Wall time excludes the handler's own time.  Without samples of
        both kernels near the interval, adjusted equals wall.
        """
        samples = list(self.samples)
        overhead = sum(h for t, _, _, h in samples if start <= t <= end)
        wall = end - start - overhead
        log_load = 0.0
        for k, ref in enumerate(REFERENCE_S):
            near = [d for t, j, d, _ in samples
                    if j == k and start - WINDOW_S <= t <= end]
            if not near:
                return wall, wall
            log_load += math.log(statistics.median(near) / ref)
        return wall, wall / math.exp(log_load / len(REFERENCE_S))
