"""Host speed, sampled between operations, to express times at a nominal speed.

The machine this benchmark was built on switches between speed levels about
1.5x apart in phases of several seconds, and a 30-second run can fall
entirely in a slow phase.  So the worker runs a fixed pure-Python kernel a
few times every ``EVERY_S`` seconds, between operations and outside their
timings.  Each operation's time is multiplied by ``REFERENCE_S / k``, where
k is the median kernel time in a window of ``WINDOW`` sampling points on
either side of it.  The result reads as the time the operation would take
on a host where the kernel takes ``REFERENCE_S``; the raw times are
reported next to it.

The kernel is a plain interpreter loop over small integers, small enough
to stay in the core's caches, so it tracks how fast the host runs Python
bytecode and nothing else.  A kernel with a large table was tried and
dropped: its cold-cache first samples made fresh processes look up to 2x
faster than they were.
"""

from __future__ import annotations

import statistics
from time import perf_counter

EVERY_S = 0.2
SAMPLES = 3
WINDOW = 6
REFERENCE_S = 100e-6  # kernel time at the nominal speed (about its fastest here)


class HostSpeed:
    def __init__(self) -> None:
        self.points: list[list[float]] = []
        self.last = 0.0
        for _ in range(SAMPLES):  # warm up: the first runs in a fresh process are slow
            _kernel()

    def sample(self, count: int = SAMPLES) -> int:
        """Time the kernel ``count`` times; returns the index of this sampling point."""
        times = []
        for _ in range(count):
            t0 = perf_counter()
            _kernel()
            times.append(perf_counter() - t0)
        self.points.append(times)
        self.last = perf_counter()
        return len(self.points) - 1

    def factors(self) -> list[float]:
        """Scale factor to nominal speed for the interval after each sampling point."""
        out = []
        for c in range(len(self.points)):
            lo, hi = max(0, c - WINDOW), min(len(self.points), c + WINDOW + 2)
            out.append(REFERENCE_S / statistics.median(
                x for pt in self.points[lo:hi] for x in pt))
        return out


def _kernel() -> int:
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    return acc
