"""Machine-speed reference for scaling the benchmark's timings.

The virtual machines this benchmark runs on switch between speed states
for minutes at a time: the same pass takes 60% longer in one than in the
other, which swamps any bound a benchmark could keep.  A fixed stdlib
computation shaped like the package's hot path (exact deviation sums over
lattice profiles) slows down by the same share, so the benchmark times it
about once a second between ops and scales each timing to a machine on
which one reference block takes ``NOMINAL_S``, using the blocks timed
within ``WINDOW_S`` of it, so a switch in the middle of a run is followed.

The block runs with the cyclic collector off, so a large heap left by the
workload does not slow the reference and hide a slowdown of the workload.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.025
INTERVAL_S = 1.0
WINDOW_S = 2.5

_VECTORS = tuple(tuple(Fraction(k, 12) for k in (a, 12 - a)) for a in range(13))
_PAYOFFS = tuple(Fraction(p) for p in (3, -1, 4, 1, -5, 9, 2, -6))
_CELLS = tuple(itertools.product(range(2), range(2)))


def reference_block() -> float:
    """Seconds taken by one reference block."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(6):
            for u in _VECTORS:
                for v in _VECTORS:
                    total = Fraction(0)
                    for (i, j), p in zip(_CELLS, _PAYOFFS):
                        total += u[i] * v[j] * p
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Reference-block samples taken through one run."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []
        self._due = 0.0

    def sample(self) -> float:
        """Time a reference block; returns the wall time spent doing it."""
        start = perf_counter()
        self.samples.append(reference_block())
        end = perf_counter()
        self.times.append(end)
        self._due = end + INTERVAL_S
        return end - start

    def maybe_sample(self) -> float:
        """Sample when a second has passed since the last sample."""
        if perf_counter() < self._due:
            return 0.0
        return self.sample()

    def factor(self) -> float:
        """Multiplier from this run's seconds to nominal seconds."""
        return NOMINAL_S / statistics.median(self.samples)

    def factor_at(self, when: float) -> float:
        """The multiplier for a timing that started at ``when``: from the
        blocks within ``WINDOW_S`` of it, else from the nearest block."""
        lo = bisect.bisect_left(self.times, when - WINDOW_S)
        hi = bisect.bisect_right(self.times, when + WINDOW_S)
        if lo == hi:
            nearest = min((lo - 1, lo), key=lambda i: abs(self.times[i] - when)
                          if 0 <= i < len(self.times) else float("inf"))
            lo, hi = nearest, nearest + 1
        return NOMINAL_S / statistics.median(self.samples[lo:hi])
