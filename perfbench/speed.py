"""The machine's current speed, measured with a fixed reference kernel.

On a shared machine the speed of pure-Python work drifts by a factor of
up to two within a minute, so raw seconds from two runs (or two commits)
are not comparable.  The benchmark runs a fixed kernel of the same kind
of work as frobq (exact fractions, small frozen objects, dictionaries
keyed by tuples) between commands, and reports each time in reference
seconds: measured seconds x REFERENCE_S / the kernel's mean time over
the interval.  A reference second is a second on a machine that runs
the kernel in REFERENCE_S.  The raw seconds are kept in the result file
as well.
"""

import gc
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.02      # the kernel's time that defines a reference second
KERNEL_STEPS = 3000     # about REFERENCE_S of work on a 2-core x86-64 VM, CPython 3.11
MIN_GAP_S = 0.3         # sample at most this often between commands
WINDOW_S = 0.3          # samples this close to a timed interval describe it
BURST = 6               # at most this many samples in a row,
BURST_GAP_S = 0.5       # one more for each half second since the last sample


@dataclass(frozen=True)
class _Key:
    row: int
    pair: tuple


def kernel():
    """Fixed work; run with the cyclic collector off, so heap size does not matter."""
    table = {}
    step = Fraction(1, 3)
    for k in range(KERNEL_STEPS):
        key = _Key(k % 61, (k % 7, k % 11))
        table[key] = table.get(key, 0) + step * (k % 5)
    return sorted(table.values())


class SpeedMeter:
    """Kernel timings, taken outside every timed interval, and the scale they give."""

    def __init__(self):
        self.times = []      # midpoint of each kernel run, increasing
        self.seconds = []    # how long that run took

    def sample(self):
        gc.disable()
        try:
            start = perf_counter()
            kernel()
            elapsed = perf_counter() - start
        finally:
            gc.enable()
        self.times.append(start + elapsed / 2)
        self.seconds.append(elapsed)

    def maybe_sample(self):
        """Sample once MIN_GAP_S has passed; after a long gap, take a short burst."""
        gap = perf_counter() - self.times[-1] if self.times else MIN_GAP_S
        if gap >= MIN_GAP_S:
            for _ in range(min(BURST, 1 + int(gap / BURST_GAP_S))):
                self.sample()

    def scale(self, start, end):
        """REFERENCE_S over the mean kernel time near [start, end].

        Uses every sample within WINDOW_S of the interval, and always the
        last sample before it and the first after it.  The machine flips
        between a fast and a slow state many times a second, so single
        samples fall into two clusters; their mean tracks the share of
        time spent in each, where a median would jump between them.
        """
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        before = bisect_left(self.times, start) - 1
        after = bisect_right(self.times, end)
        lo = min(lo, max(before, 0))
        hi = max(hi, min(after + 1, len(self.times)))
        if lo >= hi:
            raise ValueError("no speed sample near the interval")
        return REFERENCE_S / statistics.fmean(self.seconds[lo:hi])
