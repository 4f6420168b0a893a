"""Times in seconds at a fixed reference speed.

The shared 2-core KVM guest this benchmark was tuned on changes speed by up
to 2x within seconds (a fixed Python loop took 41 to 110 ms from one call to
the next), so raw wall times of identical runs spread by 20-30%.  While a run
measures, a timer signal every PERIOD_S interrupts the program and times a
fixed reference computation that does not use binsum.  The collector is off
while a sample runs, so the sample does not walk the program's live objects.
Each stretch of wall time between two samples is divided by the median
duration of the WINDOW samples around it and multiplied by NOMINAL_S: the
result is how long the stretch would have taken at the speed where the
reference takes NOMINAL_S.  The samples' own time is left out.  Raw wall
times are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import comb, factorial

NOMINAL_S = 0.002
PERIOD_S = 0.02
# samples whose median durations give the speed of the stretch between two
# of them: two before it and two after
WINDOW = 4


def reference() -> None:
    """About 2 ms of Fraction, big-integer and loop work, the mix binsum does:
    the alternating sums b(3, 1/2; j) for j < 10 and b(2, 3; j) for j < 40.

    This computation is the time unit of every reported time.  It imports
    nothing from binsum or the oracle, and changing it changes the unit."""
    for j in range(10):
        total = Fraction(0)
        for i in range(j + 1):
            if i % 2 == 0:
                binomial = comb(j + 3 + i // 2, j + 3)
            else:
                top, binomial = j + 3 + Fraction(i, 2), Fraction(1)
                for r in range(j + 3):
                    binomial *= top - r
                binomial /= factorial(j + 3)
            total += (-1) ** i * comb(j, i) * binomial
    for j in range(40):
        sum((-1) ** i * comb(j, i) * comb(j + 2 + 3 * i, j + 2) for i in range(j + 1))


def reference_seconds() -> float:
    """One timed reference run, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Samples the reference from SIGALRM while in a with block."""

    def __init__(self) -> None:
        self.starts: list = []
        self.durations: list = []
        self._sampling = False

    def sample(self, *_) -> None:
        if self._sampling:  # a signal that lands inside a sample is dropped
            return
        self._sampling = True
        start = time.perf_counter()
        self.durations.append(reference_seconds())
        self.starts.append(start)
        self._sampling = False

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def speed(self, k: int) -> float:
        """Reference duration for the stretch that ends at sample k."""
        return statistics.median(self.durations[max(k - WINDOW // 2, 0):k + WINDOW // 2])

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed between two perf_counter readings
        taken inside the block, with the samples' own time left out."""
        first = bisect_left(self.starts, start)
        last = bisect_right(self.starts, end)
        total, low = 0.0, start
        for k in range(first, last + 1):
            high = self.starts[k] if k < last else end
            total += (high - low) / self.speed(k)
            if k < last:
                low = self.starts[k] + self.durations[k]
        return total * NOMINAL_S
