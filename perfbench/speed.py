"""How fast the machine ran, sampled while the benchmark runs.

The shared virtual machines this benchmark runs on switch between full speed
and about half speed every few seconds, for all code at once.  A fixed
reference kernel, timed every PROBE_INTERVAL_S seconds of wall time by a
SIGALRM handler (so also in the middle of a long operation), shows how fast
the machine was at each moment.  An operation's latency divided by the
slowdown the samples saw while it ran is its latency at the reference speed,
the speed at which the kernel takes REFERENCE_S.  The kernel is the
benchmark's own code, so no change to oaforge changes its time; a slower or
faster oaforge still reads slower or faster.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from itertools import combinations

import numpy as np

# mean time of one reference() call on an idle 2-vCPU virtual machine
# (Python 3.11.7, numpy 2.4.6): the unit every latency is scaled to
REFERENCE_S = 0.0015
PROBE_INTERVAL_S = 0.1
# an operation's slowdown is the mean of the samples from this long before it
# starts to this long after it ends
SLOWDOWN_MARGIN_S = 0.3

_CELLS = np.random.default_rng(12345).integers(0, 4, size=(256, 8))


def reference() -> int:
    """Fixed work of the kinds oaforge does: format integers as text, parse
    them back, count tuples with numpy."""
    text = "\n".join(" ".join(str(int(x)) for x in row) for row in _CELLS)
    cells = np.array([[int(x) for x in line.split()] for line in text.split("\n")])
    peak = 0
    for i, j, k in combinations(range(8), 3):
        codes = cells[:, i] * 16 + cells[:, j] * 4 + cells[:, k]
        peak = max(peak, int(np.bincount(codes, minlength=64).max()))
    return peak


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def slowdown_around(samples) -> float:
    """The slowdown that reference samples (seconds each) show."""
    return statistics.fmean(samples) / REFERENCE_S


class Probe:
    """Times reference() every `interval` seconds of wall time between start()
    and stop().  The handler runs between two bytecodes of whatever the main
    thread is doing; samples are kept in memory."""

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.starts:  # a phase shorter than one interval
            self._sample(None, None)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the samples took between t0 and t1 (a sample runs to its
        end before the interrupted code goes on)."""
        return sum(self.seconds[bisect_left(self.starts, t0):bisect_left(self.starts, t1)])

    def slowdown(self, t0: float, t1: float) -> float:
        """The slowdown from t0 to t1: the samples from SLOWDOWN_MARGIN_S
        before to SLOWDOWN_MARGIN_S after, or the nearest one on each side
        if there are none."""
        lo = bisect_left(self.starts, t0 - SLOWDOWN_MARGIN_S)
        hi = bisect_right(self.starts, t1 + SLOWDOWN_MARGIN_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return slowdown_around(self.seconds[lo:hi])
