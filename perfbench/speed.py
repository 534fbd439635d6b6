"""Job timing that factors out the machine's changing speed.

On a shared machine one core's speed drifts by up to 2x over seconds to
minutes, and evenly for interpreted and numpy code.  A timer signal every
PERIOD_S seconds times the probe, a fixed piece of pure-Python work.  A
job's wall time, less the time spent in the signal handler, is scaled by
REFERENCE_S over the mean probe time during the job, or during the last
WINDOW_S seconds for a shorter job: the result is the job's time on a
machine whose probe takes REFERENCE_S.
"""

from __future__ import annotations

import collections
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.02
WINDOW_S = 0.2
# the probe's time on an idle core of the 2-vCPU x86-64 sandbox the
# benchmark was written on, so scaled times read close to its wall times
REFERENCE_S = 2.5e-5


def probe():
    """Best of two runs of a fixed dict loop, which an interrupt can only slow."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        counts = {}
        for i in range(300):
            counts[i & 63] = counts.get(i & 63, 0) + i
        best = min(best, perf_counter() - start)
    return best


class SpeedClock:
    """Context manager owning SIGALRM; time() runs and times one job."""

    def __init__(self):
        self._ticks = collections.deque(maxlen=1024)  # (when, probe seconds)
        self._handler_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        self._ticks.append((start, probe()))
        self._handler_s += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Return (fn(), scaled seconds, wall seconds)."""
        self._handler_s = 0.0
        start = perf_counter()
        out = fn()
        end = perf_counter()
        wall = end - start - self._handler_s
        since = min(start, end - WINDOW_S)
        recent = [p for when, p in list(self._ticks) if when >= since] or [probe()]
        return out, wall * REFERENCE_S / statistics.fmean(recent), wall
