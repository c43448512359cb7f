"""Host-speed sampling, to report times at a fixed reference speed.

The benchmark runs on shared virtual machines whose speed swings by up
to 1.6x within seconds and stays slow for tens of seconds (measured on
a 2-vCPU Linux VM: a fixed pure-Python loop flips between about 6.6 and
10.7 ms).  CPU time swings with it, so neither wall nor CPU time of a
30-second run is steady.  ``HostSpeed`` therefore times a fixed
calibration routine, independent of the package, from a SIGALRM
handler every ``TICK_S`` in the measured process (no extra thread or
process), and ``scaled`` converts a measured interval to seconds on a
host where the routine takes ``CAL_REF_S``: the interval's time minus
the handler's own, times the mean of ``CAL_REF_S / sample`` over the
samples taken during it or within ``WINDOW_S`` of it.  The calibration mixes integer arithmetic with
the tuple, list and small-object work of the field layer, because the
two alone under- and over-correct.

A slower program stays slower by the same factor; only the host's
speed is divided out.  Raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

TICK_S = 0.02
CAL_REF_S = 220e-6  # the routine's time on the reference host in its fast state
WINDOW_S = 0.1  # samples this close to a short interval describe it


class _Elem:
    __slots__ = ("ctx", "val")

    def __init__(self, ctx, val):
        self.ctx = ctx
        self.val = val

    def mul(self, other):
        prod = [0] * 7
        for i, ai in enumerate(self.val):
            if ai:
                for j, bj in enumerate(other.val):
                    prod[i + j] += ai * bj
        return _Elem(self.ctx, tuple(c % 7 for c in prod[:4]))


_X = _Elem(None, (1, 2, 3, 4))
_Y = _Elem(None, (5, 6, 0, 1))


def calibrate():
    """The fixed routine whose duration measures the host's speed."""
    acc = 0
    for i in range(1500):
        acc = (acc * 31 + i) % 65521
    x, seen = _X, {}
    for i in range(40):
        x = x.mul(_Y)
        seen[x.val] = i
    return acc, len(seen)


class HostSpeed:
    """SIGALRM sampler of the calibration routine; main thread only."""

    def __init__(self):
        self.times = []  # start of each sample
        self.durations = []
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        calibrate()
        self.times.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled(self, start, end):
        """Seconds the interval [start, end] would take at reference speed."""
        if not self.times:
            return end - start
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        busy = (end - start) - sum(self.durations[lo:hi])
        window = self.durations[bisect.bisect_left(self.times, start - WINDOW_S):
                                bisect.bisect_right(self.times, end + WINDOW_S)]
        if not window:  # no sample near the interval: take the nearest one
            i = min(bisect.bisect_left(self.times, start), len(self.times) - 1)
            window = self.durations[i:i + 1]
        return busy * statistics.fmean(CAL_REF_S / d for d in window)

    def median_factor(self):
        """Median of CAL_REF_S / sample: below 1 on a slower host."""
        return statistics.median(CAL_REF_S / d for d in self.durations)
