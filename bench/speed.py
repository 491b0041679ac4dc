"""Machine-speed probe: measures the program in the time it would take on a
machine running at a fixed reference speed.

A shared machine's speed swings by up to 2x within a minute, and CPU time
swings with it, so raw times of the same code differ from run to run by more
than any useful regression bound.  The probe samples the speed all through
a pass: a SIGALRM timer interrupts the program every INTERVAL_S and times a
fixed pure-Python loop (a spin).  The probe's own time is kept off the
program's clock, `now()`.  An interval [a, b] of that clock, scaled by
`REF_SPIN_S` over the mean spin sampled within INTERVAL_S of it, is the
interval's reference-speed duration.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

SPIN_ITERS = 5_000
REF_SPIN_S = 0.00065  # about a spin's time on a quiet 2-CPU Intel Xeon
INTERVAL_S = 0.04


def spin() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t0 = perf_counter()
    acc, d = 1, {}
    for i in range(SPIN_ITERS):
        acc = (acc * 31 + i) % 32003
        d[acc & 1023] = i
    return perf_counter() - t0


class SpeedProbe:
    """`start()` and `stop()` bracket the measured code; `ref_s(a, b)` maps a
    `now()` interval to reference speed.  Main thread only (signals)."""

    def __init__(self):
        self.paused = 0.0  # seconds spent in spins so far
        self.busy = False
        self.at = []  # program clock at each sample, ascending
        self.spin_s = []

    def now(self) -> float:
        """Program clock: wall time less the probe's own time."""
        return perf_counter() - self.paused

    def _sample(self, *_):
        if self.busy:  # a spin that outlasts INTERVAL_S is not nested
            return
        self.busy = True
        t0 = perf_counter()
        s = spin()
        self.at.append(t0 - self.paused)
        self.spin_s.append(s)
        self.paused += perf_counter() - t0
        self.busy = False

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def ref_s(self, a: float, b: float) -> float:
        """Reference-speed duration of the program-clock interval [a, b]
        between start() and stop(): scaled by REF_SPIN_S over the mean spin
        sampled within INTERVAL_S of it, which holds at least one sample."""
        lo = bisect.bisect_left(self.at, a - INTERVAL_S)
        hi = bisect.bisect_right(self.at, b + INTERVAL_S)
        return (b - a) * REF_SPIN_S / statistics.fmean(self.spin_s[lo:hi])
