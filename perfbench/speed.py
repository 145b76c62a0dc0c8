"""Machine-speed probes, and measured times scaled to a reference speed.

The machine this benchmark was built on changes speed under its other
users: a fixed pure-Python loop runs at one of two speeds about 2x apart
(its probe times cluster near 0.7 ms and 1.35 ms), switching in spells from
a fraction of a second to several minutes, and CPU time tracks wall time.
In raw times the medians of two sets of ten identical runs differed by 24 %.
So while a run times gadsp it also times a 1 ms `Fraction` loop, the probe,
which uses nothing from gadsp, every EVERY_S seconds: a SIGALRM handler runs
it in the main thread (no extra thread), so long operations are sampled
while they run.  A measured time, less the probes that ran inside it, is
reported at the speed where the probe takes REFERENCE_S:

    scaled = (measured - probe time inside) * REFERENCE_S
             * mean(1 / probe time, over probes within WINDOW_S of it)

The probes sample time evenly, so the mean of their rates is the mean speed
over the window, whatever share of it the slow spells take; the median of
probe times, used first, jumps between the two speeds instead, and left
wall_s twice as spread on fuchsian-agree.  The window is short because the
speed often switches within half a second: an operation of 0.1 ms runs at
the speed of the probes next to it, not at the mean speed of the second
around it (with a 1 s window latency_p50_s on fuchsian-agree, a 0.13 ms
operation, spread 0.15 over six runs; with 0.1 s, 0.04).  gadsp code does not run in the
probe, so a change that makes gadsp slower shows in full in the scaled time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

perf = time.perf_counter

REFERENCE_S = 1e-3
EVERY_S = 0.1
WINDOW_S = 0.1


def probe():
    """Seconds taken by the fixed loop, with the cyclic collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf()
    acc, third = Fraction(0), Fraction(1, 3)
    for k in range(1, 200):
        acc += third * Fraction(k, k + 1)
    d = perf() - t0
    if enabled:
        gc.enable()
    return d


def rate(durations):
    """REFERENCE_S times the mean rate of probes that took `durations`."""
    return REFERENCE_S * statistics.mean(1 / d for d in durations)


class SpeedLog:
    """Probe times of one run, in time order; a context manager that probes
    on a timer while it is active."""

    def __init__(self):
        self.times = []      # probe midpoints
        self.durations = []
        self.spent = 0.0     # seconds spent in probe handlers so far
        self._previous = None

    def _probe(self, signum=None, frame=None):
        t0 = perf()
        d = probe()
        self.times.append(t0 + d / 2)
        self.durations.append(d)
        self.spent += perf() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def rate(self, t0, t1):
        """The factor that takes a time measured in [t0, t1] to the reference
        speed: REFERENCE_S times the mean probe rate within WINDOW_S."""
        i = max(bisect.bisect_right(self.times, t0 - WINDOW_S) - 1, 0)
        j = min(bisect.bisect_left(self.times, t1 + WINDOW_S), len(self.times) - 1)
        return rate(self.durations[i:j + 1])

    def scaled(self, t0, t1, spent):
        """t1 - t0, less `spent` seconds of probes, at the reference speed."""
        return (t1 - t0 - spent) * self.rate(t0, t1)
