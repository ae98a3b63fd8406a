"""Machine-speed probe.

The benchmark runs on shared machines whose speed drifts by 10-50%, and
within a second, as other tenants come and go; a raw timing then says more
about the neighbours than about carmakit.  So every timed task is measured
together with a small fixed probe: once before it, once after it and, for
tasks that run in this process, every PERIOD_S during it, from a timer
signal.  The task's samples are scaled by NOMINAL_S over the mean probe
time: a sample is reported as the time it would have taken with the probe
at its nominal speed.  The time spent in the probe is not counted.

The probe does the kinds of work carmakit does -- Fraction arithmetic,
small numpy products and float formatting -- and none of carmakit's code,
so a change to carmakit never moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# About the probe's median seconds on a 2-core Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6.  Only ratios matter: it fixes the scale of every timing.
NOMINAL_S = 0.003
PERIOD_S = 0.2


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 240):
        x += Fraction(i, i + 1)
    a, v = np.full((3, 3), 0.25), np.ones(3)
    for _ in range(480):
        v = a @ v + 1.0
    ",".join(f"{y:.17g}" for y in np.linspace(0.0, 1.0, 240))
    return time.perf_counter() - t0


class Meter:
    """Times tasks with the probe around and, optionally, inside them."""

    def __init__(self):
        self.readings = []      # every probe time taken, for the summary
        self._inside = []
        self._spent = 0.0       # seconds spent in probes taken inside tasks

    def clock(self) -> float:
        """``time.perf_counter()`` without the probes taken inside tasks;
        tasks time their own samples with it."""
        return time.perf_counter() - self._spent

    def _on_timer(self, signum, frame):
        t0 = time.perf_counter()
        self._inside.append(probe())
        self._spent += time.perf_counter() - t0

    def run(self, task, sample_inside: bool) -> tuple:
        """Runs ``task()``; returns (seconds without the probe, scale factor).

        ``sample_inside`` must be False for a task that waits on a child
        process on this CPU, which the probe would slow down.
        """
        self._inside = []
        before = probe()
        if sample_inside:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = self.clock()
        try:
            task()
        finally:
            elapsed = self.clock() - t0
            if sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
        readings = [before, *self._inside, probe()]
        self.readings += readings
        return elapsed, NOMINAL_S / statistics.mean(readings)
