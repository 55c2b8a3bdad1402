"""How fast the shared host runs Python right now, from a fixed stdlib workload.

The host slows every process on it down by up to 2x, in swings that last
from a fraction of a second to minutes, so wall times taken at different
moments are not comparable.  A Sampler times a small fixed workload of the
same kind as the workbench's (Fraction arithmetic on growing integers, a
dict with tuple keys) every INTERVAL_S of wall time, from a SIGALRM handler,
while a pass runs.  ``scale`` turns the wall time of a check into seconds at
the reference speed with the samples taken during it.  The workload uses
nothing from rankin, so a change to rankin cannot change it.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# What one run of _workload takes on a quiet host (2-vCPU Xeon VM, Python
# 3.11): the scale of the scaled times, not a bound.
REFERENCE_S = 0.00033


def _workload():
    table = {}
    x = Fraction(1, 3)
    for i in range(1, 60):
        x = x * Fraction(i, i + 7) + Fraction(1, i)
        table[(i, i % 5)] = [x.numerator % 97, x.denominator % 89]
    return table


class Sampler:
    """Host-speed samples: ``times`` holds the seconds each run of the fixed
    workload took, ``spent`` the seconds all of them took together."""

    def __init__(self):
        self.times, self.spent, self._busy = [], 0.0, False

    def sample(self):
        """Time one run of the fixed workload, with the collector off so the
        size of the caller's heap does not enter the time."""
        if self._busy:          # the timer fired inside a sample
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            _workload()
            t = time.perf_counter() - t
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.times.append(t)
        self.spent += t

    def start(self):
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(seconds, times):
    """``seconds`` of wall time, over which the samples ``times`` were taken,
    in seconds at the reference speed: the work done is the wall time
    weighted by the speed, and the speed is the inverse of a sample's time."""
    return seconds * REFERENCE_S * statistics.fmean(1 / t for t in times)
