"""Reference kernel and the call timer that normalizes to it.

A shared machine changes speed by up to ~1.8x for stretches of 0.5-5 s
(other tenants, frequency states).  Every timed call is
therefore divided by the speed of a fixed reference kernel measured over the
call's own interval: right before it, right after it, and on a periodic
SIGALRM during it.  The result is scaled by NOMINAL_KERNEL_S and reads as
seconds on a machine where the kernel takes exactly that long.

The kernel, its size and NOMINAL_KERNEL_S define the unit of every `_s`
metric: changing any of them changes the unit, so they stay fixed.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

NOMINAL_KERNEL_S = 0.001
SAMPLE_PERIOD_S = 0.025
EDGE_SAMPLES = 2        # kernel runs right before and right after a call


def kernel():
    """Fixed block of Fraction and small-int dict/tuple work (~1 ms)."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 100):
        acc += Fraction(i % 7 + 1, i + 2) * Fraction(i + 3, i % 5 + 1)
        key = (i % 11, i % 13)
        table[key] = table.get(key, 0) + i * i
    total = 0
    for key in sorted(table):
        total += key[0] * table[key] - key[1]
    return acc.numerator % 1000 + total


def time_kernel():
    """Seconds one kernel run takes, with the cyclic collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class OverLimit(BaseException):
    """Raised inside a call that passed the per-problem limit.

    A BaseException, so that no `except Exception` in the library can
    swallow it.
    """


def normalize(wall_s, sampler_s, kernel_samples):
    """Seconds at the nominal kernel speed for one timed interval."""
    mean = sum(kernel_samples) / len(kernel_samples)
    return (wall_s - sampler_s) * NOMINAL_KERNEL_S / mean


class CallTimer:
    """Times calls in normalized seconds and enforces a per-problem limit.

    One ITIMER_REAL drives both the in-call kernel sampler and the limit.
    `sampler_s` accumulates the time spent in the signal handler, so spans
    measured elsewhere (the tracer) can subtract it as well.
    """

    def __init__(self, limit_s=None, period_s=SAMPLE_PERIOD_S):
        self.limit_s = limit_s
        self.period_s = period_s
        self.sampler_s = 0.0
        self._samples = []
        self._start = 0.0
        self._sampler_at_start = 0.0
        self._active = False

    def _on_tick(self, signum, frame):
        if not self._active:
            return
        entered = perf_counter()
        self._samples.append(time_kernel())
        self.sampler_s += perf_counter() - entered
        if self.limit_s is not None and self.elapsed() > self.limit_s:
            self._active = False
            raise OverLimit()

    def elapsed(self):
        """Normalized seconds of the current call so far."""
        return normalize(perf_counter() - self._start,
                         self.sampler_s - self._sampler_at_start,
                         self._samples)

    def call(self, fn, *args):
        """Run fn(*args); returns (result, normalized s, wall s, kernel s).

        The result is the OverLimit instance when the call was stopped;
        the normalized time of such a call is charged at the limit.
        """
        self._samples = [time_kernel() for _ in range(EDGE_SAMPLES)]
        previous = signal.signal(signal.SIGALRM, self._on_tick)
        self._sampler_at_start = self.sampler_s
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self._start = perf_counter()
        try:
            result = fn(*args)
        except OverLimit as exc:
            result = exc
        finally:
            end = perf_counter()
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._samples.extend(time_kernel() for _ in range(EDGE_SAMPLES))
        wall = end - self._start
        norm = normalize(wall, self.sampler_s - self._sampler_at_start,
                         self._samples)
        if isinstance(result, OverLimit):
            norm = self.limit_s
        mean = sum(self._samples) / len(self._samples)
        return result, norm, wall, mean
