"""Command timing that corrects for how fast the shared CPU runs at the moment.

On a shared host, the CPU this machine gets slows down by as much as 2x,
in phases from under a second to minutes long, when neighbours load the same
core.  Raw wall times of one command then spread by 15-35 % between passes.

``SpeedStopwatch`` times a command and samples the core's speed while it runs.
Every ``PERIOD_S`` a timer signal runs a fixed numpy kernel in the same
thread and records how long it took.  The program time between two samples
is scaled by ``REFERENCE_S`` over the kernel time measured at its end (the
time after the last sample, by the last kernel time), which gives the time at
the machine's undisturbed speed.  The time spent sampling is left out.

Signal handlers cannot run inside a native call.  A gap longer than
``MAX_GAP_S`` between samples means the program sat in LAPACK, which slows
less than Python code under contention, so such gaps are counted unscaled.

Measured on this benchmark's solves over 90 s, the scaled times spread by
1.5-3 % where raw times spread by 13-19 % (bundled), 3-7 % against 5-7 %
(wide), and 7-8 % against 10-17 % (spectral), as quartile distance over
median.  Sampling adds about 1 % to a command's wall time.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.005
MAX_GAP_S = 0.012
# Kernel time in the fast mode of the sampling handler (its times cluster near
# 34 and 62 microseconds) on the machine the benchmark was written on (x86_64,
# 2 vCPUs, Python 3.11.7, numpy 2.4.6).  It only fixes the unit: at that
# speed a scaled second is a wall second.
REFERENCE_S = 34e-6

_POINTS = np.random.default_rng(0).standard_normal((16, 2))


def _kernel() -> None:
    """Small numpy operations in a Python loop, like the per-node nonlinearity calls."""
    acc = 0.0
    for z in _POINTS:
        r = float(np.dot(z, z))
        acc += float((2.0 * (r * r + 2.0 * r) / (1.0 + r) ** 2 * z)[0])


class Stopwatch:
    """Plain wall-clock timing of a ``with`` block."""

    seconds = 0.0
    scaled = 0.0

    def __enter__(self):
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = self.scaled = perf_counter() - self._start


class SpeedStopwatch(Stopwatch):
    """Wall time of a ``with`` block without sampling, and the same time scaled
    to the machine's undisturbed speed."""

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _kernel()
        self._samples.append((start, perf_counter() - start))

    def __enter__(self):
        self._samples: list[tuple[float, float]] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        end = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        seconds = scaled = 0.0
        previous, factor = self._start, 1.0
        for start, kernel in self._samples:
            gap = start - previous
            factor = REFERENCE_S / kernel
            seconds += gap
            scaled += gap * (factor if gap <= MAX_GAP_S else 1.0)
            previous = start + kernel
        tail = max(0.0, end - previous)
        self.seconds = seconds + tail
        self.scaled = scaled + tail * (factor if tail <= MAX_GAP_S else 1.0)
