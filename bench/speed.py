"""Machine-speed sampling, so that timings made on a shared machine compare.

The benchmark machine is a shared VM. Its speed drifts by 20% and more over
seconds to minutes, in every process alike, because other guests share the
host (README.md, "Measurement noise").  Taken alone, a time measured on it
says as much about the neighbours as about the program.

Two things make a time steady there.  First, every interval is measured on
``CLOCK``, the CPU time of the process, so time during which the process
waited for a CPU held by another process is left out.  The benchmark pins
the program to one thread, so its CPU time is its run time on an idle
machine.  Second, a :class:`SpeedSampler` runs a fixed slice of reference
work every ``PERIOD`` seconds from a ``SIGALRM`` handler, between the
program's own bytecodes, and records when each slice started and how long
it took.  ``REFERENCE_SLICE_S / duration`` is the machine's speed at that
moment, relative to the speed at which the constants below were measured.

:meth:`SpeedSampler.reference_seconds` turns a measured interval into the
seconds it takes at reference speed: the interval's length, minus the time
the sampler's own slices took inside it, times the mean relative speed of
the slices around it.  Slices are evenly spaced in time, so that mean is
the time average of the speed, and the product is the work done.

The slice mixes what the program does: small matrix products and
elementwise numpy calls, each dispatched from Python, and float arithmetic.
Each timed slice follows one untimed iteration that brings its few KB of
data and code back into the caches, so its time does not depend on how much
of the caches the program used before it.  It allocates no object the cyclic collector tracks, so sampling does not
move the collector's schedule, which sets the conv workload's peak memory.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

import numpy as np

# The clock of every interval and slice: CPU seconds of this process.
CLOCK = time.process_time
# Seconds between slices while the sampler runs (wall clock).
PERIOD = 0.01
# Iterations of one slice.
SLICE_ITERS = 12
# CPU seconds of one slice at reference speed, the speed every reported
# time is converted to.  It is near the median slice time of the baseline
# runs (README.md, "Baseline"), so converted times read close to measured
# ones on that machine in a typical period.
REFERENCE_SLICE_S = 2.0e-4
# Slices within this many seconds of an interval estimate its speed.
HALF_WINDOW = 0.05

_A = np.full((8, 32), 0.5)
_W = np.full((32, 16), 0.25)
_X = np.linspace(0.0, 1.0, 1024).reshape(32, 32)


def reference_slice(iters: int = SLICE_ITERS) -> float:
    """The fixed work whose duration measures the machine's speed."""
    acc = 0.0
    for i in range(iters):
        h = _A @ _W
        h = np.maximum(h, 0.1) * 2.0 + h
        acc += float(h.sum()) + i * 0.5
        y = _X @ _X
        acc += float(np.exp(-y[0]).sum())
    return acc


class SpeedSampler:
    """Records reference slices, periodic or on demand: when each sample
    started, how long it took in all, and how long its timed slice took."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.totals: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def sample(self, *_signal_args) -> None:
        # A signal that arrives during a slice is dropped: a nested sample
        # would land out of order and inside the outer one's time.
        if self._busy:
            return
        self._busy = True
        t0 = CLOCK()
        reference_slice(1)
        t1 = CLOCK()
        reference_slice()
        t2 = CLOCK()
        self.starts.append(t0)
        self.totals.append(t2 - t0)
        self.durations.append(t2 - t1)
        self._busy = False

    def burst(self, n: int = 10) -> None:
        """``n`` slices back to back, around work the sampler cannot
        interrupt, such as a child process."""
        for _ in range(n):
            self.sample()

    @contextmanager
    def running(self):
        """Sample every ``PERIOD`` seconds until the block ends."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, a: float, b: float) -> float:
        """Mean relative speed of the slices within ``HALF_WINDOW`` of
        ``[a, b]`` (``CLOCK`` times).  Call it once sampling has gone
        on past ``b``."""
        lo = bisect.bisect_left(self.starts, a - HALF_WINDOW)
        hi = bisect.bisect_right(self.starts, b + HALF_WINDOW)
        if lo == hi:
            raise RuntimeError(f"no speed sample within {HALF_WINDOW} s of [{a}, {b}]")
        return REFERENCE_SLICE_S * float(np.mean(np.reciprocal(self.durations[lo:hi])))

    def reference_seconds(self, a: float, b: float) -> float:
        """Seconds the program's work in ``[a, b]`` takes at reference
        speed: the interval without the sampler's own slices in it."""
        inside = self.totals[bisect.bisect_left(self.starts, a):
                             bisect.bisect_left(self.starts, b)]
        return (b - a - sum(inside)) * self.speed(a, b)

    def relative_speeds(self) -> np.ndarray:
        return REFERENCE_SLICE_S / np.asarray(self.durations)
