"""Machine-speed calibration of the timed run.

On the machine the benchmark was tuned on, identical calls run up to 1.7
times slower for stretches lasting from a fraction of a second to minutes,
with CPU time rising as much as wall time: contention or clock changes, not
preemption.  A whole timed run can fall inside such a stretch, so medians
within a run cannot remove it.

A fixed kernel, written with the benchmark's own NumPy code and none of
algpot's, is timed before and after every timed step and, from a timer
signal, every SAMPLE_INTERVAL_S while the step runs; the kernel's time is
left out of the step's.  The step's time is scaled by REFERENCE_S over the
mean of those kernel times, which reads as seconds at the speed the kernel
had when REFERENCE_S was measured.  The samples are even in time, so their
mean follows the share of the step spent in a slow stretch.

The kernel is the same kind of work as algpot's hot path: Python loops
over small NumPy arrays.  Over 150 s of alternating them, 0.75 s windows of
darboux_system calls on 5x2 varied with a coefficient of variation of 29%,
and their ratio to the kernel varied by 7%.
"""

from __future__ import annotations

import signal
import statistics
import time

import problems

WARMUP_REPS = 20  # untimed, so the timed reps do not pay for a cold cache
KERNEL_REPS = 100
REFERENCE_S = 0.0055  # timed reps, uncontended, on the machine in README.md
SAMPLE_INTERVAL_S = 0.1


class Calibrator:
    """Times steps of the run against the calibration kernel."""

    def __init__(self):
        self._problem = problems.cone()
        self._x = problems.cone_point(0.3)
        self.samples = []
        self._inside = 0.0  # kernel time spent inside the current step

    def kernel(self) -> float:
        for _ in range(WARMUP_REPS):
            self._problem.darboux_residual(self._x)
        start = time.perf_counter()
        for _ in range(KERNEL_REPS):
            self._problem.darboux_residual(self._x)
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def _on_timer(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self._inside += time.perf_counter() - start

    def step(self, fn):
        """(fn(), seconds fn took, those seconds scaled to the reference speed)."""
        if not self.samples:
            self.kernel()
        first = len(self.samples) - 1  # the previous step's closing sample
        self._inside = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            start = time.perf_counter()
            out = fn()
            raw = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        raw -= self._inside
        self.kernel()
        speed = statistics.fmean(self.samples[first:])
        return out, raw, raw * REFERENCE_S / speed

    def speed(self) -> float:
        """Median kernel time over REFERENCE_S: 1 at the reference speed."""
        return statistics.median(self.samples) / REFERENCE_S
