"""Machine-speed calibration of the end-to-end timings.

The benchmark runs on shared machines whose single-thread speed changes by
up to 1.8x within seconds, as other tenants come and go.  Every timing then
carries that factor, and runs of the same code spread by 15-25 %.  To take
the factor out, a fixed piece of work that does not touch flapkit -- the
*calibration sample* -- is timed every ``INTERVAL_S`` seconds through the
run, from a ``SIGALRM`` handler in the main thread.  Its duration measures
the machine's speed at that moment.  A timing is reported at the reference
speed, at which one sample takes ``REF_S`` seconds:

    normalised time = raw time x mean(REF_S / sample duration)

The samples' own time is subtracted from the operations they interrupt.  On
a shared 2-vCPU guest this cut the spread of ten 20 s runs per workload
(quartile distance over median) from 0.14-0.24 to 0.016-0.051.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.5  # time between calibration samples in a measured run
REF_S = 0.025  # duration of one sample at the reference speed
_STEPS = 3000  # work in one sample: ~25 ms on a 2-vCPU Xeon guest


def calibration_work() -> float:
    """Small-array numpy and scalar math, the mix of a simulation tick."""
    rot = np.eye(3)
    x = np.arange(16.0) * 1e-3
    acc = 0.0
    for i in range(_STEPS):
        s, c = math.sin(i * 1e-3), math.cos(i * 1e-3)
        m = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        rot = m @ rot
        v = rot @ x[:3]
        x = x + 1e-3 * np.concatenate((v, x[3:]))
        acc += float(np.linalg.norm(v)) + s * c
    return acc


class Pacer:
    """Takes calibration samples and converts raw times to the reference speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # durations, s
        self.spent = 0.0  # total time spent in samples, s

    def sample(self) -> float:
        t0 = perf_counter()
        calibration_work()
        duration = perf_counter() - t0
        self.samples.append(duration)
        self.spent += duration
        return duration

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Sample on entry, every INTERVAL_S seconds of wall time, and on exit."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def speed(self, samples: list[float] | None = None) -> float:
        """Mean speed over the samples, relative to the reference (1 = reference)."""
        samples = self.samples if samples is None else samples
        return statistics.fmean(REF_S / d for d in samples)
