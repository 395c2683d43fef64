"""The host's speed, sampled while a workload runs.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a third over tens of seconds as other tenants come and go.  Within one run
that drift is slow, but between runs it, not the program, sets the spread of
raw wall times.  ``HostSpeed`` times a fixed reference computation that uses
none of pdvol from a SIGALRM handler every ``PERIOD_S`` seconds, so that
samples also fall inside long calls, and ``scaled`` turns each op's wall time
into the time it would have taken at the reference speed:

    scaled = wall * REFERENCE_S[kind] / (reference time sampled during the op)

The drift does not slow all code alike, so there are two kinds of reference,
each like the work of some workloads: ``vector`` is one complex log-gamma
call over a 32k-point grid, like pdvol's row sums at large n; ``calls`` is
many log-gamma calls on 8 points, where the cost of each call dominates, as
in the smalln sweep.  Each workload names its kind in ``workloads.REFERENCE``.

The handler runs between bytecodes of the main thread, so a sample never
interrupts a call into compiled code; ``run_pass`` takes the samples' own time
out of the op they fell into.  ``REFERENCE_S`` only fixes the unit: every run
of a workload uses the same constant.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
from scipy import special

#: seconds between samples: each takes 0.3 to 1.5% of that
PERIOD_S = 0.25
GRID_POINTS = 1 << 15
SMALL_POINTS = 8
SMALL_CALLS = 400
#: an op shorter than WINDOW periods is scaled by the last WINDOW samples,
#: which damps the timer noise of one sample but follows a drift within a
#: second; a longer op by the samples taken during it
WINDOW = 3
#: median sample of each kind during the workloads' runs on an Intel Xeon
#: (Sapphire Rapids) 2-vCPU KVM guest
REFERENCE_S = {"vector": 3.6e-3, "calls": 0.78e-3}


class HostSpeed:
    def __init__(self, kind):
        t = np.linspace(0.0, 1.0, GRID_POINTS)
        grid = (0.5 + 4000.0 * t) + 1j * (6.0 * t - 3.0)
        small = grid[:: GRID_POINTS // SMALL_POINTS].copy()
        if kind == "vector":
            self._compute = lambda: special.loggamma(grid)
        elif kind == "calls":
            self._compute = lambda: [special.loggamma(small) for _ in range(SMALL_CALLS)]
        else:
            raise ValueError(f"unknown reference kind {kind!r}")
        self.reference_s = REFERENCE_S[kind]
        self.samples = []  # (start, seconds) of each reference computation
        for _ in range(WINDOW):
            self.sample()

    def sample(self):
        t0 = time.perf_counter()
        self._compute()
        self.samples.append((t0, time.perf_counter() - t0))

    @contextlib.contextmanager
    def running(self):
        """Sample every PERIOD_S seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def level(self, since):
        """Reference time over the samples from index ``since`` on, or over
        the last WINDOW samples when fewer were taken since."""
        start = min(since, len(self.samples) - WINDOW)
        return statistics.median(d for _, d in self.samples[start:])

    def sampled_between(self, t0, t1, since):
        """Seconds spent sampling from t0 to t1, among samples from ``since`` on."""
        return sum(d for start, d in self.samples[since:] if t0 <= start < t1)

    def relative(self):
        """Speed of the host over all samples, relative to the reference."""
        return self.reference_s / statistics.median(d for _, d in self.samples)

    def scaled(self, times, levels):
        """Per-op wall times at the reference speed, from one pass's times
        and the reference times sampled during each op."""
        return {name: t * self.reference_s / levels[name] for name, t in times.items()}
