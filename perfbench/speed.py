"""Reference-speed timing.

On a shared host the speed of a CPU swings between two states, up to 2x
apart, every fraction of a second to every few seconds, as other tenants
load the physical core.  Raw wall times of one workload then spread by
20-30 % between runs.  ``SpeedProbe`` interrupts the process every
``PROBE_INTERVAL_S`` and times a fixed piece of exact-rational arithmetic,
the same kind of work the program does.  ``reference_seconds`` rescales each
stretch of wall time between two probes by ``REFERENCE_PROBE_S`` over the
probes' durations: the result is the wall time the same work would take at
the reference speed, and leaves out the probes' own time.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.025
# The probe's duration on an idle core of the 2-vCPU Xeon host the
# benchmark was calibrated on; reference seconds are seconds at that speed.
REFERENCE_PROBE_S = 270e-6


def _probe_kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 61):
        total += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, i % 11 + 1)
    return total


class SpeedProbe:
    """Samples the CPU speed by SIGALRM while active (a context manager)."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous_handler = None

    def __enter__(self) -> "SpeedProbe":
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of the work done between two clock readings.

        The stretch before probe k runs at the mean speed of probes k-1 and
        k (only k for the first stretch, only the last probe after it).
        Without any probe the raw seconds are returned.
        """
        if not self.starts:
            return end - start
        n = len(self.starts)
        total = 0.0
        k = bisect.bisect_right(self.starts, start)
        cursor = start
        while cursor < end:
            prev_end = self.starts[k - 1] + self.durations[k - 1] if k > 0 else float("-inf")
            if cursor < prev_end:  # inside probe k-1: not the workload's time
                cursor = prev_end
                continue
            stretch_end = min(end, self.starts[k]) if k < n else end
            speeds = [1.0 / self.durations[j] for j in (k - 1, k) if 0 <= j < n]
            total += (stretch_end - cursor) * REFERENCE_PROBE_S * sum(speeds) / len(speeds)
            cursor = stretch_end
            k += 1
        return total

    def speed_factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end]."""
        return self.reference_seconds(start, end) / (end - start) if end > start else 1.0
