"""Host-speed calibration of the timed passes.

The 2-core guest this benchmark was built on changes speed by up to about
2x in stretches of seconds to minutes, so raw timings of the same code differ
by more than any useful bound from one run to the next.  A fixed task that
does what the package does -- Python arithmetic, ``scipy.integrate.quad``
with a Python integrand, small NumPy reductions -- is timed between
operations.  Each operation's time is scaled by REFERENCE_S over the time
of the calibrations just before and after it: the result is the time the
operation would take on a host where the task takes REFERENCE_S.

The task does not touch the package, so a change to the package moves the
scaled times as much as the raw ones.  A change that slows the interpreter
itself (a trace hook, a busy background thread) would slow the task too and
be partly scaled away.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np
from scipy.integrate import quad

#: Time of the calibration task on the reference host speed.
REFERENCE_S = 0.005
#: Least time between two calibrations inside the timed passes.
INTERVAL_S = 0.25

_GRID = np.linspace(0.0, 1.0, 64)


def task() -> float:
    total = 0.0
    for _ in range(8):
        for i in range(600):
            total += math.exp(-i * 1e-3) * math.sin(i) / (1.0 + i)
        for k in range(3):
            total += quad(lambda x: x ** (2.5 + k) * math.cos(x), 0.0, 1.0)[0]
        for _ in range(100):
            total += float(np.sum(_GRID * _GRID))
    return total


def task_seconds() -> float:
    start = time.perf_counter()
    task()
    return time.perf_counter() - start


class HostSpeed:
    """Calibrations taken during a run, by their start time."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._last_end = -math.inf

    def measure(self) -> None:
        start = time.perf_counter()
        task()
        self._last_end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(self._last_end - start)

    def measure_if_due(self) -> None:
        if time.perf_counter() - self._last_end >= INTERVAL_S:
            self.measure()

    def scale(self, t: float) -> float:
        """REFERENCE_S over the mean time of the calibrations around time t."""
        i = bisect.bisect(self.starts, t)
        around = self.durations[max(i - 1, 0): i + 1]
        return REFERENCE_S * len(around) / sum(around)
