"""The speed of the shared host, sampled while the program runs.

The host this benchmark was written on changes speed by tens of percent over
a fraction of a second to minutes, and a fixed loop slows down with the
program.  So while a run measures, a wall-clock timer interrupts the program
every ``PERIOD_S`` and runs a fixed reference loop; its seconds are the
host-speed samples.  Interpreter work and vectorised numpy work do not slow
down alike (numpy work moves about half as much), so each workload names the
reference that does its kind of work (``REFERENCES``).  A timed interval is
then reported as

    scaled = raw * REFERENCE_S / mean(samples within WINDOW_S of the interval)

where ``raw`` is the interval's wall time less the reference loops run inside
it.  A scaled time reads as seconds on a host where the loop takes
``REFERENCE_S``, its median on the host the bounds were set on.  The loop
calls nothing of the program, so a change of the program moves scaled times
as it moves raw ones.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
WINDOW_S = 0.25
_VALUES = np.arange(1 << 18, dtype=np.int64)


def interpreter_work() -> int:
    """Fixed interpreter work: tuple hashing, set and dict updates."""
    seen, counts = set(), {}
    for i in range(8_000):
        key = (i % 97, i % 89)
        seen.add(key)
        counts[key[0]] = counts.get(key[0], 0) + 1
    return len(seen) + len(counts)


def numpy_work() -> int:
    """Fixed vectorised work over 2^18 int64 values: shifts, masks, casts, minima."""
    low = np.full(_VALUES.shape, 255, dtype=np.uint8)
    for k in range(4):
        np.minimum(low, ((_VALUES >> k) & 255).astype(np.uint8), out=low)
    return int(low.sum())


# name: (reference work, REFERENCE_S: its median seconds per sample in runs
# on the host the bounds were set on, 2 vCPUs, Intel Xeon, Python 3.11,
# numpy 2.4)
REFERENCES = {
    "interpreter": (interpreter_work, 0.0038),
    "numpy": (numpy_work, 0.0026),
}


class HostSpeed:
    """A context manager that samples the host speed while it is entered."""

    def __init__(self, reference: str):
        self._work, self._reference_s = REFERENCES[reference]
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._old_handler = None
        self._busy: list[float] | None = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self._work()
        self.starts.append(t0)
        self.samples.append(perf_counter() - t0)

    def __enter__(self) -> HostSpeed:
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._busy = [0.0, *accumulate(self.samples)]

    def raw(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] less the reference loops run inside it."""
        i, j = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        return t1 - t0 - (self._busy[j] - self._busy[i])

    def scaled(self, t0: float, t1: float) -> float:
        """The interval's raw seconds at the reference host speed."""
        i = bisect_left(self.starts, t0 - WINDOW_S)
        j = bisect_right(self.starts, t1 + WINDOW_S)
        if i == j:
            raise RuntimeError("no host-speed sample near a timed interval")
        mean = (self._busy[j] - self._busy[i]) / (j - i)
        return self.raw(t0, t1) * self._reference_s / mean
