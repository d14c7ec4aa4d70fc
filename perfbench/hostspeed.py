"""Host speed, sampled between the program's operations.

On a shared host the speed at which this process executes Python changes
by a quarter from one second to the next and drifts for minutes, with the
same code and the same inputs.  Wall times of ten runs then spread more
than any useful regression bound.  So the benchmark times a fixed
reference kernel, in this thread's CPU time, every few tens of
milliseconds between the program's operations, and reports each measured
duration scaled to a host on which the kernel takes :data:`REFERENCE_S`::

    scaled = measured * REFERENCE_S / median(kernel times nearest to it)

The kernel is benchmark code, the same on every commit, so a change to
the program moves a scaled time by the same share as the raw one; only
the host's speed cancels.  Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter, thread_time
from typing import List

#: Kernel time, in seconds, of the reference host that scaled times refer to.
REFERENCE_S = 0.001
#: Kernel samples whose median gives the speed at a point in time.
NEAREST = 9
#: Least time between two kernel samples taken by :meth:`HostSpeed.maybe_tick`.
EVERY_S = 0.05

_KEYS = [f"sensor-{index:04d}" for index in range(256)]
_TABLE = dict.fromkeys(_KEYS, 0)
_VALUES = list(range(256))


def kernel() -> int:
    """Dictionary updates, string hashing and integer arithmetic, like the
    program's own inner loops.  It allocates no objects that the garbage
    collector tracks but one ``zip`` per pass, so it does not set off
    collections of the program's objects."""
    table = _TABLE
    total = 0
    for _ in range(18):
        for key, value in zip(_KEYS, _VALUES):
            table[key] = table[key] + value
            total += len(key) ^ value
    return total


class HostSpeed:
    """Kernel times sampled through a run, and durations scaled by them."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.cost: List[float] = []

    def tick(self) -> None:
        start = thread_time()
        kernel()
        cost = thread_time() - start
        self.at.append(perf_counter())
        self.cost.append(cost)

    def maybe_tick(self) -> None:
        """Tick if the last tick is more than :data:`EVERY_S` ago."""
        if not self.at or perf_counter() - self.at[-1] >= EVERY_S:
            self.tick()

    def factor(self, when: float) -> float:
        """``REFERENCE_S`` over the median kernel time nearest to *when*."""
        if not self.cost:
            return 1.0
        index = bisect.bisect_left(self.at, when)
        low = max(0, min(index - NEAREST // 2, len(self.cost) - NEAREST))
        return REFERENCE_S / statistics.median(self.cost[low:low + NEAREST])

    def scaled(self, when: float, duration: float) -> float:
        return duration * self.factor(when)

    def relative(self) -> float:
        """The run's host speed: ``REFERENCE_S`` over the median kernel time."""
        return REFERENCE_S / statistics.median(self.cost) if self.cost else 1.0
