"""Occupancy timelines for queues.

Figure 6 of the paper plots, for each benchmark, how many cycles the AVDQ
(the vector load data queue) held 0, 1, 2, ... busy slots.  The decoupled
simulator records one ``(enter, leave)`` pair per queue element; the
:class:`OccupancyTimeline` turns them into +1/-1 deltas and sweeps those once
with :func:`~repro.common.intervals.level_cycles` to reconstruct the
per-cycle occupancy histogram without stepping cycles.
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import SimulationError
from repro.common.intervals import level_cycles
from repro.common.stats import Histogram


class OccupancyTimeline:
    """Records element residencies of a bounded queue and derives statistics.

    Residencies live in two parallel integer lists, :attr:`enters` and
    :attr:`leaves`, one entry per queue element.  Like
    :class:`~repro.common.intervals.IntervalRecorder`'s interval lists, they
    are the interface an issue loop appends to directly, one residency per
    element, each ending after it starts; other callers use :meth:`record`.
    """

    __slots__ = ("name", "capacity", "enters", "leaves")

    def __init__(self, name: str, capacity: int | None = None) -> None:
        self.name = name
        self.capacity = capacity
        self.enters: list[int] = []
        self.leaves: list[int] = []

    def record(self, enter: int, leave: int) -> None:
        """Record that one element occupied a slot during ``[enter, leave)``."""
        if leave > enter:
            self.enters.append(enter)
            self.leaves.append(leave)
        elif leave < enter:
            raise SimulationError(
                f"queue element leaves ({leave}) before it enters ({enter})"
            )

    def occupancy_histogram(self, total_cycles: int) -> Histogram:
        """Cycles spent at each occupancy level over ``[0, total_cycles)``.

        Cycles after the last element leaves count as occupancy zero, so a
        non-empty histogram sums to ``total_cycles``.
        """
        deltas: Dict[int, int] = {}
        for enter in self.enters:
            deltas[enter] = deltas.get(enter, 0) + 1
        for leave in self.leaves:
            deltas[leave] = deltas.get(leave, 0) - 1
        histogram = Histogram()
        for level, cycles in level_cycles(deltas, total_cycles).items():
            histogram.add(level, cycles)
        return histogram

    def last_leave(self) -> int:
        """Cycle at which the last element left the queue (0 when never used)."""
        return max(self.leaves, default=0)

    def __len__(self) -> int:
        return len(self.enters)
