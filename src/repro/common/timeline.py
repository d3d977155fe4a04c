"""Occupancy timelines for queues.

Figure 6 of the paper plots, for each benchmark, how many cycles the AVDQ
(the vector load data queue) held 0, 1, 2, ... busy slots.  The decoupled
simulator records one ``[enter, leave)`` residency per queue element, in an
:class:`OccupancyTimeline`: an interval recorder whose coverage count is the
queue's occupancy, so one sweep of it reconstructs the per-cycle occupancy
histogram without stepping cycles, repeats included.
"""

from __future__ import annotations

from repro.common.errors import SimulationError
from repro.common.intervals import IntervalRecorder, _sweep
from repro.common.stats import Histogram


class OccupancyTimeline(IntervalRecorder):
    """Records element residencies of a bounded queue and derives statistics.

    Residencies are intervals: :attr:`starts` holds the enter cycles and
    :attr:`ends` the leave cycles, one entry per queue element, which an
    issue loop appends to directly; other callers use :meth:`record`.
    """

    __slots__ = ("capacity",)

    def __init__(self, name: str, capacity: int | None = None) -> None:
        super().__init__(name)
        self.capacity = capacity

    def record(self, enter: int, leave: int) -> None:
        """Record that one element occupied a slot during ``[enter, leave)``."""
        if leave < enter:
            raise SimulationError(
                f"queue element leaves ({leave}) before it enters ({enter})"
            )
        super().record(enter, leave)

    def occupancy_histogram(self, total_cycles: int) -> Histogram:
        """Cycles spent at each occupancy level over ``[0, total_cycles)``.

        Cycles after the last element leaves count as occupancy zero, so a
        non-empty histogram sums to ``total_cycles``.
        """
        histogram = Histogram()
        for level, cycles in _sweep([self], (1,), total_cycles).items():
            histogram.add(level, cycles)
        return histogram

    def last_leave(self) -> int:
        """Cycle at which the last element left the queue (0 when never used)."""
        return self.last_end()
