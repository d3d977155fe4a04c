"""Busy-interval bookkeeping for event-driven simulation.

The reference and decoupled simulators do not step cycle by cycle.  Instead,
each hardware resource (functional unit, memory port) records the half-open
intervals ``[start, end)`` during which it was occupied.  A recorder merges
its intervals once per result; :func:`state_breakdown` then recovers the
eight-state execution breakdown of Figure 1 exactly with one sweep over the
merged edges, and :func:`level_cycles` is that sweep, shared with the queue
occupancy histogram of :mod:`repro.common.timeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.common.errors import SimulationError


class IntervalRecorder:
    """Accumulates busy intervals for one resource.

    The recorder accepts intervals in any order and tolerates overlapping
    pushes (overlaps are merged when the intervals are read back).  It is the
    building block used by the simulators to describe functional-unit and
    memory-port occupancy.

    Intervals are stored as two parallel integer lists, :attr:`starts` and
    :attr:`ends`.  They are the interface the simulators' issue loops use:
    a loop records one interval per issued instruction by appending to both
    lists directly, and every interval it appends is non-empty.  Other
    callers use :meth:`record`.
    """

    __slots__ = ("name", "starts", "ends", "_merged", "_merged_count")

    def __init__(self, name: str) -> None:
        self.name = name
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._merged: list[tuple[int, int]] = []
        self._merged_count = 0

    def record(self, start: int, end: int) -> None:
        """Record that the resource was busy over ``[start, end)``.

        Zero-length intervals are ignored so callers do not need to special
        case instructions that occupy a unit for zero cycles (for example a
        vector instruction with vector length zero).
        """
        if end > start:
            self.starts.append(start)
            self.ends.append(end)
        elif end < start:
            raise SimulationError(
                f"resource {self.name!r}: busy interval ends ({end}) before it starts ({start})"
            )

    def extend(self, other: "IntervalRecorder") -> None:
        """Record every interval of ``other`` as well."""
        self.starts += other.starts
        self.ends += other.ends

    def merged_pairs(self) -> list[tuple[int, int]]:
        """The recorded intervals merged into disjoint sorted (start, end) pairs.

        Touching intervals merge.  Recording only appends, so the merge is
        kept until the next record: a result's state breakdown and busy time
        share one merge.  Callers must not mutate the returned list.
        """
        if self._merged_count != len(self.starts):
            merged = []
            pairs = sorted(zip(self.starts, self.ends))
            first, last = pairs[0]
            for start, end in pairs:
                if start > last:
                    merged.append((first, last))
                    first, last = start, end
                elif end > last:
                    last = end
            merged.append((first, last))
            self._merged = merged
            self._merged_count = len(pairs)
        return self._merged

    def busy_time(self) -> int:
        """Total number of distinct cycles during which the resource was busy."""
        return sum(end - start for start, end in self.merged_pairs())

    def __len__(self) -> int:
        return len(self.starts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalRecorder(name={self.name!r}, intervals={len(self.starts)})"


def level_cycles(deltas: Dict[int, int], total_cycles: int) -> Dict[int, int]:
    """Cycles of ``[0, total_cycles)`` spent at each level of a running sum.

    ``deltas`` maps a cycle to the signed change of the level at that cycle;
    the level is 0 before the first change.  Changes at or after
    ``total_cycles`` are ignored.  Levels appear in the order they are first
    held, and the result sums to ``total_cycles`` (it is empty when that is
    not positive).
    """
    cycles: Dict[int, int] = {}
    level = previous = 0
    for time in sorted(deltas):
        if time >= total_cycles:
            break
        if time > previous:
            cycles[level] = cycles.get(level, 0) + time - previous
            previous = time
        level += deltas[time]
    if total_cycles > previous:
        cycles[level] = cycles.get(level, 0) + total_cycles - previous
    return cycles


@dataclass
class StateBreakdown:
    """Cycles spent in each combination of busy resources.

    The paper describes the reference machine with a 3-tuple
    ``(FU2, FU1, LD)`` and partitions execution time into the eight possible
    busy/idle combinations.  :func:`state_breakdown` computes this partition
    for an arbitrary number of resources; keys are tuples of booleans in the
    order the recorders were supplied.
    """

    resource_names: tuple[str, ...]
    cycles: dict[tuple[bool, ...], int] = field(default_factory=dict)
    total_cycles: int = 0

    def cycles_in(self, *busy: bool) -> int:
        """Cycles spent with exactly the given busy pattern."""
        return self.cycles.get(tuple(busy), 0)

    def cycles_all_idle(self) -> int:
        """Cycles spent with every resource idle — the paper's ``( , , )`` state."""
        return self.cycles_in(*([False] * len(self.resource_names)))


def state_breakdown(
    recorders: Sequence[IntervalRecorder], total_cycles: int
) -> StateBreakdown:
    """Partition ``[0, total_cycles)`` by which resources are busy.

    Recorder ``i`` owns bit ``i`` of a busy mask.  Each merged interval adds
    its bit at its start and subtracts it at its end (a recorder's merged
    intervals are disjoint, so its bit is never added twice), and one
    :func:`level_cycles` sweep over the edges yields the cycles per mask.
    The cost is proportional to the number of merged intervals, not to the
    number of cycles simulated.
    """
    deltas: Dict[int, int] = {}
    for position, recorder in enumerate(recorders):
        bit = 1 << position
        for start, end in recorder.merged_pairs():
            deltas[start] = deltas.get(start, 0) + bit
            deltas[end] = deltas.get(end, 0) - bit
    positions = range(len(recorders))
    return StateBreakdown(
        resource_names=tuple(recorder.name for recorder in recorders),
        cycles={
            tuple(bool(mask >> position & 1) for position in positions): count
            for mask, count in level_cycles(deltas, total_cycles).items()
        },
        total_cycles=total_cycles,
    )
