"""Busy-interval bookkeeping for event-driven simulation.

The reference and decoupled simulators do not step cycle by cycle.  Instead,
each hardware resource (functional unit, memory port) records the half-open
intervals ``[start, end)`` during which it was occupied, and a fast-forward
over repeated kernel invocations records each skipped run of intervals as
one *repeat* (:meth:`IntervalRecorder.repeat`).  :func:`state_breakdown`
recovers the eight-state execution breakdown of Figure 1 exactly with one
sweep over the interval edges, and the same sweep yields a recorder's busy
time and its coverage (:meth:`IntervalRecorder.coverage`), which for a
queue recorded one ``[enter, leave)`` residency per element is the
occupancy histogram of Figure 6.  Both results are plain dicts of cycles.

The sweep reads repeats directly: it expands only the copies near each end
of a repeat and counts the periodic middle once (see :func:`_sweep`), so a
repeat costs about as much as the few copies it expands, however many it
stands for.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import SimulationError

#: A cut must remove at least this many copies of a repeat.  Removing one
#: copy saves no more than the one window of cycles that stands in for it.
MIN_CUT_COPIES = 2


class IntervalRecorder:
    """Accumulates busy intervals for one resource.

    The recorder accepts intervals in any order and tolerates overlapping
    pushes: a cycle counts as busy when any interval covers it.  It is the
    building block used by the simulators to describe functional-unit and
    memory-port occupancy, and queue residencies: one ``[enter, leave)``
    interval per queue element, whose coverage count is the occupancy.

    Intervals are stored as two parallel integer lists, :attr:`starts` and
    :attr:`ends`.  They are the interface the simulators' issue loops use:
    a loop records one interval per issued instruction by appending to both
    lists directly, and every interval it appends is non-empty.  Other
    callers use :meth:`record`.  :attr:`repeats` holds one
    ``(first, last, delta, times)`` entry per :meth:`repeat`: the intervals
    at list indices ``[first, last)`` recur ``times`` more times, shifted by
    ``delta``, ``2·delta``, ..., ``times·delta`` cycles.
    """

    __slots__ = ("name", "starts", "ends", "repeats")

    def __init__(self, name: str) -> None:
        self.name = name
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.repeats: list[tuple[int, int, int, int]] = []

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

    def repeat(self, first: int, last: int, delta: int, times: int) -> None:
        """Record that intervals ``[first, last)`` recur ``times`` more times.

        Copy ``j`` (1 ≤ j ≤ ``times``) is every interval of the range shifted
        ``j·delta`` cycles later.  An empty range or no copies records
        nothing.  Ranges index the interval lists, must follow the previous
        repeat's range and need a positive ``delta``.
        """
        if last <= first or times <= 0:
            return
        floor = self.repeats[-1][1] if self.repeats else 0
        if delta <= 0 or first < floor or last > len(self.starts):
            raise SimulationError(
                f"resource {self.name!r}: cannot repeat intervals [{first}, {last}) "
                f"by {delta} cycles (repeats start at {floor}, "
                f"{len(self.starts)} intervals recorded)"
            )
        self.repeats.append((first, last, delta, times))

    def extend(self, other: "IntervalRecorder") -> None:
        """Record every interval of ``other`` as well, its repeats included."""
        offset = len(self.starts)
        self.starts += other.starts
        self.ends += other.ends
        self.repeats += [
            (first + offset, last + offset, delta, times)
            for first, last, delta, times in other.repeats
        ]

    def intervals(self) -> List[Tuple[int, int]]:
        """Every interval with the repeats expanded, in the order recorded."""
        pairs = list(zip(self.starts, self.ends))
        expanded: List[Tuple[int, int]] = []
        done = 0
        for first, last, delta, times in self.repeats:
            expanded += pairs[done:last]
            period = pairs[first:last]
            for copy in range(1, times + 1):
                shift = copy * delta
                expanded += [(start + shift, end + shift) for start, end in period]
            done = last
        return expanded + pairs[done:]

    def merged_pairs(self) -> List[Tuple[int, int]]:
        """The intervals merged into disjoint sorted (start, end) pairs.

        Touching intervals merge.  This expands every repeat; the sweeps do
        not call it.
        """
        merged: List[Tuple[int, int]] = []
        for start, end in sorted(self.intervals()):
            if merged and start <= merged[-1][1]:
                if end > merged[-1][1]:
                    merged[-1] = (merged[-1][0], end)
            else:
                merged.append((start, end))
        return merged

    def last_end(self) -> int:
        """The latest end of any interval (0 when none was recorded)."""
        return max(
            [max(self.ends, default=0)]
            + [max(self.ends[first:last]) + times * delta
               for first, last, delta, times in self.repeats]
        )

    def busy_time(self) -> int:
        """Total number of distinct cycles during which the resource was busy."""
        end = self.last_end()
        return end - _sweep([self], (1,), end).get(0, 0)

    def coverage(self, total_cycles: int) -> Dict[int, int]:
        """Cycles of ``[0, total_cycles)`` covered by each number of intervals.

        The dict maps a level to its cycles, in the order levels are first
        held.  Cycles no interval covers count at level zero, so the values
        sum to ``total_cycles`` (the dict is empty when that is not positive).
        """
        return _sweep([self], (1,), total_cycles)

    def __len__(self) -> int:
        """The number of intervals, each repeat's copies included."""
        return len(self.starts) + sum(
            (last - first) * times for first, last, _, times in self.repeats
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalRecorder(name={self.name!r}, intervals={len(self)})"


def state_breakdown(
    recorders: Sequence[IntervalRecorder], total_cycles: int
) -> Dict[Tuple[bool, ...], int]:
    """Partition ``[0, total_cycles)`` by which resources are busy.

    The result maps a tuple of busy flags, one per recorder in the order
    given, to the cycles spent in exactly that pattern; for the paper's
    ``(FU2, FU1, LD)`` the eight patterns are Figure 1's states.

    Each recorder's coverage count (how many of its intervals cover a
    cycle) gets its own bit field of one packed level, wide enough for the
    recorder's interval count, and one :func:`_sweep` yields the cycles per
    level.  A recorder is busy where its field is non-zero.  The cost is
    proportional to the number of intervals swept, not to the number of
    cycles simulated.
    """
    weights, fields = [], []
    offset = 0
    for recorder in recorders:
        width = max(len(recorder).bit_length(), 1)
        weights.append(1 << offset)
        fields.append((offset, (1 << width) - 1))
        offset += width
    cycles: Dict[Tuple[bool, ...], int] = {}
    for level, count in _sweep(recorders, weights, total_cycles).items():
        key = tuple(level >> shift & mask != 0 for shift, mask in fields)
        cycles[key] = cycles.get(key, 0) + count
    return cycles


def _events(starts: Sequence[int], ends: Sequence[int], weight: int) -> List[Tuple[int, int]]:
    """``(time, step)`` level changes of intervals, each adding ``weight``.

    When no two intervals share a start or an end (a unit's own intervals
    never do), a start and an end at one time cancel and are left out, so
    back-to-back intervals cost one event pair, not two.
    """
    up, down = set(starts), set(ends)
    if len(up) == len(starts) and len(down) == len(ends):
        starts, ends = up - down, down - up
    return list(zip(starts, repeat(weight))) + list(zip(ends, repeat(-weight)))


class _Repeat:
    """One repeat of one recorder: copy 0's events, span and periodic region.

    Copy 0 is the repeat's own intervals, spanning ``[lo, hi)``.  Copies 0
    to ``times`` cover ``[lo, hi + times·Δ)``, and their coverage equals the
    full Δ-periodic sum on ``[hi − Δ, lo + (times + 1)·Δ)``: the *periodic
    region* ``[low, high)``.
    """

    __slots__ = ("events", "delta", "times", "lo", "hi", "low", "high")

    def __init__(self, recorder, weight, first, last, delta, times) -> None:
        starts, ends = recorder.starts[first:last], recorder.ends[first:last]
        self.events = _events(starts, ends, weight)
        self.delta = delta
        self.times = times
        self.lo = min(starts)
        self.hi = max(ends)
        self.low = self.hi - delta
        self.high = self.lo + (times + 1) * delta


class _Family:
    """Repeats of one Δ whose periodic regions overlap, swept as one.

    ``[low, high)`` is the intersection of the members' periodic regions,
    where a cut may fall.  ``span`` holds every edge of every copy and every
    cut the family may get; other families' cuts keep out of it.
    """

    __slots__ = ("delta", "members", "low", "high", "span", "cut", "copies")

    def __init__(self, member: _Repeat) -> None:
        self.delta = member.delta
        self.members: List[_Repeat] = []
        self.low, self.high = member.low, member.high
        self.span = (member.low, member.high)
        #: The cut's start and the copies it removes (0: no cut).
        self.cut = self.copies = 0
        self.add(member)

    def overlaps(self, member: _Repeat) -> bool:
        return member.delta == self.delta and member.low < self.high and member.high > self.low

    def add(self, member: _Repeat) -> None:
        self.members.append(member)
        self.low = max(self.low, member.low)
        self.high = min(self.high, member.high)
        self.span = (
            min(self.span[0], member.lo, member.low),
            max(self.span[1], member.hi + member.times * self.delta, member.high),
        )

    def find_cut(self, blocked: List[Tuple[int, int]]) -> None:
        """Choose the widest cut of ``[low, high)`` that avoids ``blocked``.

        A cut of ``m`` copies starting at ``c`` needs ``[c, c + (m+1)·Δ)``
        inside ``[low, high)`` with no edge of another entry strictly inside
        it.  There the family's coverage repeats every Δ, so ``[c, c + m·Δ)``
        holds ``m`` times the window ``[c, c + Δ)``, and the coverage at
        ``c + m·Δ`` is the coverage at ``c + Δ``.
        """
        cursor = self.low
        for lo, hi in sorted(blocked) + [(self.high, self.high)]:
            copies = (min(lo, self.high) - cursor) // self.delta - 1
            if copies >= max(self.copies + 1, MIN_CUT_COPIES):
                self.copies, self.cut = copies, cursor
            cursor = max(cursor, hi)

    def copies_to_expand(self, member: _Repeat) -> List[int]:
        """The copies of ``member`` with an edge the cut does not skip.

        The sweep skips the edges in ``(c + Δ, c + m·Δ]``, so a copy whose
        edges all fall there is never expanded.
        """
        delta, times = self.delta, member.times
        if not self.copies:
            return list(range(times + 1))
        early = (self.cut + delta - member.lo) // delta
        late = (self.cut + self.copies * delta - member.hi) // delta + 1
        if late <= early + 1:
            return list(range(times + 1))
        return list(range(min(early, times) + 1)) + list(range(max(late, 0), times + 1))


def _families(repeats: List[_Repeat]) -> List[_Family]:
    """Group repeats of one Δ whose periodic regions overlap."""
    families: List[_Family] = []
    for member in sorted(repeats, key=lambda member: (member.delta, member.low)):
        if families and families[-1].overlaps(member):
            families[-1].add(member)
        else:
            families.append(_Family(member))
    return families


def _plan(
    recorders: Sequence[IntervalRecorder], weights: Sequence[int], total_cycles: int
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int, int]]]:
    """The sorted ``(time, step)`` events a sweep reads, and its cuts.

    A cut ``(c, m, Δ)`` is the middle of one :class:`_Family`, chosen where
    no edge of any other entry falls: an interval outside the family's
    repeat ranges, another family, or ``total_cycles``.  That is checked on
    the intervals themselves; a family without a cut expands every copy.
    The events hold every interval outside the repeat ranges and every copy
    with an edge outside the cuts' jumps.
    """
    events: List[Tuple[int, int]] = []
    repeats: List[_Repeat] = []
    for recorder, weight in zip(recorders, weights):
        starts, ends = recorder.starts, recorder.ends
        if recorder.repeats:
            loose_starts: List[int] = []
            loose_ends: List[int] = []
            done = 0
            for first, last, delta, times in recorder.repeats:
                repeats.append(_Repeat(recorder, weight, first, last, delta, times))
                loose_starts += starts[done:first]
                loose_ends += ends[done:first]
                done = last
            starts, ends = loose_starts + starts[done:], loose_ends + ends[done:]
        events += _events(starts, ends, weight)
    events.sort()
    if not repeats:
        return events, []

    cuts = []
    copies: List[Tuple[int, int]] = []
    families = _families(repeats)
    for family in families:
        inside = events[bisect_left(events, (family.low,)):bisect_left(events, (family.high,))]
        blocked = [(time, time) for time, _ in inside] + [
            other.span for other in families if other is not family
        ]
        # Only [0, total_cycles) is swept.
        blocked += [(min(family.low, 0), 0), (total_cycles, max(total_cycles, family.high))]
        family.find_cut(blocked)
        if family.copies:
            cuts.append((family.cut, family.copies, family.delta))
        for member in family.members:
            for copy in family.copies_to_expand(member):
                shift = copy * family.delta
                copies += [(time + shift, step) for time, step in member.events]
    events += copies
    events.sort()
    return events, sorted(cuts)


def _sweep(
    recorders: Sequence[IntervalRecorder], weights: Sequence[int], total_cycles: int
) -> Dict[int, int]:
    """Cycles of ``[0, total_cycles)`` at each level of a packed coverage count.

    The level at a cycle is the sum over recorders of ``weight`` times the
    number of the recorder's intervals covering it, so copies of intervals
    add linearly.  Levels appear in the order they are first held, and the
    result sums to ``total_cycles`` (it is empty when that is not positive).

    The events come from :func:`_plan`.  At a cut ``(c, m, Δ)`` the sweep
    counts the window ``[c, c + Δ)`` ``m`` times, then skips the events of
    ``(c + Δ, c + m·Δ]`` and goes on at ``c + m·Δ`` with the level it had
    at ``c + Δ``: in the cut the level repeats every Δ.
    """
    if total_cycles <= 0:
        return {}
    events, cuts = _plan(recorders, weights, total_cycles)
    cycles: Dict[int, int] = {}
    get = cycles.get
    level = previous = index = 0
    for cut, copies, delta in cuts + [(total_cycles, 0, 0)]:
        for limit, factor in ((cut, 1), (cut + delta, copies)):
            if limit < total_cycles:
                stop = bisect_left(events, (limit + 1,))
            else:
                stop = bisect_left(events, (total_cycles,))
            for time, step in events[index:stop]:
                if time > previous:
                    cycles[level] = get(level, 0) + (time - previous) * factor
                    previous = time
                level += step
            index = stop
            if limit > previous:
                cycles[level] = get(level, 0) + (limit - previous) * factor
                previous = limit
            if not copies:
                break
        if copies:
            previous = cut + copies * delta
            index = bisect_left(events, (previous + 1,))
    return cycles
