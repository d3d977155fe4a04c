"""Exact steady-state fast-forward over repeated kernel invocations.

The paper's programs are loop kernels entered many times, and every
invocation of a kernel replays the same rows (:attr:`Trace.marks
<repro.trace.columns.Trace.marks>` says where each one starts).  Once an
issue loop settles, an invocation takes the machine from a state to the same
state shifted by a constant number of cycles Δ.  :func:`consume` walks the
marks, runs the loop's inner row-range loop between them, and at each mark
compares the loop's state with its state one or two invocations earlier in
the same run of one kernel.  On a match it jumps over every whole period
left in the run instead of simulating it.

The jump is exact, not an estimate.  The issue rules only add constants to
timestamps, take ``max`` over them and compare them with each other, so
simulating the same rows from a state shifted by Δ yields the same decisions
and every timestamp shifted by Δ.  A *fingerprint* therefore writes each
timestamp relative to the completion horizon, and two states match when
their fingerprints are equal.  Some values may differ without a shift:
a value below the lowest cycle any future read can start at (a *floor*, such
as the fetch pointer) can never win a future ``max``, so a fingerprint
writes it as ``None``.  :func:`relative` is that rule.  Floors only grow, so
a stale value stays stale.  Which values are stale, per structure, is
explained in ``docs/architecture.md``.

A loop that uses this module provides:

* ``horizon`` — the latest completion so far, the origin of a fingerprint;
* ``issue(trace, start, stop)`` — the inner loop over rows ``[start, stop)``;
* ``fingerprint()`` — its state at a mark, with timestamps relative to
  ``horizon`` (no state names a row, so nothing else is relative);
* ``counters()`` — its additive counters, as ``(object, attribute)`` pairs
  (built per call: a stored list holding the machine would be a reference
  cycle, keeping every finished machine alive until the cyclic collector
  runs);
* ``timelines`` — its interval recorders (busy intervals, queue
  residencies; :class:`~repro.common.intervals.IntervalRecorder`);
* ``shift(cycles)`` — move every timestamp ``cycles`` later.

A jump records the period's intervals in each recorder as one repeat
(:meth:`~repro.common.intervals.IntervalRecorder.repeat`: the period's
entries recur k more times, Δ cycles apart), adds the period's counter
deltas once per period and shifts the live state, so the result is
byte-identical to simulating every row, and a jump costs the same however
many periods it skips.  A trace without marks is simulated row by row.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

#: Invocations per period the walk tries.  Period 2 catches kernels that
#: alternate between two states, such as BDNA's bookkeeping loop handing its
#: work to FU1 and FU2 in turn.  On the paper grid, period 1 alone skips 52%
#: of the rows, periods 1 and 2 skip 84%, and periods 3 and 4 add nothing.
PERIODS = (1, 2)


def relative(values: Iterable[int], origin: int, floor: int) -> List[Optional[int]]:
    """``values`` relative to ``origin``, with every value below ``floor`` as ``None``."""
    return [None if value < floor else value - origin for value in values]


class _Snapshot:
    """What the walk remembers of the loop at one mark."""

    __slots__ = ("row", "horizon", "fingerprint", "counters", "lengths")

    def __init__(self, machine, row: int) -> None:
        self.row = row
        self.horizon = machine.horizon
        self.fingerprint = machine.fingerprint()
        self.counters = [getattr(owner, name) for owner, name in machine.counters()]
        self.lengths = [len(recorder.starts) for recorder in machine.timelines]


def consume(machine, trace) -> int:
    """Simulate every row of ``trace`` on ``machine``; return the rows skipped."""
    marks = trace.marks
    if not marks:
        machine.issue(trace, 0, len(trace))
        return 0
    machine.issue(trace, 0, marks[0][1])
    skipped = 0
    history: List[_Snapshot] = []
    count = len(marks)
    run_end = index = 0
    while index < count:
        kernel, row = marks[index]
        if index >= run_end:
            # A new run of one kernel: find where it ends.
            history = []
            run_end = index + 1
            while run_end < count and marks[run_end][0] == kernel:
                run_end += 1
        if history or index + 1 < run_end:
            snapshot = _Snapshot(machine, row)
            jumped = 0
            for period in PERIODS:
                if len(history) >= period:
                    earlier = history[-period]
                    if earlier.fingerprint == snapshot.fingerprint:
                        jumped = _jump(machine, trace, index, run_end, period, earlier, snapshot)
                        break
            if jumped:
                index += jumped
                skipped += _row(trace, index) - row
                history = []
                continue
            history = history[-1:] + [snapshot]
        index += 1
        machine.issue(trace, row, _row(trace, index))
    return skipped


def _row(trace, index: int) -> int:
    """The first row of mark ``index``; the trace's end past the last mark."""
    marks = trace.marks
    return marks[index][1] if index < len(marks) else len(trace)


def _jump(machine, trace, index: int, run_end: int, period: int,
          earlier: _Snapshot, now: _Snapshot) -> int:
    """Skip the whole periods left in the run; return the invocations skipped.

    ``earlier`` is the matching state ``period`` invocations before ``now``.
    The skip happens only if the rows ahead repeat the period's rows.
    """
    repeats = (run_end - index) // period
    period_rows = now.row - earlier.row
    end = _row(trace, index + repeats * period)
    if end - now.row != repeats * period_rows or not _rows_repeat(
        trace, earlier.row, now.row, end
    ):
        return 0
    delta = now.horizon - earlier.horizon
    for recorder, first, last in zip(machine.timelines, earlier.lengths, now.lengths):
        recorder.repeat(first, last, delta, repeats)
    for (owner, name), before, after in zip(machine.counters(), earlier.counters, now.counters):
        setattr(owner, name, getattr(owner, name) + (after - before) * repeats)
    machine.shift(repeats * delta)
    return repeats * period


def _rows_repeat(trace, first: int, start: int, end: int) -> bool:
    """Whether rows ``[start, end)`` repeat rows ``[first, start)`` over and over.

    Comparing the range with itself one period earlier checks every repeat
    with one slice comparison per column.
    """
    back = start - first
    return all(
        column[first : end - back] == column[start:end]
        for column in (trace.insn, trace.vl, trace.stride, trace.addr)
    )
