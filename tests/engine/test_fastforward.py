"""The fast-forward walk over invocation marks, and the fingerprints it compares.

The walk is driven here by a toy machine whose state is a clock, so the
tests can say exactly when a match happens and what a jump must produce.
The fingerprint tests take a real issue loop to the middle of a paper
program and check that every live part of its state shows in the
fingerprint, while a stale value (one no future read can pick) does not.
"""

import pytest

from repro.common.intervals import IntervalRecorder
from repro.core import MachineSpec
from repro.dva.simulator import DecoupledSimulator
from repro.engine.fastforward import consume, relative
from repro.refarch.simulator import ReferenceSimulator
from repro.trace.columns import Trace
from repro.workloads.perfect_club import load_program

CYCLES_PER_ROW = 3


class Clock:
    """A machine that spends three cycles per row, each recorded as busy.

    ``phase(invocations)`` is the part of its fingerprint that is not a
    timestamp: the walk may jump only when it repeats.
    """

    def __init__(self, phase):
        self.phase = phase
        self.horizon = 0
        self.rows = 0
        self.invocations = 0
        self.issued = []
        self.busy = IntervalRecorder("clock")
        self.timelines = [self.busy]

    def issue(self, trace, start, stop):
        self.issued.append((start, stop))
        for _ in range(start, stop):
            self.busy.record(self.horizon, self.horizon + CYCLES_PER_ROW)
            self.horizon += CYCLES_PER_ROW
            self.rows += 1
        self.invocations += 1

    def fingerprint(self):
        return self.phase(self.invocations)

    def counters(self):
        return [(self, "rows"), (self, "invocations")]

    def shift(self, cycles):
        self.horizon += cycles


def _trace(invocations, rows=4, prologue=2, kernel=0):
    trace = Trace("toy")
    for _ in range(prologue):
        trace.append_row(0, 1, 1, -1)
    for _ in range(invocations):
        trace.marks.append((kernel, len(trace)))
        for row in range(rows):
            trace.append_row(row, 8, 1, 64 * row)
    return trace


def _replayed(trace, phase):
    machine = Clock(phase)
    skipped = consume(machine, trace)
    return machine, skipped


def test_relative_writes_values_below_the_floor_as_none():
    assert relative([3, 10, 12], origin=10, floor=10) == [None, 0, 2]


def test_a_trace_without_marks_is_issued_in_one_range():
    trace = _trace(5)
    trace.marks = []
    machine, skipped = _replayed(trace, lambda n: 0)
    assert skipped == 0
    assert machine.issued == [(0, len(trace))]


def test_a_steady_state_skips_the_rest_of_the_run_exactly():
    trace = _trace(10)
    plain = Clock(lambda n: 0)
    consume(plain, trace.unmarked())
    # Warm-up: the non-timestamp state settles after three invocations.
    machine, skipped = _replayed(trace, lambda n: min(n, 3))
    # Prologue, then invocations 0-2 simulated; at invocation 3's mark the
    # state repeats invocation 2's, so invocations 3-9 are skipped.
    assert machine.issued == [(0, 2), (2, 6), (6, 10), (10, 14)]
    assert skipped == 7 * 4
    assert (machine.horizon, machine.rows, machine.busy.intervals()) == (
        plain.horizon,
        plain.rows,
        plain.busy.intervals(),
    )
    # The seven skipped invocations are one repeat of invocation 2's rows.
    assert machine.busy.repeats == [(10, 14, 4 * CYCLES_PER_ROW, 7)]
    assert plain.busy.repeats == []


def test_an_alternating_state_skips_whole_periods_of_two():
    trace = _trace(10)
    # The prologue's state differs; from then on the state alternates.
    machine, skipped = _replayed(trace, lambda n: "cold" if n < 2 else n % 2)
    # Invocations 0-2 run; at 3 the state matches 1's and 7 invocations
    # remain: three periods of two are skipped and the last invocation runs.
    assert skipped == 6 * 4
    assert machine.issued[-1] == (38, 42)
    assert machine.rows == 10 * 4 + 2


def test_rows_that_do_not_repeat_are_simulated():
    trace = _trace(6)
    trace.vl[-1] = 7  # the last invocation differs in one row
    machine, skipped = _replayed(trace, lambda n: 0)
    assert skipped == 0
    assert len(machine.issued) == 7


def test_runs_of_different_kernels_are_matched_separately():
    trace = _trace(3, kernel=0)
    tail = _trace(3, prologue=0, kernel=1)
    for kernel, row in tail.marks:
        trace.marks.append((kernel, row + len(trace)))
    for row in range(len(tail)):
        trace.append_row(tail.insn[row], tail.vl[row], tail.stride[row], tail.addr[row])
    machine, skipped = _replayed(trace, lambda n: 0)
    # Each run of three matches at its second invocation and skips two.
    assert skipped == 2 * 2 * 4


# -- fingerprints of the real issue loops ---------------------------------------------


@pytest.fixture(scope="module")
def bdna():
    return load_program("BDNA").build_trace()


def _mid_run(state, trace):
    """Issue ``trace`` up to a mark in the middle of its last kernel run."""
    state.issue(trace, 0, trace.marks[len(trace.marks) - 3][1])
    return state


def _fresh_dva(trace):
    return _mid_run(DecoupledSimulator(MachineSpec(family="dva"), 50), trace)


def _newest_scalar_store(state):
    return next(store for store in reversed(state.memory.pending_stores) if not store.is_vector)


def _bump(values, index=0):
    values[index] += 1


#: Changes to live DVA state, each of which a future step can see.
DVA_MUTATIONS = {
    "fetch pointer": lambda s: setattr(s, "fp_free", s.fp_free + 1),
    "FU2 free": lambda s: _bump(s.fu_free, 1),
    "QMOV free": lambda s: _bump(s.qmov_free),
    "port free": lambda s: _bump(s.memory.fabric.port_free),
    "cache tag": lambda s: s.memory.fabric.cache.tags.__setitem__(1, 12345),
    "SP pointer": lambda s: setattr(s, "sp_free", max(s.sp_free, s.fp_free) + 1),
    "newest VPIQ entry": lambda s: s.vpiq.append(s.horizon + 5),
    "newest AVDQ entry": lambda s: s.avdq.append(s.horizon + 5),
    "bypass free": lambda s: setattr(s.memory, "bypass_free", s.horizon + 5),
    "newest VSAQ pop": lambda s: s.memory.vector_pops.append(s.horizon + 5),
    "newest SSAQ pop": lambda s: s.memory.scalar_pops.append(s.horizon + 5),
    "SSAQ push": lambda s: setattr(
        _newest_scalar_store(s), "address_ready", _newest_scalar_store(s).address_ready + 1
    ),
    "live register": lambda s: s.scoreboard.ready.__setitem__(
        0, max(s.scoreboard.ready[0], s.fp_free) + 1
    ),
}


def test_every_live_part_of_the_dva_state_is_in_its_fingerprint(bdna):
    assert _newest_scalar_store(_fresh_dva(bdna)), "the mark should find a queued store"
    for name, mutate in DVA_MUTATIONS.items():
        state = _fresh_dva(bdna)
        before = state.fingerprint()
        mutate(state)
        assert state.fingerprint() != before, name


def test_stale_dva_values_are_left_out_of_its_fingerprint(bdna):
    state = _fresh_dva(bdna)
    before = state.fingerprint()
    fetch = state.fp_free
    floor = max(state.ap_free, fetch)
    stale_registers = [
        index for index, ready in enumerate(state.scoreboard.ready) if ready < fetch
    ]
    stale_avdq = [index for index, time in enumerate(state.avdq) if time < floor]
    assert stale_registers and stale_avdq
    # Any value below its floor reads as stale, whatever it is.
    state.scoreboard.ready[stale_registers[0]] = fetch - 1
    state.scoreboard.owner[stale_registers[0]] = "elsewhere"
    state.avdq[stale_avdq[0]] = floor - 1
    state.memory.bypass_free = floor - 1
    assert state.fingerprint() == before


def test_every_live_part_of_the_ref_state_is_in_its_fingerprint(bdna):
    def fresh():
        return _mid_run(ReferenceSimulator(MachineSpec(family="ref"), 50), bdna)

    mutations = {
        "dispatch pointer": lambda s: setattr(s, "dispatch_free", s.dispatch_free + 1),
        "FU1 free": lambda s: _bump(s.fu_free),
        "port free": lambda s: _bump(s.fabric.port_free),
        "cache tag": lambda s: s.fabric.cache.tags.__setitem__(1, 12345),
        "live register": lambda s: s.scoreboard.ready.__setitem__(
            0, max(s.scoreboard.ready[0], s.dispatch_free) + 1
        ),
    }
    for name, mutate in mutations.items():
        state = fresh()
        before = state.fingerprint()
        mutate(state)
        assert state.fingerprint() != before, name


@pytest.mark.parametrize("family", ["ref", "dva"])
def test_a_shift_moves_every_live_time_together(bdna, family):
    """A skipped invocation shifts the state; its fingerprint must not move."""
    simulator = ReferenceSimulator if family == "ref" else DecoupledSimulator
    state = _mid_run(simulator(MachineSpec(family=family), 50), bdna)
    before = state.fingerprint()
    fu_free = list(state.fu_free)
    fabric = state.fabric if family == "ref" else state.memory.fabric
    port_free = list(fabric.port_free)
    state.shift(1000)
    assert state.fu_free == [free + 1000 for free in fu_free]
    assert fabric.port_free == [free + 1000 for free in port_free]
    assert state.fingerprint() == before
