"""Same-cycle enqueue/dequeue ordering rules, pinned as regression tests.

The timestamp-arithmetic simulators never step cycles, so every "who goes
first within one cycle" question is answered by a convention baked into
the DVA's store queues (:class:`~repro.dva.address.MemoryPipeline`),
:class:`~repro.common.intervals.IntervalRecorder` and the memory ports'
pick (:meth:`~repro.engine.MemoryFabric.occupy_bus`).  Each one is pinned
here:

* a queue slot is reusable on the cycle its entry is released — the blocking
  time is the pop cycle itself, not the cycle after — so a push stall is
  exactly the blocked cycles; likewise a port can be taken again on the
  cycle it frees;
* busy intervals are half-open ``[start, end)``: a resource handed over at a
  cycle boundary is busy each cycle exactly once, and zero-length intervals
  are no-ops rather than errors.
"""

import pytest

from repro.common.errors import SimulationError
from repro.common.intervals import IntervalRecorder, state_breakdown
from repro.core import MachineSpec
from repro.dva.address import MemoryPipeline
from repro.engine import MemoryFabric


def _one_slot_ssaq():
    """A depth-1 SSAQ whose only store leaves at cycle 5 (a miss on [4, 5))."""
    pipeline = MemoryPipeline(MachineSpec(family="dva", scalar_store_address=1), 20)
    pipeline.enqueue_scalar_store(0x1000, requested=0)
    pipeline.attach_store_data(4)
    return pipeline


class TestStoreQueueSameCycleRules:
    def test_slot_is_reusable_on_the_release_cycle_not_after(self):
        pipeline = _one_slot_ssaq()
        assert pipeline.enqueue_scalar_store(0x2000, requested=3) == 5  # not 6
        assert pipeline.fabric.port_recorder().ends == [5]

    def test_push_stall_charges_exactly_the_blocked_cycles(self):
        pipeline = _one_slot_ssaq()
        requested = 3
        assert pipeline.enqueue_scalar_store(0x2000, requested) - requested == 2

    @pytest.mark.parametrize("requested", [0, 4, 5, 6, 20])
    def test_push_is_the_later_of_request_and_release(self, requested):
        pipeline = _one_slot_ssaq()
        assert pipeline.enqueue_scalar_store(0x2000, requested) == max(5, requested)

    def test_push_is_unblocked_under_capacity(self):
        pipeline = MemoryPipeline(MachineSpec(family="dva", scalar_store_address=2), 20)
        pipeline.enqueue_scalar_store(0x1000, requested=9)
        assert pipeline.enqueue_scalar_store(0x2000, requested=0) == 0

    def test_push_requires_the_blocking_store_to_have_its_data(self):
        # A full queue whose oldest store has no data yet cannot make room:
        # the QMOV producing the data must be simulated first.
        pipeline = MemoryPipeline(MachineSpec(family="dva", scalar_store_address=1), 20)
        pipeline.enqueue_scalar_store(0x1000, requested=0)
        with pytest.raises(SimulationError, match="has no data yet"):
            pipeline.enqueue_scalar_store(0x2000, requested=0)


class TestIntervalSameCycleRules:
    def test_zero_length_interval_is_ignored_not_an_error(self):
        recorder = IntervalRecorder("FU")
        recorder.record(5, 5)
        assert len(recorder) == 0
        assert recorder.busy_time() == 0

    def test_negative_interval_raises(self):
        recorder = IntervalRecorder("FU")
        with pytest.raises(SimulationError, match="before it starts"):
            recorder.record(5, 4)

    def test_boundary_handover_counts_each_cycle_once(self):
        recorder = IntervalRecorder("FU")
        recorder.record(0, 5)
        recorder.record(5, 8)
        assert recorder.merged_pairs() == [(0, 8)]
        assert recorder.busy_time() == 8

    def test_intervals_are_half_open_at_the_end(self):
        recorder = IntervalRecorder("FU")
        recorder.record(0, 5)
        recorder.record(6, 8)
        # Cycle 5 is free: [0, 5) ends before it and [6, 8) starts after it.
        assert recorder.merged_pairs() == [(0, 5), (6, 8)]
        assert recorder.busy_time() == 7
        breakdown = state_breakdown([recorder], total_cycles=8)
        assert breakdown == {(True,): 7, (False,): 1}

    def test_last_end_is_the_handover_cycle(self):
        recorder = IntervalRecorder("FU")
        recorder.record(2, 6)
        assert recorder.merged_pairs()[-1][1] == 6


class TestPortSameCycleRules:
    def test_unit_is_reacquirable_on_its_free_cycle(self):
        fabric = MemoryFabric(MachineSpec(family="ref"), 20)
        assert fabric.occupy_bus(0, 5, 8) == (0, 5)
        # The next reference starts on the cycle the port frees, not after.
        assert fabric.occupy_bus(0, 3, 8) == (5, 8)
        assert fabric.port_free == [8]

    def test_a_request_on_the_free_cycle_starts_on_it(self):
        fabric = MemoryFabric(MachineSpec(family="ref", memory_ports=2), 20)
        fabric.occupy_bus(0, 5, 8)
        fabric.occupy_bus(0, 6, 8)
        # LD0 frees at 5, LD1 at 6: a request at 5 takes LD0 at once.
        assert fabric.occupy_bus(5, 2, 8) == (5, 7)
        assert fabric.port_free == [7, 6]
