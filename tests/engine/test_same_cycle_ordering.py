"""Same-cycle enqueue/dequeue ordering rules, pinned as regression tests.

The timestamp-arithmetic simulators never step cycles, so every "who goes
first within one cycle" question is answered by a convention baked into
:class:`~repro.dva.queues.TimedQueue`,
:class:`~repro.common.intervals.IntervalRecorder` and
:class:`~repro.engine.ResourcePool`.  Each one is pinned here:

* a queue entry may be popped on the very cycle it was pushed (zero
  residency is legal), but never earlier;
* a queue slot is reusable on the cycle its entry is released — the blocking
  time is the pop cycle itself, not the cycle after;
* busy intervals are half-open ``[start, end)``: a resource handed over at a
  cycle boundary is busy each cycle exactly once, and zero-length intervals
  are no-ops rather than errors.
"""

import pytest

from repro.common.errors import SimulationError
from repro.common.intervals import Interval, IntervalRecorder
from repro.dva.queues import TimedQueue
from repro.engine import ResourcePool


class TestTimedQueueSameCycleRules:
    def test_pop_on_the_push_cycle_is_legal(self):
        queue = TimedQueue("iq", capacity=4)
        queue.push(5)
        queue.pop(5)
        assert queue.outstanding == 0

    def test_pop_before_the_push_cycle_raises(self):
        queue = TimedQueue("iq", capacity=4)
        queue.push(5)
        with pytest.raises(SimulationError, match="precedes push"):
            queue.pop(4)

    def test_slot_is_reusable_on_the_release_cycle_not_after(self):
        queue = TimedQueue("iq", capacity=1)
        queue.push(0)
        queue.pop(5)
        assert queue.earliest_push(3) == 5
        assert queue.push(3) == 5  # accepted at the pop cycle, not 6

    def test_push_stall_charges_exactly_the_blocked_cycles(self):
        queue = TimedQueue("iq", capacity=1)
        queue.push(0)
        queue.pop(5)
        queue.push(3)
        assert queue.push_stall_cycles == 2

    def test_push_is_unblocked_under_capacity(self):
        queue = TimedQueue("iq", capacity=2)
        queue.push(9)
        assert queue.earliest_push(0) == 0
        assert queue.push(0) == 0

    def test_earliest_push_is_the_later_of_request_and_release(self):
        queue = TimedQueue("iq", capacity=1)
        queue.push(0)
        queue.pop(7)
        for requested in (0, 6, 7, 8, 20):
            assert queue.earliest_push(requested) == max(7, requested)

    def test_push_requires_the_consumer_to_have_run(self):
        # Pushing into a full queue whose blocking entry the consumer has not
        # released yet is a program-order bug and must fail loudly.
        queue = TimedQueue("iq", capacity=1)
        queue.push(0)
        with pytest.raises(SimulationError, match="has not been released yet"):
            queue.earliest_push(0)
        with pytest.raises(SimulationError, match="has not been released yet"):
            queue.push(0)

    def test_same_cycle_push_then_pop_round_trip(self):
        # A full capacity-1 pipeline: every entry lives zero cycles and the
        # queue still accepts one entry per cycle with no stalls.
        queue = TimedQueue("iq", capacity=1)
        for cycle in range(4):
            assert queue.push(cycle) == cycle
            queue.pop(cycle)
        assert queue.push_stall_cycles == 0


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
        assert recorder.busy_at(4)
        assert not recorder.busy_at(5)
        assert not Interval(0, 5).overlaps(Interval(5, 8))

    def test_last_end_is_the_handover_cycle(self):
        recorder = IntervalRecorder("FU")
        recorder.record(2, 6)
        assert recorder.last_end() == 6


class TestResourcePoolSameCycleRules:
    def test_unit_is_reacquirable_on_its_free_cycle(self):
        pool = ResourcePool("LD", 1)
        assert pool.acquire(0, 5) == (0, 0)
        # The next acquisition starts on the cycle the unit frees, not after.
        start, unit = pool.acquire(0, 3)
        assert (start, unit) == (5, 0)
        assert pool.free[0] == 8

    def test_occupy_then_acquire_agree_on_the_boundary(self):
        pool = ResourcePool("LD", 1)
        pool.occupy(0, 5)
        assert pool.free[0] == 5
        start, _unit = pool.acquire(5, 2)
        assert start == 5
        assert pool.free[0] == 7
