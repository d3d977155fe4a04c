"""Unit tests for the timestamped FIFO behind every DVA queue.

The same-cycle push/pop conventions are pinned in
``tests/engine/test_same_cycle_ordering.py``; these tests cover the rest of
the queue's contract: construction, FIFO order, the ready column, the
caller-legalized fast path and the occupancy records statistics read.
"""

import pytest

from repro.common.errors import SimulationError
from repro.dva.queues import TimedQueue


class TestConstruction:
    @pytest.mark.parametrize("capacity", [0, -1])
    def test_non_positive_capacity_is_refused(self, capacity):
        with pytest.raises(SimulationError, match="positive capacity"):
            TimedQueue("AVDQ", capacity)

    def test_new_queue_is_empty(self):
        queue = TimedQueue("AVDQ", 4)
        assert len(queue) == 0
        assert queue.outstanding == 0
        assert queue.push_stall_cycles == 0


class TestFifoOrder:
    def test_front_follows_push_order(self):
        queue = TimedQueue("AVDQ", 4)
        queue.push(0, ready=30)
        queue.push(1, ready=10)
        assert queue.front_index() == 0
        assert queue.front_ready() == 30
        queue.pop(30)
        # The second entry was ready earlier, but FIFO order made it wait.
        assert queue.front_index() == 1
        assert queue.front_ready() == 10

    def test_ready_defaults_to_the_push_cycle(self):
        queue = TimedQueue("APIQ", 2)
        queue.push(7)
        assert queue.front_ready() == 7

    def test_last_index_tracks_the_newest_entry(self):
        queue = TimedQueue("VSAQ", 4)
        queue.push(0)
        queue.push(0)
        assert queue.last_index == 1

    def test_last_index_of_an_empty_queue_raises(self):
        with pytest.raises(SimulationError, match="is empty"):
            TimedQueue("VSAQ", 4).last_index

    def test_pop_without_an_outstanding_entry_raises(self):
        queue = TimedQueue("VADQ", 2)
        queue.push(0)
        queue.pop(0)
        with pytest.raises(SimulationError, match="no outstanding entry"):
            queue.pop(1)
        with pytest.raises(SimulationError, match="no outstanding entry"):
            queue.front_ready()


class TestPushAt:
    def test_push_at_skips_capacity_and_stall_accounting(self):
        queue = TimedQueue("SPIQ", 1)
        queue.push(0)
        queue.pop(9)
        # The caller already legalized the cycle; the queue takes it as is.
        queue.push_at(9, 10)
        assert queue.push_stall_cycles == 0
        assert queue.push_times == [0, 9]
        assert queue.ready_times == [0, 10]
        assert queue.outstanding == 1


class TestOccupancy:
    def test_outstanding_counts_pushed_minus_popped(self):
        queue = TimedQueue("AVDQ", 8)
        for cycle in range(3):
            queue.push(cycle)
        queue.pop(5)
        assert queue.outstanding == 2
        assert len(queue) == 3

    def test_timeline_records_each_residency(self):
        queue = TimedQueue("AVDQ", 8)
        queue.push(0)
        queue.push(2)
        queue.pop(4)
        queue.pop(6)
        histogram = queue.occupancy_timeline().occupancy_histogram(8)
        # [0, 2): one entry; [2, 4): two; [4, 6): one; [6, 8): empty.
        assert histogram.as_dict() == {0: 2, 1: 4, 2: 2}

    def test_unreleased_entries_last_until_the_horizon(self):
        queue = TimedQueue("AVDQ", 8)
        queue.push(3)
        timeline = queue.occupancy_timeline("renamed", horizon=10)
        assert timeline.name == "renamed"
        assert timeline.capacity == 8
        assert timeline.last_leave() == 10
