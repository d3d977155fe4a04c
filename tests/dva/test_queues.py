"""Unit tests for the timestamped FIFO behind the DVA's store queues.

The same-cycle push/pop conventions are pinned in
``tests/engine/test_same_cycle_ordering.py``; these tests cover the rest of
the queue's contract: construction, FIFO order and the occupancy count.
"""

import pytest

from repro.common.errors import SimulationError
from repro.dva.queues import TimedQueue


class TestConstruction:
    @pytest.mark.parametrize("capacity", [0, -1])
    def test_non_positive_capacity_is_refused(self, capacity):
        with pytest.raises(SimulationError, match="positive capacity"):
            TimedQueue("VSAQ", capacity)

    def test_new_queue_accepts_capacity_entries_without_waiting(self):
        queue = TimedQueue("VSAQ", 4)
        assert queue.outstanding == 0
        assert [queue.push(cycle) for cycle in range(4)] == [0, 1, 2, 3]


class TestFifoOrder:
    def test_pops_release_entries_in_push_order(self):
        queue = TimedQueue("VADQ", 2)
        queue.push(0)
        queue.push(10)
        # The head is the entry pushed at 0, so a pop at 5 is legal.
        queue.pop(5)
        queue.pop(31)
        # Each new entry waits for the entry two places back: 5, then 31.
        assert queue.push(0) == 5
        assert queue.push(0) == 31

    def test_pop_without_an_outstanding_entry_raises(self):
        queue = TimedQueue("VADQ", 2)
        queue.push(0)
        queue.pop(0)
        with pytest.raises(SimulationError, match="no outstanding entry"):
            queue.pop(1)


class TestOccupancy:
    def test_outstanding_counts_pushed_minus_popped(self):
        queue = TimedQueue("SSAQ", 8)
        for cycle in range(3):
            queue.push(cycle)
        queue.pop(5)
        assert queue.outstanding == 2

    def test_state_is_bounded_by_the_capacity(self):
        queue = TimedQueue("SSAQ", 3)
        for cycle in range(50):
            queue.push(cycle)
            if cycle >= 2:
                queue.pop(cycle)
        assert list(queue.pushes) == [48, 49]
        assert list(queue.pops) == [47, 48, 49]
