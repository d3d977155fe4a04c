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

    def test_new_queue_is_empty(self):
        queue = TimedQueue("VSAQ", 4)
        assert len(queue) == 0
        assert queue.outstanding == 0
        assert queue.push_stall_cycles == 0


class TestFifoOrder:
    def test_pops_release_entries_in_push_order(self):
        queue = TimedQueue("VADQ", 4)
        queue.push(0)
        queue.push(1)
        queue.pop(30)
        assert queue.pop_times == [30, None]
        queue.pop(31)
        assert queue.pop_times == [30, 31]

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
        assert len(queue) == 3
