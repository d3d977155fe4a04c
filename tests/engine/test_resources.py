"""Unit tests for ResourcePool and lane-occupancy arithmetic."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.engine import ResourcePool, occupancy_cycles


class TestOccupancyCycles:
    def test_single_lane_is_identity(self):
        assert occupancy_cycles(64) == 64

    def test_zero_elements_still_cost_one_cycle(self):
        assert occupancy_cycles(0) == 1
        assert occupancy_cycles(0, lanes=4) == 1

    def test_lanes_divide_rounding_up(self):
        assert occupancy_cycles(64, lanes=2) == 32
        assert occupancy_cycles(65, lanes=2) == 33
        assert occupancy_cycles(3, lanes=8) == 1

    def test_invalid_lane_count_rejected(self):
        with pytest.raises(ConfigurationError):
            occupancy_cycles(8, lanes=0)


class TestConstruction:
    def test_single_unit_keeps_bare_name(self):
        pool = ResourcePool("LD")
        assert pool.unit_names == ("LD",)

    def test_multi_unit_names_are_numbered(self):
        pool = ResourcePool("LD", count=2)
        assert pool.unit_names == ("LD0", "LD1")

    def test_explicit_unit_names(self):
        pool = ResourcePool("FU", count=2, unit_names=("FU1", "FU2"))
        assert [r.name for r in pool.recorders] == ["FU1", "FU2"]

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourcePool("X", count=0)
        with pytest.raises(ConfigurationError):
            ResourcePool("X", count=2, unit_names=("only-one",))


class TestAcquire:
    def test_acquire_waits_for_the_unit(self):
        pool = ResourcePool("FU")
        start, unit = pool.acquire(0, 10)
        assert (start, unit) == (0, 0)
        start, unit = pool.acquire(3, 5)
        assert start == 10  # unit busy until 10

    def test_least_loaded_selection_first_unit_wins_ties(self):
        """The seed's ``fu1_free <= fu2_free`` rule: FU1 takes ties."""
        pool = ResourcePool("FU", count=2, unit_names=("FU1", "FU2"))
        assert pool.acquire(0, 10)[1] == 0  # tie at 0/0 -> FU1
        assert pool.acquire(0, 10)[1] == 1  # FU1 busy -> FU2
        assert pool.acquire(0, 4)[1] == 0  # tie at 10/10 -> FU1
        assert pool.acquire(0, 1)[1] == 1  # FU2 frees later than... FU1 at 14, FU2 at 10

    def test_pinned_unit_overrides_selection(self):
        pool = ResourcePool("FU", count=2)
        start, unit = pool.acquire(0, 10, unit=1)
        assert (start, unit) == (0, 1)
        # Pinned again even though unit 0 is idle.
        start, unit = pool.acquire(0, 5, unit=1)
        assert (start, unit) == (10, 1)

    def test_earliest_free_tracks_the_best_unit(self):
        pool = ResourcePool("LD", count=2)
        pool.acquire(0, 7)
        assert pool.free == [7, 0]
        pool.acquire(0, 3)
        assert pool.free == [7, 3]


class TestOccupy:
    def test_occupy_records_and_advances(self):
        pool = ResourcePool("AP")
        pool.occupy(5, 9)
        assert pool.free[0] == 9
        assert pool.recorder().busy_time() == 4

    def test_occupy_never_rewinds_free_time(self):
        pool = ResourcePool("AP")
        pool.occupy(0, 10)
        pool.occupy(2, 3)
        assert pool.free[0] == 10

    def test_backwards_interval_rejected(self):
        pool = ResourcePool("AP")
        with pytest.raises(SimulationError):
            pool.occupy(5, 4)


class TestRecording:
    def test_combined_recorder_single_unit_is_the_unit(self):
        pool = ResourcePool("LD")
        pool.acquire(0, 5)
        assert pool.combined_recorder() is pool.recorder()

    def test_combined_recorder_is_the_union_of_its_units(self):
        pool = ResourcePool("LD", count=2)
        for earliest, busy in ((0, 5), (2, 5), (3, 2), (9, 1), (12, 3), (12, 1)):
            pool.acquire(earliest, busy)
        combined = pool.combined_recorder()
        assert combined.name == "LD"
        assert len(combined) == sum(len(unit) for unit in pool.recorders)
        union = set()
        for unit in pool.recorders:
            union.update(c for start, end in unit.merged_pairs() for c in range(start, end))
        covered = {c for start, end in combined.merged_pairs() for c in range(start, end)}
        assert covered == union
        assert combined.merged_pairs() == [(0, 7), (9, 10), (12, 15)]
