"""Unit tests for lane-occupancy arithmetic."""

import pytest

from repro.common.errors import ConfigurationError
from repro.engine import occupancy_cycles


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
