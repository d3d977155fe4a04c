"""Tests for queue-occupancy timelines and the AVDQ numbers derived from them."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SimulationError
from repro.common.intervals import IntervalRecorder
from repro.common.timeline import OccupancyTimeline
from repro.dva.result import DecoupledResult


def _timeline(pairs):
    timeline = OccupancyTimeline("AVDQ")
    for enter, length in pairs:
        timeline.record(enter, enter + length)
    return timeline


def _decoupled_result(timeline, total_cycles):
    """A decoupled result that carries nothing but an AVDQ timeline."""
    return DecoupledResult(
        program="p",
        latency=1,
        total_cycles=total_cycles,
        instructions=0,
        bypass_enabled=False,
        fu1_busy=IntervalRecorder("FU1"),
        fu2_busy=IntervalRecorder("FU2"),
        port_busy=IntervalRecorder("LD"),
        avdq_occupancy=timeline,
    )


class TestOccupancyTimeline:
    def test_record_and_histogram(self):
        timeline = OccupancyTimeline("AVDQ", capacity=4)
        timeline.record(0, 10)
        timeline.record(5, 12)
        histogram = timeline.occupancy_histogram(total_cycles=20)
        assert histogram.count(2) == 5
        assert histogram.count(1) == 7
        assert histogram.count(0) == 8

    def test_empty_counts_all_cycles_at_zero(self):
        histogram = OccupancyTimeline("AVDQ").occupancy_histogram(total_cycles=50)
        assert histogram.as_dict() == {0: 50}

    def test_overlapping_elements(self):
        histogram = _timeline([(0, 10), (5, 10), (5, 3)]).occupancy_histogram(20)
        assert histogram.as_dict() == {1: 10, 3: 3, 2: 2, 0: 5}

    def test_zero_cycles(self):
        assert _timeline([(0, 5)]).occupancy_histogram(total_cycles=0).total() == 0

    def test_zero_length_residency_ignored(self):
        timeline = OccupancyTimeline("AVDQ")
        timeline.record(3, 3)
        assert len(timeline) == 0

    def test_negative_residency_raises(self):
        with pytest.raises(SimulationError, match="before it enters"):
            OccupancyTimeline("AVDQ").record(10, 5)

    def test_last_leave(self):
        timeline = OccupancyTimeline("AVDQ")
        assert timeline.last_leave() == 0
        timeline.record(0, 10)
        timeline.record(2, 4)
        assert timeline.last_leave() == 10

    @given(
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 20)), max_size=12),
        st.integers(0, 80),
    )
    def test_histogram_and_avdq_numbers_equal_a_per_cycle_count(self, pairs, total_cycles):
        levels = [
            sum(enter <= cycle < enter + length for enter, length in pairs)
            for cycle in range(total_cycles)
        ]
        expected = {}
        for level in levels:
            expected[level] = expected.get(level, 0) + 1
        result = _decoupled_result(_timeline(pairs), total_cycles)
        assert result.avdq_histogram().as_dict() == expected
        assert result.max_avdq_occupancy() == max(levels, default=0)
        mean = sum(levels) / total_cycles if total_cycles else 0.0
        assert result.mean_avdq_occupancy() == mean
        assert result.avdq_histogram() is result.avdq_histogram()
