"""Unit and property tests for busy-interval bookkeeping and coverage."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SimulationError
from repro.common.intervals import IntervalRecorder, state_breakdown

#: Up to eight (start, length) pairs on a small axis, so intervals overlap,
#: touch and run past ``total_cycles``; zero lengths exercise the no-op rule.
_intervals = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 20)), max_size=8
)


def _recorder(name, pairs):
    recorder = IntervalRecorder(name)
    for start, length in pairs:
        recorder.record(start, start + length)
    return recorder


class TestIntervalRecorder:
    def test_busy_time_merges_overlaps(self):
        recorder = IntervalRecorder("fu1")
        recorder.record(0, 10)
        recorder.record(5, 15)
        assert recorder.busy_time() == 15

    def test_zero_length_record_is_ignored(self):
        recorder = IntervalRecorder("fu1")
        recorder.record(4, 4)
        assert len(recorder) == 0
        assert recorder.merged_pairs() == []

    def test_invalid_record_raises(self):
        recorder = IntervalRecorder("fu1")
        with pytest.raises(SimulationError, match="before it starts"):
            recorder.record(10, 2)

    def test_last_end(self):
        recorder = IntervalRecorder("AVDQ")
        assert recorder.last_end() == 0
        recorder.record(0, 10)
        recorder.record(2, 4)
        assert recorder.last_end() == 10

    def test_merged_pairs_follow_later_records(self):
        recorder = IntervalRecorder("ld")
        recorder.record(10, 12)
        recorder.record(0, 2)
        assert recorder.merged_pairs() == [(0, 2), (10, 12)]
        recorder.record(2, 10)
        assert recorder.merged_pairs() == [(0, 12)]
        assert recorder.busy_time() == 12

    def test_appending_to_the_interval_lists_is_recording(self):
        recorded = _recorder("fu1", [(10, 2), (0, 4)])
        appended = IntervalRecorder("fu1")
        appended.merged_pairs()
        for start, end in [(10, 12), (0, 4)]:
            appended.starts.append(start)
            appended.ends.append(end)
        assert (appended.starts, appended.ends) == (recorded.starts, recorded.ends)
        assert appended.merged_pairs() == recorded.merged_pairs() == [(0, 4), (10, 12)]

    def test_extend_adds_the_other_recorders_intervals(self):
        first = _recorder("a", [(0, 5)])
        first.merged_pairs()
        first.extend(_recorder("b", [(8, 2)]))
        assert len(first) == 2
        assert first.merged_pairs() == [(0, 5), (8, 10)]

    @given(_intervals)
    def test_merged_pairs_cover_exactly_the_recorded_cycles(self, pairs):
        recorder = _recorder("fu", pairs)
        merged = recorder.merged_pairs()
        # Disjoint, sorted and never touching: touching intervals merge.
        for (_, first_end), (second_start, _) in zip(merged, merged[1:]):
            assert first_end < second_start
        covered = {cycle for start, end in merged for cycle in range(start, end)}
        recorded = {
            cycle for start, length in pairs for cycle in range(start, start + length)
        }
        assert covered == recorded
        assert recorder.busy_time() == len(recorded)


def _brute_force_breakdown(pair_lists, total_cycles):
    """Busy pattern of every cycle of ``[0, total_cycles)``, counted one by one."""
    cycles = {}
    for cycle in range(total_cycles):
        pattern = tuple(
            any(start <= cycle < start + length for start, length in pairs)
            for pairs in pair_lists
        )
        cycles[pattern] = cycles.get(pattern, 0) + 1
    return cycles


class TestStateBreakdown:
    def test_all_idle_when_no_intervals(self):
        fu2 = IntervalRecorder("FU2")
        fu1 = IntervalRecorder("FU1")
        ld = IntervalRecorder("LD")
        breakdown = state_breakdown([fu2, fu1, ld], total_cycles=100)
        assert breakdown == {(False, False, False): 100}

    def test_three_unit_partition(self):
        fu2 = IntervalRecorder("FU2")
        fu1 = IntervalRecorder("FU1")
        ld = IntervalRecorder("LD")
        fu2.record(0, 10)
        fu1.record(5, 15)
        ld.record(0, 20)
        breakdown = state_breakdown([fu2, fu1, ld], total_cycles=25)
        assert breakdown == {
            (True, False, True): 5,    # [0, 5)
            (True, True, True): 5,     # [5, 10)
            (False, True, True): 5,    # [10, 15)
            (False, False, True): 5,   # [15, 20)
            (False, False, False): 5,  # [20, 25)
        }

    def test_zero_total_cycles(self):
        breakdown = state_breakdown([_recorder("FU2", [(0, 5)])], total_cycles=0)
        assert breakdown == {}

    def test_flags_follow_the_order_of_the_recorders(self):
        fu2 = _recorder("FU2", [(0, 10)])
        ld = _recorder("LD", [(5, 10)])
        assert state_breakdown([fu2, ld], total_cycles=20) == {
            (True, False): 5, (True, True): 5, (False, True): 5, (False, False): 5,
        }
        assert state_breakdown([ld, fu2], total_cycles=20) == {
            (False, True): 5, (True, True): 5, (True, False): 5, (False, False): 5,
        }

    @given(st.lists(_intervals, min_size=1, max_size=4), st.integers(0, 80))
    def test_breakdown_equals_a_per_cycle_count(self, pair_lists, total_cycles):
        recorders = [
            _recorder(f"R{position}", pairs) for position, pairs in enumerate(pair_lists)
        ]
        breakdown = state_breakdown(recorders, total_cycles)
        expected = _brute_force_breakdown(pair_lists, total_cycles)
        assert breakdown == expected
        # Patterns appear in the order they are first held.
        assert list(breakdown) == list(expected)
        assert sum(breakdown.values()) == total_cycles


class TestCoverage:
    """A queue's residencies: the coverage count is the occupancy (Figure 6)."""

    def test_record_and_histogram(self):
        recorder = _recorder("AVDQ", [(0, 10), (5, 7)])
        assert recorder.coverage(total_cycles=20) == {0: 8, 1: 7, 2: 5}

    def test_empty_counts_all_cycles_at_zero(self):
        assert IntervalRecorder("AVDQ").coverage(total_cycles=50) == {0: 50}

    def test_overlapping_elements(self):
        histogram = _recorder("AVDQ", [(0, 10), (5, 10), (5, 3)]).coverage(20)
        assert histogram == {1: 10, 3: 3, 2: 2, 0: 5}

    def test_zero_cycles(self):
        assert _recorder("AVDQ", [(0, 5)]).coverage(total_cycles=0) == {}

    @pytest.mark.parametrize("start, order", [(3, [0, 1]), (0, [1, 0])])
    def test_levels_appear_in_the_order_first_held(self, start, order):
        coverage = _recorder("AVDQ", [(start, 4)]).coverage(total_cycles=10)
        assert list(coverage) == order
        assert coverage == {0: 6, 1: 4}

    @given(_intervals, st.integers(0, 80))
    def test_coverage_equals_a_per_cycle_count(self, pairs, total_cycles):
        expected = {}
        for cycle in range(total_cycles):
            level = sum(start <= cycle < start + length for start, length in pairs)
            expected[level] = expected.get(level, 0) + 1
        assert _recorder("AVDQ", pairs).coverage(total_cycles) == expected
