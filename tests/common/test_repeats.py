"""Repeats: one entry standing for many shifted copies of a run of intervals.

The sweeps read a repeat directly and may cut its periodic middle, counting
one window of it many times.  Every check here compares a sweep with the
same intervals materialized — every copy recorded as an interval of its own
— including the cases where the cut must be refused or narrowed: another
entry's edge inside it, a period wider than Δ, a single copy, an empty
period and a second recorder in the same sweep.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.common.intervals import IntervalRecorder, _plan, state_breakdown


def _repeated(name, before, period, delta, times, after):
    """A recorder of ``before``, ``period`` repeated, then ``after`` (start, end) pairs."""
    recorder = IntervalRecorder(name)
    for start, end in before:
        recorder.record(start, end)
    first = len(recorder.starts)
    for start, end in period:
        recorder.record(start, end)
    recorder.repeat(first, len(recorder.starts), delta, times)
    for start, end in after:
        recorder.record(start, end)
    return recorder


def _materialized(recorder):
    copy = IntervalRecorder(recorder.name)
    for start, end in recorder.intervals():
        copy.record(start, end)
    return copy


def _assert_sweeps_match(recorders, total_cycles):
    plain = [_materialized(recorder) for recorder in recorders]
    assert not any(recorder.repeats for recorder in plain)
    repeated = state_breakdown(recorders, total_cycles)
    expected = state_breakdown(plain, total_cycles)
    assert repeated == expected
    assert list(repeated) == list(expected)
    for recorder, copy in zip(recorders, plain):
        assert len(recorder) == len(copy)
        assert recorder.busy_time() == copy.busy_time()
        assert recorder.last_end() == copy.last_end()
        assert recorder.merged_pairs() == copy.merged_pairs()
        assert recorder.coverage(total_cycles) == copy.coverage(total_cycles)


def _cuts(recorders, total_cycles):
    return _plan(recorders, [1 << (8 * i) for i in range(len(recorders))], total_cycles)[1]


class TestRecording:
    def test_intervals_expand_each_repeat_where_it_was_recorded(self):
        recorder = _repeated("u", [(0, 2)], [(3, 4), (5, 7)], 10, 2, [(40, 41)])
        assert recorder.intervals() == [
            (0, 2), (3, 4), (5, 7), (13, 14), (15, 17), (23, 24), (25, 27), (40, 41)
        ]
        assert len(recorder) == 8
        assert recorder.last_end() == 41

    def test_an_empty_period_or_no_copies_records_nothing(self):
        recorder = _repeated("u", [(0, 2)], [], 10, 5, [])
        recorder.repeat(0, 1, 10, 0)
        assert recorder.repeats == []

    def test_a_repeat_must_follow_the_previous_one_and_move_forward(self):
        recorder = _repeated("u", [], [(0, 2), (3, 4)], 10, 2, [])
        with pytest.raises(SimulationError):
            recorder.repeat(0, 1, 10, 2)
        with pytest.raises(SimulationError):
            recorder.repeat(2, 3, 10, 2)
        recorder.record(50, 51)
        with pytest.raises(SimulationError):
            recorder.repeat(2, 3, 0, 2)

    def test_extend_carries_repeats_at_their_new_indices(self):
        combined = _repeated("a", [(0, 1)], [(2, 4)], 5, 3, [])
        combined.extend(_repeated("b", [(1, 2)], [(3, 6)], 5, 3, []))
        assert combined.repeats == [(1, 2, 5, 3), (3, 4, 5, 3)]
        _assert_sweeps_match([combined], 40)


class TestCuts:
    def test_a_long_clean_repeat_is_cut_in_its_middle(self):
        recorder = _repeated("u", [(0, 4)], [(10, 13), (15, 18)], 10, 50, [(600, 610)])
        [(cut, copies, delta)] = _cuts([recorder], 700)
        assert delta == 10 and copies >= 45
        assert 18 - 10 <= cut and cut + (copies + 1) * delta <= 600
        _assert_sweeps_match([recorder], 700)

    def test_a_foreign_edge_inside_the_middle_narrows_the_cut(self):
        recorder = _repeated(
            "u", [], [(10, 13), (15, 18)], 10, 50, [(252, 253), (600, 610)]
        )
        [(cut, copies, delta)] = _cuts([recorder], 700)
        assert not cut < 252 < cut + (copies + 1) * delta
        assert not cut < 253 < cut + (copies + 1) * delta
        _assert_sweeps_match([recorder], 700)

    def test_total_cycles_inside_the_middle_narrows_the_cut(self):
        recorder = _repeated("u", [], [(10, 13)], 10, 50, [])
        [(cut, copies, delta)] = _cuts([recorder], 255)
        assert cut + (copies + 1) * delta <= 255
        _assert_sweeps_match([recorder], 255)

    def test_a_period_wider_than_delta_narrows_the_cut(self):
        # Copies overlap, and the coverage repeats only once every copy
        # overlapping a cycle is present: from hi - Δ on.
        recorder = _repeated("u", [], [(0, 25)], 10, 20, [])
        [(cut, copies, delta)] = _cuts([recorder], 500)
        assert cut >= 25 - 10 and cut + (copies + 1) * delta <= 0 + 21 * 10
        _assert_sweeps_match([recorder], 500)

    def test_a_period_wider_than_its_copies_settle_is_refused(self):
        recorder = _repeated("u", [], [(0, 50)], 10, 3, [])
        assert _cuts([recorder], 500) == []
        _assert_sweeps_match([recorder], 500)

    def test_a_single_copy_is_refused(self):
        recorder = _repeated("u", [], [(0, 3)], 10, 1, [])
        assert _cuts([recorder], 100) == []
        _assert_sweeps_match([recorder], 100)

    def test_an_empty_period_is_refused(self):
        recorder = _repeated("u", [(0, 3)], [], 10, 30, [])
        assert _cuts([recorder], 400) == []
        _assert_sweeps_match([recorder], 400)

    def test_another_recorders_edge_inside_the_middle_refuses_the_cut(self):
        repeated = _repeated("a", [], [(0, 3)], 10, 6, [])
        other = _repeated("b", [(15, 16), (35, 36), (55, 56)], [], 10, 1, [])
        assert _cuts([repeated, other], 100) == []
        _assert_sweeps_match([repeated, other], 100)

    def test_two_recorders_repeating_together_share_one_cut(self):
        # One jump repeats both units' periods with the same Δ and copies.
        first = _repeated("a", [], [(0, 3), (6, 8)], 10, 40, [])
        second = _repeated("b", [], [(2, 7)], 10, 40, [])
        [(cut, copies, delta)] = _cuts([first, second], 500)
        assert copies >= 35
        _assert_sweeps_match([first, second], 500)

    def test_repeats_with_different_deltas_keep_out_of_each_other(self):
        first = _repeated("a", [], [(0, 3)], 10, 40, [])
        second = _repeated("b", [], [(100, 104)], 7, 40, [])
        cuts = _cuts([first, second], 600)
        for cut, copies, delta in cuts:
            for other, _, _ in cuts:
                assert other == cut or not cut < other < cut + (copies + 1) * delta
        _assert_sweeps_match([first, second], 600)


_pairs = st.lists(
    st.tuples(st.integers(0, 400), st.integers(1, 30)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=6,
)
_periods = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 40)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=5,
)


@st.composite
def _recorders(draw):
    """One or two recorders, each with loose intervals and up to two repeats."""
    recorders = []
    delta = draw(st.integers(1, 30))
    for position in range(draw(st.integers(1, 2))):
        recorder = IntervalRecorder(f"R{position}")
        for start, end in draw(_pairs):
            recorder.record(start, end)
        for _ in range(draw(st.integers(0, 2))):
            base = draw(st.integers(0, 300))
            first = len(recorder.starts)
            for start, end in draw(_periods):
                recorder.record(base + start, base + end)
            # Repeats of one jump share Δ; others may differ.
            step = delta if draw(st.booleans()) else draw(st.integers(1, 30))
            recorder.repeat(first, len(recorder.starts), step, draw(st.integers(1, 25)))
            for start, end in draw(_pairs):
                recorder.record(start, end)
        recorders.append(recorder)
    return recorders


@settings(max_examples=300, deadline=None)
@given(_recorders(), st.integers(0, 1200))
def test_sweeps_equal_the_materialized_intervals(recorders, total_cycles):
    _assert_sweeps_match(recorders, total_cycles)
