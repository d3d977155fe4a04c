"""Tests for the statistics helpers."""


import pytest
from hypothesis import given, strategies as st

from repro.common.stats import Histogram


class TestHistogram:
    def test_add_and_count(self):
        histogram = Histogram()
        histogram.add(3)
        histogram.add(3, 4)
        histogram.add(7)
        assert histogram.count(3) == 5
        assert histogram.count(7) == 1
        assert histogram.count(99) == 0
        assert histogram.total() == 6

    def test_zero_weight_is_noop(self):
        histogram = Histogram()
        histogram.add(1, 0)
        assert histogram.total() == 0
        assert len(histogram) == 0

    def test_keys_sorted(self):
        histogram = Histogram()
        for key in (9, 1, 5):
            histogram.add(key)
        assert [key for key, _ in histogram.items()] == [1, 5, 9]
        assert histogram.max_key() == 9

    def test_mean(self):
        histogram = Histogram()
        histogram.add(2, 3)
        histogram.add(10, 1)
        assert histogram.mean() == pytest.approx(4.0)
        assert Histogram().mean() == 0.0

    def test_equality_and_as_dict(self):
        first = Histogram()
        second = Histogram()
        first.add(2, 2)
        second.add(2)
        second.add(2)
        assert first == second
        assert first.as_dict() == {2: 2}

    @given(st.lists(st.integers(0, 20), max_size=100))
    def test_total_matches_number_of_observations(self, values):
        histogram = Histogram()
        for value in values:
            histogram.add(value)
        assert histogram.total() == len(values)
