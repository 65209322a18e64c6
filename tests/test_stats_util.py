"""Tests for the statistics helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.stats import OnlineStats, percentile


class TestPercentile:
    def test_basic(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 50) == 3.0
        assert percentile(data, 100) == 5.0
        assert percentile(data, 25) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50) == 5.0

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50),
           st.floats(min_value=0, max_value=100, allow_nan=False))
    @settings(max_examples=60)
    def test_bounded_by_min_max(self, data, q):
        value = percentile(data, q)
        assert min(data) <= value <= max(data)


class TestOnlineStats:
    def test_matches_naive(self):
        data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        stats = OnlineStats()
        for x in data:
            stats.add(x)
        mean = sum(data) / len(data)
        assert stats.mean == pytest.approx(mean)
        assert stats.min == 1.0 and stats.max == 9.0

    def test_empty(self):
        stats = OnlineStats()
        assert stats.mean == 0.0

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4,
                              allow_nan=False), min_size=2, max_size=40))
    @settings(max_examples=60)
    def test_property_matches_naive(self, data):
        stats = OnlineStats()
        for x in data:
            stats.add(x)
        mean = sum(data) / len(data)
        assert stats.mean == pytest.approx(mean, abs=1e-6)
        assert stats.count == len(data)
