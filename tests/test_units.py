"""Unit tests + property tests for quantity parsing."""

import pytest
from hypothesis import given, strategies as st

from repro.util.units import (
    GB,
    HOUR,
    KB,
    MB,
    MINUTE,
    MS,
    TB,
    UnitParseError,
    parse_bandwidth,
    parse_duration,
    parse_size,
)


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("5G", 5 * GB),
        ("5GB", 5 * GB),
        ("4 KB", 4 * KB),
        ("10M", 10 * MB),
        ("2T", 2 * TB),
        ("128", 128),
        ("1.5K", int(1.5 * KB)),
        (4096, 4096),
    ])
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["5X", "G5", "", "5 G B"])
    def test_invalid(self, text):
        with pytest.raises(UnitParseError):
            parse_size(text)


class TestParseDuration:
    @pytest.mark.parametrize("text,expected", [
        ("800 ms", 0.8),
        ("800ms", 0.8),
        ("30 seconds", 30.0),
        ("120 hours", 120 * HOUR),
        ("7.5 minutes", 7.5 * MINUTE),
        ("2 d", 2 * 24 * HOUR),
        ("15", 15.0),
        (0.25, 0.25),
    ])
    def test_valid(self, text, expected):
        assert parse_duration(text) == pytest.approx(expected)

    def test_invalid_suffix(self):
        with pytest.raises(UnitParseError):
            parse_duration("5 parsecs")


class TestParseBandwidth:
    @pytest.mark.parametrize("text,expected", [
        ("40KB/s", 40 * KB),
        ("100KB/s", 100 * KB),
        ("1MB/s", 1 * MB),
        ("500Mbps", 500 * MB / 8),
        (1000, 1000.0),
    ])
    def test_valid(self, text, expected):
        assert parse_bandwidth(text) == pytest.approx(expected)

    def test_per_minute_rejected(self):
        with pytest.raises(UnitParseError):
            parse_bandwidth("40KB/min")


class TestProperties:
    @given(st.integers(min_value=0, max_value=10**15))
    def test_size_identity_on_ints(self, n):
        assert parse_size(n) == n

    @given(st.floats(min_value=0.001, max_value=10**6,
                     allow_nan=False, allow_infinity=False))
    def test_duration_bare_number_is_seconds(self, x):
        assert parse_duration(str(x)) == pytest.approx(x)

    @given(st.integers(min_value=1, max_value=1000),
           st.sampled_from(["KB", "MB", "GB"]))
    def test_size_monotone_in_unit(self, n, unit):
        order = ["KB", "MB", "GB"]
        idx = order.index(unit)
        if idx + 1 < len(order):
            assert parse_size(f"{n}{unit}") < parse_size(f"{n}{order[idx+1]}")

    @given(st.integers(min_value=1, max_value=10**6))
    def test_ms_is_thousandth(self, n):
        assert parse_duration(f"{n} ms") == pytest.approx(n * MS)
