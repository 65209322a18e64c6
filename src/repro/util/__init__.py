"""Shared utilities: unit parsing, deterministic RNG streams, statistics."""

from repro.util.units import (
    parse_size,
    parse_duration,
    parse_bandwidth,
    KB,
    MB,
    GB,
    TB,
    MS,
    SECOND,
    MINUTE,
    HOUR,
)
from repro.util.rng import RngRegistry
from repro.util.stats import OnlineStats, percentile

__all__ = [
    "parse_size",
    "parse_duration",
    "parse_bandwidth",
    "KB",
    "MB",
    "GB",
    "TB",
    "MS",
    "SECOND",
    "MINUTE",
    "HOUR",
    "RngRegistry",
    "OnlineStats",
    "percentile",
]
