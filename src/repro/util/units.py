"""Unit parsing and formatting for the policy DSL and configuration.

The Wiera/Tiera policy notation uses human-readable quantities such as
``5G`` (tier capacity), ``40KB/s`` (copy bandwidth caps), ``800 ms``
(latency thresholds) and ``120 hours`` (cold-data thresholds).  This module
provides the canonical parsers.  Internally, sizes are bytes (int),
durations are seconds (float) and bandwidths are bytes/second (float).
"""

from __future__ import annotations

import re

# Size constants (binary multiples, as cloud tier sizes are conventionally
# advertised in GiB even when written "GB").
KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB

# Duration constants (seconds).
MS = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR

_SIZE_SUFFIXES = {
    "": 1,
    "B": 1,
    "K": KB,
    "KB": KB,
    "KIB": KB,
    "M": MB,
    "MB": MB,
    "MIB": MB,
    "G": GB,
    "GB": GB,
    "GIB": GB,
    "T": TB,
    "TB": TB,
    "TIB": TB,
}

_DURATION_SUFFIXES = {
    "US": 1e-6,
    "MS": MS,
    "MSEC": MS,
    "MILLISECOND": MS,
    "MILLISECONDS": MS,
    "S": SECOND,
    "SEC": SECOND,
    "SECS": SECOND,
    "SECOND": SECOND,
    "SECONDS": SECOND,
    "MIN": MINUTE,
    "MINS": MINUTE,
    "MINUTE": MINUTE,
    "MINUTES": MINUTE,
    "H": HOUR,
    "HR": HOUR,
    "HRS": HOUR,
    "HOUR": HOUR,
    "HOURS": HOUR,
    "D": DAY,
    "DAY": DAY,
    "DAYS": DAY,
}

_QUANTITY_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([A-Za-z/]*)\s*$")


class UnitParseError(ValueError):
    """Raised when a quantity string cannot be parsed."""


def _split(text: str | int | float) -> tuple[float, str]:
    if isinstance(text, (int, float)):
        return float(text), ""
    m = _QUANTITY_RE.match(text)
    if not m:
        raise UnitParseError(f"cannot parse quantity: {text!r}")
    return float(m.group(1)), m.group(2).upper()


def parse_size(text: str | int | float) -> int:
    """Parse a size such as ``"5G"``, ``"4 KB"`` or ``1024`` into bytes."""
    value, suffix = _split(text)
    if suffix not in _SIZE_SUFFIXES:
        raise UnitParseError(f"unknown size suffix {suffix!r} in {text!r}")
    return int(value * _SIZE_SUFFIXES[suffix])


def parse_duration(text: str | int | float) -> float:
    """Parse a duration such as ``"800 ms"`` or ``"120 hours"`` into seconds.

    A bare number is interpreted as seconds.
    """
    value, suffix = _split(text)
    if suffix == "":
        return value
    if suffix not in _DURATION_SUFFIXES:
        raise UnitParseError(f"unknown duration suffix {suffix!r} in {text!r}")
    return value * _DURATION_SUFFIXES[suffix]


def parse_bandwidth(text: str | int | float) -> float:
    """Parse a bandwidth such as ``"40KB/s"`` or ``"1Gbps"`` into bytes/sec."""
    if isinstance(text, (int, float)):
        return float(text)
    raw = text.strip()
    upper = raw.upper()
    if upper.endswith("BPS"):  # bits per second, e.g. 500Mbps
        value, suffix = _split(raw[:-3])
        if suffix not in _SIZE_SUFFIXES:
            raise UnitParseError(f"unknown bandwidth suffix in {text!r}")
        # Network rates use decimal multiples; keep binary for consistency
        # with parse_size so 1KB/s == parse_size("1KB") per second.
        return value * _SIZE_SUFFIXES[suffix] / 8.0
    if "/" in raw:
        size_part, _, per = raw.partition("/")
        if per.strip().lower() not in ("s", "sec", "second"):
            raise UnitParseError(f"bandwidth must be per-second: {text!r}")
        return float(parse_size(size_part))
    return float(parse_size(raw))
