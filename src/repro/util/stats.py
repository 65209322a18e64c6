"""Lightweight statistics helpers used by monitors and the bench harness."""

from __future__ import annotations

import math


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile of ``samples`` (q in [0, 100])."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    return percentile_sorted(sorted(samples), q)


def percentile_sorted(data: list[float], q: float) -> float:
    """:func:`percentile` over an already-sorted sample list.

    Lets callers computing several quantiles (p50/p95/p99) sort once and
    share the sorted list instead of paying one sort per quantile.
    """
    if not data:
        raise ValueError("percentile of empty sample set")
    if len(data) == 1:
        return data[0]
    pos = (q / 100.0) * (len(data) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    # lo + diff*frac (not the two-product form): exact when both ends are
    # equal, and clamped so rounding can never leave [data[lo], data[hi]].
    value = data[lo] + (data[hi] - data[lo]) * frac
    return min(max(value, data[lo]), data[hi])


class OnlineStats:
    """Welford online mean plus min/max, O(1) memory."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.count += 1
        self._mean += (x - self._mean) / self.count
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0
