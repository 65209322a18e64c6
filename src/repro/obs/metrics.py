"""Metrics registry: counters, gauges, and sim-time histograms.

One :class:`MetricsRegistry` per Simulator (see :mod:`repro.obs.api`) holds
every metric under a ``(kind, name, labels)`` identity, so independent
components — RPC nodes, storage tiers, the lock service, Wiera's monitors —
share a single flat namespace that exporters can dump wholesale.  Histograms
keep a bounded ring of ``(sim_time, value)`` samples, giving both aggregate
percentiles (p50/p95/p99) and the windowed queries the dynamism monitors
need ("worst put latency over the last N seconds").
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator, Optional

from repro.util.stats import OnlineStats, percentile_sorted

LabelKey = tuple[tuple[str, Any], ...]

#: samples a histogram's ring keeps for percentile and window queries
HISTOGRAM_RING = 2048


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


def flat_name(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count; hot paths add to ``value`` directly."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> Any:
        return self.value


class Gauge:
    """Last-set value (e.g. the monitor's current latency signal)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> Any:
        return self.value


class Histogram:
    """Sim-timestamped sample distribution with windowed views.

    Aggregate statistics (count/mean/min/max) cover every observation ever
    made; the percentile and window queries see the bounded sample ring
    (the :data:`HISTOGRAM_RING` most recent observations).
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "sim", "_ring", "stats")

    def __init__(self, sim, name: str, labels: LabelKey):
        self.sim = sim
        self.name = name
        self.labels = labels
        self._ring: deque[tuple[float, float]] = deque(maxlen=HISTOGRAM_RING)
        self.stats = OnlineStats()

    def observe(self, value: float) -> None:
        self._ring.append((self.sim.now, value))
        self.stats.add(value)

    @property
    def count(self) -> int:
        return self.stats.count

    def __len__(self) -> int:
        return len(self._ring)

    def values_since(self, t: float) -> list[float]:
        """Samples observed at sim-time >= ``t`` (within the ring)."""
        return [v for ts, v in self._ring if ts >= t]

    def max_since(self, t: float) -> Optional[float]:
        recent = self.values_since(t)
        return max(recent) if recent else None

    def snapshot(self) -> dict[str, float]:
        # One sort shared by all three quantiles (the ring holds up to
        # 2048 samples and exporters snapshot every histogram).
        ordered = sorted(v for _, v in self._ring)
        return {
            "count": self.stats.count,
            "mean": self.stats.mean,
            "min": self.stats.min if self.stats.count else 0.0,
            "max": self.stats.max if self.stats.count else 0.0,
            "p50": percentile_sorted(ordered, 50) if ordered else 0.0,
            "p95": percentile_sorted(ordered, 95) if ordered else 0.0,
            "p99": percentile_sorted(ordered, 99) if ordered else 0.0,
        }


class MetricsRegistry:
    """All metrics of one simulation, keyed by (kind, name, labels)."""

    def __init__(self, sim):
        self.sim = sim
        self._metrics: dict[tuple, Any] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = ("histogram", name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(self.sim, name, key[2])
            self._metrics[key] = metric
        return metric

    def _get(self, cls, name: str, labels: dict[str, Any]):
        key = (cls.kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[2])
            self._metrics[key] = metric
        return metric

    def __iter__(self) -> Iterator:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """Flat ``name{labels} -> value`` dump of every metric."""
        out: dict[str, Any] = {}
        for metric in self._metrics.values():
            out[flat_name(metric.name, metric.labels)] = metric.snapshot()
        return dict(sorted(out.items()))

    def render(self) -> str:
        lines = []
        for fname, value in self.snapshot().items():
            if isinstance(value, dict):
                inner = " ".join(f"{k}={_fmt(v)}" for k, v in value.items())
                lines.append(f"{fname}: {inner}")
            else:
                lines.append(f"{fname}: {_fmt(value)}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
