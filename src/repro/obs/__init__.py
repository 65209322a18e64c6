"""Observability for the Wiera runtime: tracing, metrics, exporters.

Usage::

    from repro.obs import get_obs

    obs = get_obs(dep.sim)          # always available: shared metrics
    tracer = obs.enable_tracing()   # opt-in: record sim-time spans
    ... run workload ...
    from repro.obs import write_chrome_trace, write_metrics
    write_chrome_trace(tracer, "results/run_trace.json")
    write_metrics(obs.metrics, "results/run_metrics.json")

``check(histories)`` judges client op histories offline
(:mod:`repro.obs.check`).  See DESIGN.md ("Observability") for the trace
model and exporter formats.
"""

from repro.obs.api import Observability, get_obs
from repro.obs.check import check
from repro.obs.export import chrome_trace_events, write_chrome_trace, write_metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NullTracer, Span, TraceContext, Tracer

__all__ = [
    "Observability",
    "get_obs",
    "TraceContext",
    "Span",
    "Tracer",
    "NullTracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_metrics",
    "check",
]
