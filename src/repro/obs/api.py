"""The per-Simulator observability bundle and its access point.

Every simulator owns at most one :class:`Observability`, created lazily by
:func:`get_obs` the first time an instrumented component asks for it.  The
metrics registry is always live (recording a sample is a bounded-ring append
and costs no simulated time); the tracer defaults to the no-op
:class:`~repro.obs.trace.NullTracer` and is swapped for a real recorder by
:meth:`Observability.enable_tracing` — so by default instrumentation leaves
experiment timings bit-identical while still feeding the monitors' shared
metrics.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTracer, Tracer


class Observability:
    """Tracer + metrics registry for one simulation."""

    def __init__(self, sim, tracing: bool = False):
        if getattr(sim, "_obs", None) is not None:
            raise RuntimeError(
                "simulator already has an Observability; use get_obs(sim)")
        self.sim = sim
        self.metrics = MetricsRegistry(sim)
        self.tracer = Tracer(sim) if tracing else NullTracer()
        sim._obs = self

    def enable_tracing(self) -> Tracer:
        """Swap in a recording tracer (idempotent); returns it."""
        if not self.tracer.enabled:
            self.tracer = Tracer(self.sim)
        return self.tracer


def get_obs(sim) -> Observability:
    """The simulator's Observability, created (tracing off) on first use."""
    obs = getattr(sim, "_obs", None)
    if obs is None:
        obs = Observability(sim)
    return obs
