"""Sim-time distributed tracing.

A :class:`Tracer` records :class:`Span` trees over *simulated* time.  Spans
follow the causality of generator processes rather than threads: the current
trace context is bound to the kernel's active :class:`~repro.sim.kernel.Process`
(its ``obs_ctx`` slot), so a span opened inside a process parents every span
opened deeper in the same process, and :class:`~repro.sim.rpc.RpcNode` carries
the context across process boundaries on the :class:`~repro.sim.rpc.Message`
envelope — the sim equivalent of W3C trace-context propagation.

Tracing is disabled by default: components talk to a :class:`NullTracer`
whose ``span()`` returns one shared no-op span, and consume no simulated
time either way.  The hot paths (an RPC, a transmit, a storage read or
write) hand out their generator as is unless the tracer records, and only
then wrap it in :func:`traced`: untraced, they open no span at all.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, NamedTuple, Optional


class TraceContext(NamedTuple):
    """The (trace, span) identity propagated between components."""

    trace_id: int
    span_id: int


class Span:
    """One timed operation; usable as a context manager around ``yield from``."""

    __slots__ = ("tracer", "name", "cat", "component", "trace_id", "span_id",
                 "parent_id", "start", "end", "args", "_saved")

    def __init__(self, tracer: "Tracer", name: str, cat: str, component: str,
                 trace_id: int, span_id: int, parent_id: Optional[int],
                 start: float, args: dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.component = component
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.args = args
        self._saved: Optional[TraceContext] = None

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def set(self, **kv: Any) -> "Span":
        """Attach extra key/value annotations to the span."""
        self.args.update(kv)
        return self

    def finish(self) -> None:
        self.tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.args["error"] = repr(exc)
        self.finish()
        return False

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{self.duration:.6f}s"
        return (f"<Span {self.name!r} cat={self.cat} trace={self.trace_id} "
                f"id={self.span_id} parent={self.parent_id} {state}>")


class _NullSpan:
    """Shared no-op span returned by :class:`NullTracer`."""

    __slots__ = ()
    context = None
    args: dict[str, Any] = {}

    def set(self, **kv: Any) -> "_NullSpan":
        return self

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost recorder installed while tracing is disabled."""

    enabled = False
    spans: list = []

    def span(self, name: str, cat: str = "", component: str = "",
             parent: Optional[TraceContext] = None, **args: Any) -> _NullSpan:
        return NULL_SPAN

    def clear(self) -> None:
        pass


class Tracer:
    """Records finished spans in sim-time; one instance per Simulator."""

    enabled = True

    def __init__(self, sim):
        self.sim = sim
        self.spans: list[Span] = []
        self._next_trace = itertools.count(1).__next__
        self._next_span = itertools.count(1).__next__

    def span(self, name: str, cat: str = "", component: str = "",
             parent: Optional[TraceContext] = None, **args: Any) -> Span:
        """Open a span; the caller must close it (``with`` or ``finish()``).

        Without an explicit ``parent``, the span nests under the active
        process's current span; a span with no parent starts a new trace.
        While open, the span becomes the active process's current context,
        so nested instrumentation parents correctly.
        """
        proc = self.sim.active_process
        if parent is None and proc is not None:
            parent = proc.obs_ctx
        if parent is None:
            trace_id, parent_id = self._next_trace(), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        span = Span(self, name, cat, component, trace_id, self._next_span(),
                    parent_id, self.sim.now, args)
        if proc is not None:
            span._saved = proc.obs_ctx
            proc.obs_ctx = span.context
        return span

    def _finish(self, span: Span) -> None:
        if span.end is not None:
            return  # already closed
        span.end = self.sim.now
        # The process closing the span, not the one that opened it: a call
        # body orphaned by its caller's Interrupt moves to a process of its
        # own with its spans still open (repro.sim.primitives.shielded).
        proc = self.sim.active_process
        if proc is not None and proc.obs_ctx == span.context:
            proc.obs_ctx = span._saved
        self.spans.append(span)

    def clear(self) -> None:
        self.spans.clear()


def traced(tracer: "Tracer", body: Generator, name: str,
           **fields: Any) -> Generator:
    """``body`` inside a span of a recording ``tracer``, opened at its first
    step and closed when it returns or raises: ``yield from`` it instead."""
    with tracer.span(name, **fields):
        return (yield from body)
