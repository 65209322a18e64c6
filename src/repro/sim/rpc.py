"""Message-passing RPC over the simulated network (the Thrift substitute).

Every Wiera component (Wiera service, Tiera servers, Tiera instances, the
lock service, clients) is an :class:`RpcNode` bound to a simulated host.
Handlers are generator functions executed *at the destination*, so their
yields (storage accesses, nested RPCs) consume destination-side time, just
as a Thrift service method would.

A call has one body (:meth:`RpcNode._call`) and two ways to run it.  A
caller that simply waits for the answer runs it inside the process it
already is, ``result = yield from node.invoke(...)``, and pays for no
scheduler entity; a caller that needs an :class:`~repro.sim.kernel.Event` — a
fan-out gathered with ``all_of``/``any_of`` or waited on in turn,
:func:`call_with_timeout`, a oneway — gets one from ``node.call(...)``
(``call_batch`` for a batch, which has no inline form), which runs the
same body as a process.  Either way the caller receives the handler's
return value, or has the remote exception (or a
:class:`~repro.net.network.NetworkError`) raised into it, and catches by
type what it expects — a transport failure, a storage miss — as client
failover logic does.

What a message costs on the wire is decided here alone:
:func:`request_size` and :func:`response_size` derive it from the method
and what the message carries, so no caller states a size.

An ``Interrupt`` of the caller never reaches the handler
(:func:`~repro.sim.primitives.shielded`); it is a stop, which no ``except
Exception`` catches (the kernel's stop rule).  A call event its waiter may
leave behind — one of a wave, which can fail while an earlier one is
waited on, or the call of a process that can be stopped — is defused at
launch, and :func:`call_with_timeout` defuses its race when the waiter is
stopped, so a late failure nobody is left to hear does not stop the
simulation.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.net.network import Host, HostDownError, Network
from repro.obs.api import get_obs
from repro.obs.trace import NULL_SPAN, TraceContext, traced
from repro.sim.kernel import Process, Simulator
from repro.sim.primitives import shielded


class RpcError(RuntimeError):
    """Application-level RPC failure."""


class NoSuchMethodError(RpcError):
    """The destination node has no handler registered for the method."""


#: reserved wire method for batched calls; dispatched natively by RpcNode
BATCH_METHOD = "__batch__"

#: request/response envelope in bytes (headers + small args)
ENVELOPE = 256
#: a request's fixed part where it is not :data:`ENVELOPE`: a replica push,
#: a forwarded put or an EC pre-write carries its version metadata besides
#: the bytes; a fragment-repair check and an EC manifest's finalise are
#: slots inside a batch
REQUEST_BASE = {"replica_update": 512, "forward_put": 512,
                "ec_prewrite": 512, "check_readable": 64, "finalise": 64}
#: one ``(key, version)`` of a request's ``items``
ITEM_SIZE = 16
#: one of a request's ``items`` where it is not a ``(key, version)``: a
#: fragment-map delta (key, version, remap, timestamp)
ITEM_SIZES = {"manifest_remap": 64}
#: a reply's body besides the bytes it carries
REPLY_BODY = 64


def request_size(method: str, args: dict[str, Any]) -> int:
    """Wire bytes of a request: its method's fixed part plus what it
    carries — the bytes under ``data`` (and an EC pre-write's
    ``manifest``) and :data:`ITEM_SIZE` (or its method's
    :data:`ITEM_SIZES`) per entry of ``items``.  A batch is one envelope
    plus the size of every entry."""
    if method == BATCH_METHOD:
        return ENVELOPE + sum(request_size(entry_method, entry_args)
                              for entry_method, entry_args in args["entries"])
    size = REQUEST_BASE.get(method, ENVELOPE)
    data = args.get("data")
    if data is not None:
        size += len(data)
    if method == "ec_prewrite":
        size += len(args["manifest"])
    items = args.get("items")
    if items is not None:
        size += ITEM_SIZES.get(method, ITEM_SIZE) * len(items)
    return size


def response_size(method: str, result: Any) -> int:
    """Wire bytes of a reply: an envelope for ``None``, else an envelope,
    a body and the bytes under the result's top-level ``data`` — summed
    over the entries' results for a batch."""
    if result is None:
        return ENVELOPE
    if method == BATCH_METHOD:
        carried = sum(_carried(entry.get("result")) for entry in result)
    else:
        carried = _carried(result)
    return ENVELOPE + REPLY_BODY + carried


def _carried(result: Any) -> int:
    data = result.get("data") if isinstance(result, dict) else None
    return len(data) if data is not None else 0


@dataclass(slots=True)
class Message:
    """One request as seen by a handler."""

    src: str
    method: str
    args: dict[str, Any]
    #: trace context of the sending span (None while tracing is disabled)
    trace: Optional[TraceContext] = None


class RpcNode:
    """A network endpoint with named generator handlers."""

    def __init__(self, sim: Simulator, network: Network, host: Host,
                 name: Optional[str] = None):
        self.sim = sim
        self.network = network
        self.host = host
        self.name = name or host.name
        self._handlers: dict[str, Callable[[Message], Generator]] = {}
        self._obs = get_obs(sim)
        self._served = self._obs.metrics.counter("rpc.requests_served",
                                                 node=self.name)
        self._dropped = self._obs.metrics.counter("rpc.dropped_oneways",
                                                  node=self.name)

    # -- registration -----------------------------------------------------
    def register(self, method: str,
                 handler: Callable[[Message], Generator]) -> None:
        if not inspect.isgeneratorfunction(handler):
            raise TypeError(
                f"handler for {method!r} must be a generator function")
        self._handlers[method] = handler

    # -- outgoing calls -----------------------------------------------------
    def invoke(self, dst: "RpcNode", method: str,
               args: Optional[dict[str, Any]] = None) -> Generator:
        """Invoke ``method`` on ``dst`` from inside the calling process:
        ``result = yield from node.invoke(...)``.

        For a caller that does nothing but wait for the answer.  An
        ``Interrupt`` of the caller surfaces at the ``yield from`` while
        the call itself runs on to completion at ``dst``
        (:func:`~repro.sim.primitives.shielded`).
        """
        return shielded(self.sim, self._call(dst, method, args or {}))

    def call(self, dst: "RpcNode", method: str,
             args: Optional[dict[str, Any]] = None,
             reply_size: Optional[int] = None) -> Process:
        """Invoke ``method`` on ``dst`` as a process of its own; returns
        the event to gather, race against a timeout or wait on later.  A
        caller that would yield it straight away wants :meth:`invoke`.
        ``reply_size`` overrides :func:`response_size` for a reply whose
        declared wire size is not the rule's."""
        return self._spawn(
            self._call(dst, method, args or {}, reply_size),
            f"rpc:{self.name}->{dst.name}:{method}")

    def _spawn(self, body: Generator, name: str) -> Process:
        """Run a call body as a process, under the caller's trace context
        — what the body finds in place when it runs inside the caller."""
        caller = self.sim.active_process
        return self.sim.process(body, name=name,
                                obs_ctx=caller and caller.obs_ctx)

    def _call(self, dst: "RpcNode", method: str, args: dict[str, Any],
              reply_size: Optional[int] = None) -> Generator:
        """The one call body (in an ``rpc:`` span while tracing is on)."""
        tracer = self._obs.tracer
        if tracer.enabled:
            return traced(tracer, self._exchange(dst, method, args,
                                                 reply_size),
                          f"rpc:{method}", cat="rpc", component=self.name,
                          dst=dst.name)
        return self._exchange(dst, method, args, reply_size)

    def _exchange(self, dst: "RpcNode", method: str, args: dict[str, Any],
                  reply_size: Optional[int]) -> Generator:
        # The sending span's context: the one the running process is in.
        msg = Message(self.name, method, args,
                      self.sim.active_process.obs_ctx)
        yield from self.network.transmit(self.host, dst.host,
                                         request_size(method, args))
        result = yield from dst._dispatch(msg)
        if reply_size is None:
            reply_size = response_size(method, result)
        yield from self.network.transmit(dst.host, self.host, reply_size)
        return result

    # -- batched calls ------------------------------------------------------
    #
    # A batch ships a list of (method, args) entries to ONE peer in a
    # single message: one envelope, summed entry sizes, one egress-link
    # reservation, one process — instead of one of each per entry.  The
    # destination applies the entries in order and returns one result per
    # entry ({"ok": True, "result": ...} or {"ok": False, "error": ...}),
    # so a partial failure is attributable per entry.  A transport failure
    # (peer down, partition) raises out of the whole call, meaning *every*
    # entry is undelivered.

    def call_batch(self, dst: "RpcNode",
                   entries: list[tuple[str, dict]]) -> Process:
        """Ship ``entries`` to ``dst`` as one message; returns per-entry
        results in order.  Each entry is the ``(method, args)`` a single
        :meth:`call` would send; the wire carries one envelope plus the
        entries' :func:`request_size`."""
        return self._spawn(
            self._call(dst, BATCH_METHOD, {"entries": list(entries)}),
            f"rpcb:{self.name}->{dst.name}:batch{len(entries)}")

    def send_oneway_batch(self, dst: "RpcNode",
                          entries: list[tuple[str, dict]]) -> Process:
        """Fire-and-forget batch: deliver and execute, swallowing network
        errors (per-entry application errors are reported in the results,
        which a oneway by definition never sees)."""
        return self._spawn(
            self._oneway(dst, BATCH_METHOD, {"entries": list(entries)}),
            f"rpcb1w:{self.name}->{dst.name}:batch{len(entries)}")

    def _dispatch_batch(self, msg: Message) -> Generator:
        """Apply a batch's entries in order, one result per entry.

        An entry whose handler raises yields ``{"ok": False, ...}`` without
        aborting the rest of the batch — the caller decides what to retry.
        """
        results = []
        for method, args in msg.args["entries"]:
            handler = self._handlers.get(method)
            if handler is None:
                results.append({"ok": False,
                                "error": f"NoSuchMethodError({method!r})"})
                continue
            self._served.value += 1
            sub = Message(msg.src, method, args, msg.trace)
            try:
                value = yield from handler(sub)
            except Exception as exc:
                results.append({"ok": False, "error": repr(exc)})
            else:
                results.append({"ok": True, "result": value})
        return results

    def send_oneway(self, dst: "RpcNode", method: str,
                    args: Optional[dict[str, Any]] = None) -> Process:
        """Fire-and-forget: deliver and execute, swallowing network errors.

        Used for background/asynchronous propagation (the ``queue``
        response) where a dead replica must not crash the sender.
        """
        return self._spawn(
            self._oneway(dst, method, args or {}),
            f"rpc1w:{self.name}->{dst.name}:{method}")

    def _oneway(self, dst: "RpcNode", method: str,
                args: dict[str, Any]) -> Generator:
        tracer = self._obs.tracer
        span = (tracer.span(f"oneway:{method}", cat="rpc",
                            component=self.name, dst=dst.name)
                if tracer.enabled else NULL_SPAN)
        with span:
            msg = Message(self.name, method, args, span.context)
            try:
                yield from self.network.transmit(self.host, dst.host,
                                                 request_size(method, args))
                yield from dst._dispatch(msg)
            except Exception as exc:
                self._dropped.inc()
                span.set(dropped=repr(exc))

    # -- incoming dispatch -----------------------------------------------------
    def _dispatch(self, msg: Message) -> Generator:
        """The handler body of ``msg``, to ``yield from``."""
        if self.host.down:
            raise HostDownError(f"node {self.name} is down")
        tracer = self._obs.tracer
        if msg.method == BATCH_METHOD:
            if tracer.enabled:
                return traced(tracer, self._dispatch_batch(msg),
                              "handle:batch", cat="rpc.server",
                              component=self.name, parent=msg.trace,
                              src=msg.src, entries=len(msg.args["entries"]))
            return self._dispatch_batch(msg)
        handler = self._handlers.get(msg.method)
        if handler is None:
            raise NoSuchMethodError(
                f"{self.name} has no method {msg.method!r} "
                f"(has {sorted(self._handlers)})")
        self._served.value += 1
        if tracer.enabled:
            return traced(tracer, handler(msg), f"handle:{msg.method}",
                          cat="rpc.server", component=self.name,
                          parent=msg.trace, src=msg.src)
        return handler(msg)


def split_batches(entries: list[tuple[str, dict]],
                  max_bytes: float) -> list[list[tuple[str, dict]]]:
    """Cut ``entries`` into consecutive batches of at most ``max_bytes``
    of :func:`request_size` each, for one :meth:`RpcNode.call_batch` per
    batch.

    A batch closes when the next entry would overflow it, so an entry
    larger than the bound travels alone and a bound of 0 yields one entry
    per message.
    """
    batches: list[list[tuple[str, dict]]] = []
    used = 0
    for method, args in entries:
        size = request_size(method, args)
        if not batches or used + size > max_bytes:
            batches.append([])
            used = 0
        batches[-1].append((method, args))
        used += size
    return batches


def call_with_timeout(sim: Simulator, call: Process, timeout: float):
    """Race a call against a timeout; yields (completed, value) semantics.

    Returns a generator suitable for ``yield from``; its value is the call
    result, or raises :class:`TimeoutError` if the deadline fires first.
    The late call result is defused so it cannot crash the simulation, and
    a losing deadline timer is cancelled so repeated short calls under a
    long timeout (monitor probes) don't pile dead timers on the event heap.
    """
    deadline = sim.timeout(timeout, value=_TIMED_OUT)
    race = sim.any_of([call, deadline])
    try:
        winner = yield race
    except BaseException:
        # The call failed before the deadline, or the waiter was stopped:
        # the timer lost the race, and nobody is left to hear the call.
        deadline.cancel()
        race.defuse()
        raise
    index, value = winner
    if value is _TIMED_OUT and index == 1:
        call.defuse()
        get_obs(sim).metrics.counter("rpc.timeouts").inc()
        raise TimeoutError(f"rpc call timed out after {timeout}s")
    deadline.cancel()
    return value


_TIMED_OUT = object()
