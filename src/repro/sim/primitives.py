"""Synchronization and queueing primitives built on the kernel.

These mirror the small set of constructs the Wiera implementation needs:
counted resources for service concurrency limits (:class:`Resource`), the
capacity-1 FIFO server behind every bandwidth link and IOPS cap
(:class:`SerialServer`, woken by :func:`wake_at`), open/close request
gates used while a consistency switch drains in-flight operations
(:class:`Gate`), the kernel's one cancellation rule for work a process
runs on behalf of somebody else (:func:`shielded`), the one shape of
a periodic background component (:class:`Loop`), and the one bounded
fan-out over a list of work items (:func:`window`).

Background loops
----------------
Every fixed-interval component — the TSM's pings, the monitors, the
repairers, the autoscaler, a Tiera instance's timer and cold rules — is a
:class:`Loop`: one process that arms ``sim.timeout(interval)``, runs its
round, and repeats.  Its stop rule: ``stop()`` cancels the armed timer and
interrupts the process, so a loop stopped between rounds leaves no live
event on the schedule, and one stopped mid-round ends at the yield it is
parked on (the kernel's stop rule).  The replication queue is the one
periodic component that does not run on it: it also flushes *early*,
racing its timer against a size trigger, and a primitive that waited on
"timer or kick" would branch for one caller.  It keeps its own wait and
cancels the timer it armed on stop in the same way.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Generator, Optional

from repro.sim.kernel import Event, Interrupt, SimulationError, Simulator


def wake_at(sim: Simulator, when: float) -> Event:
    """An event that fires at the absolute instant ``when`` (>= now).

    A :class:`SerialServer` completion is an absolute time, and its
    waiter must wake at exactly that instant: a segmented transfer reserves
    its next segment on waking, and ``max(now, free_at)`` must find the
    server free, not an ulp short of it.  The kernel's own factories
    schedule by delay (``now + delay``), and floating point cannot always
    express an instant as a delay from now — ``when - now`` rounds once
    ``when > 2 * now``, and where ``now + d`` lands on a rounding tie no
    ``d`` reaches ``when`` at all.  So this files the heap entry under
    ``when`` itself, the way :class:`~repro.sim.kernel.Timeout` files one
    under ``now + delay``.
    """
    if when < sim.now:
        raise SimulationError(
            f"cannot wake in the past: {when} < {sim.now}")
    event = Event(sim)
    event._value = None    # triggered: fires when the clock reaches `when`
    heapq.heappush(sim._heap, (when, sim._seq, event))
    sim._seq += 1
    return event


class SerialServer:
    """A capacity-1 FIFO server kept as a virtual clock, not a queue.

    Jobs on such a server run one at a time in arrival order, so a job's
    completion time is a closed-form function of the previous one:
    ``start = max(now, free_at)``, ``free_at = start + duration``.
    :meth:`reserve` does that arithmetic and returns the completion time;
    the caller sleeps until then on a single event (:func:`wake_at`).

    Nothing queues and nothing is released, so there is no grant/hand-off
    event per job and no waiter to strand: a caller interrupted before its
    completion leaves its reservation spent — the server stays busy until
    ``free_at``, as if the job had run — and later jobs are served
    normally.
    """

    __slots__ = ("sim", "free_at")

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: the instant the last reserved job completes
        self.free_at = 0.0

    def reserve(self, duration: float) -> float:
        """Append a job of ``duration`` seconds; returns the absolute time
        at which it completes."""
        now = self.sim.now
        start = self.free_at if self.free_at > now else now
        self.free_at = finish = start + duration
        return finish


class Resource:
    """A counted resource with FIFO waiters (like a semaphore).

    ``request()`` returns an event that fires once a slot is granted; the
    requester calls ``release(request)`` exactly once per request, granted
    or not.  Called from a ``finally`` around the wait, that frees the slot
    of a holder that is stopped and withdraws a waiter that is stopped
    before its grant, so no slot is handed to a process that is gone.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        event = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self, request: Event) -> None:
        if not request.triggered:
            self._waiters.remove(request)   # still waiting: withdraw it
            return
        if self.in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            # Hand the slot directly to the next waiter; in_use unchanged.
            self._waiters.popleft().succeed(self)
        else:
            self.in_use -= 1


class Gate:
    """An open/closed barrier.

    While open, ``wait()`` completes immediately.  While closed, waiters
    queue and are all released when the gate reopens.  Wiera closes the gate
    in front of an instance while a consistency-model change drains queued
    updates, exactly as described in §3.3.2 of the paper.

    Request handlers pass with ``yield from gate.passage``: an empty tuple
    while the gate is open (no event, no call), the gate itself while it is
    closed, whose iteration waits (one kernel event, fired by :meth:`open`).
    """

    def __init__(self, sim: Simulator, open_: bool = True):
        self.sim = sim
        self._open = open_
        self._waiters: list[Event] = []
        self.passage = () if open_ else self

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        event = Event(self.sim)
        if self._open:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def __iter__(self) -> Generator:
        yield self.wait()

    def close(self) -> None:
        self._open = False
        self.passage = self

    def open(self) -> None:
        self._open = True
        self.passage = ()
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()


class Loop:
    """A periodic background process (module docstring, "Background
    loops").  The round timer is armed when the previous round ends;
    :meth:`start` is idempotent and starts afresh after :meth:`stop`; an
    exception a round raises fails the process, which stops ``sim.run``.
    """

    __slots__ = ("sim", "name", "interval", "round", "_proc", "_timer")

    def __init__(self, sim: Simulator, name: str, interval: float,
                 round: Callable[[], Generator]):
        self.sim = sim
        self.name = name
        self.interval = interval
        self.round = round
        self._proc = None
        self._timer = None

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.is_alive

    def start(self) -> None:
        if not self.running:
            self._proc = self.sim.process(self._run(), name=self.name)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()    # a no-op once the round is under way
        if self.running:
            self._proc.interrupt("loop stopped")
        self._proc = None

    def _run(self) -> Generator:
        sim = self.sim
        while True:
            self._timer = sim.timeout(self.interval)
            yield self._timer
            yield from self.round()


def window(sim: Simulator, width: int, items, work: Callable,
           name: str, procs: Optional[list] = None) -> Generator:
    """Run ``work(item)`` for every item with at most ``width`` in flight:
    ``results = yield from window(sim, width, items, work, name)``.

    ``min(width, len(items))`` worker processes (``name % n`` names worker
    ``n``) each take the next item as soon as their current one is done,
    so one slow item holds up one worker, not the rest.  The value is
    ``work``'s results in item order.  An exception ``work`` raises fails
    its worker and is raised here.  The workers run under the caller's
    trace context and replace the contents of ``procs``, where an owner's
    ``stop()`` can interrupt them.
    """
    queue = deque(enumerate(items))
    results = [None] * len(queue)

    def worker() -> Generator:
        while queue:
            i, item = queue.popleft()
            results[i] = yield from work(item)

    ctx = sim.active_process.obs_ctx
    workers = [sim.process(worker(), name=name % n, obs_ctx=ctx)
               for n in range(min(width, len(queue)))]
    if procs is not None:
        procs[:] = workers
    yield sim.all_of(workers)
    return results


def shielded(sim: Simulator, body: Generator,
             target: Optional[Event] = None) -> Generator:
    """Run ``body`` inside the calling process, out of reach of the
    caller's cancellation: ``result = yield from shielded(sim, body)``.

    The caller pays for no :class:`~repro.sim.kernel.Process` — the
    body's yields are the caller's yields, its return value and its
    exceptions arrive at the ``yield from`` — but ``body`` is work done
    for somebody else (a request in flight, a remote handler mid-write, a
    reply on the wire) that an abort of the *caller* must not tear.  So
    the cancellation rule is:

    * an :class:`~repro.sim.kernel.Interrupt` delivered to the calling
      process is raised in the caller, at the ``yield from``, at that
      instant; ``body`` never sees it;
    * ``body`` carries on from the event it was waiting on as a process
      of its own, and runs to completion exactly as it would have;
    * nobody waits on that process any more, so it — and the event it is
      resumed from — is defused: its late failure (the peer dies under
      the orphaned request) is nobody's to handle and must not stop the
      simulation.

    A plain ``yield from body`` would instead deliver the ``Interrupt`` to
    the innermost frame of ``body``: the remote handler, mid-put.

    This frame steps ``body`` by hand, so that it — not one inside
    ``body`` — is where the kernel throws.  ``target`` is for the orphan
    only: the event the started ``body`` is waiting on.
    """
    caller = sim.active_process
    ctx = caller.obs_ctx
    send = body.send
    try:
        if target is None:
            target = send(None)
        while True:
            try:
                value = yield target
            except BaseException as exc:
                # An Interrupt that is the *outcome* of the awaited event
                # (an event somebody failed with one) is body's business
                # like any other failure.
                if isinstance(exc, Interrupt) and target._value is not exc:
                    # Spans body has open move with it (the orphan reads
                    # its context in its first step, inside process()); the
                    # caller is back where it was before the call.
                    orphan = sim.process(shielded(sim, body, target),
                                         name=f"orphan:{caller.name}",
                                         obs_ctx=caller.obs_ctx)
                    caller.obs_ctx = ctx
                    # That first step only parks the orphan on `target`,
                    # so nothing can have failed undefused yet.
                    orphan.defuse()
                    target.defuse()
                    raise
                target = body.throw(exc)
            else:
                target = send(value)
    except StopIteration as stop:
        return stop.value
