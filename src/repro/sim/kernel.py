"""Core event loop, events and generator-based processes.

Design notes
------------
* An :class:`Event` moves through three states: *pending* (created),
  *triggered* (scheduled with a value), *processed* (its callbacks have
  run).  ``succeed``/``fail`` trigger it.
* A :class:`Process` wraps a generator.  Each value the generator yields
  must be an :class:`Event`; the process subscribes to it and is resumed
  with the event's value (or has the event's exception thrown into it).
* A failed event that nobody is waiting on stops the simulation with the
  original exception — silent error-swallowing is the classic sim bug.
* Ties are broken by a monotonically increasing sequence number, making
  runs exactly reproducible.

A process costs no events of its own
------------------------------------
Starting and finishing are bookkeeping, not simulated time, so neither is
an event unless somebody has to be woken:

* **Start.**  ``sim.process(gen)`` steps ``gen`` to its first yield before
  it returns, inside the creator's own step (``active_process`` is the
  child meanwhile and the creator again afterwards).  The child's first
  statements therefore run *before* the rest of the creator's step and
  before anything already queued at that instant, so whatever the child
  reads in its first step — a trace context (``obs_ctx=``), state on a
  shared object — must be in place before the call.  A process that
  really needs its first statement deferred to the next scheduling round
  says so: ``yield sim.timeout(0)`` as that statement.
* **Finish.**  A process that returns normally with no subscriber marks
  itself processed and schedules nothing: a later ``yield proc``, a
  condition over it or ``run(until=proc)`` finds it processed and reads
  its value, exactly as for any other processed event.  A process that an
  :class:`Interrupt` escapes has been *stopped*, which is a normal finish
  too: ok, with value ``None`` (see "Interrupts").  A finish somebody is
  subscribed to is one event (it wakes them), and a *failed* process
  always keeps its event, so a failure nobody handles still stops
  ``run()``.  Taking an event nobody subscribed to out of the schedule
  leaves the ``(time, seq)`` order of every other event as it was.

Scheduling fast path
--------------------
Zero-delay scheduling — resumes on already-processed events, local
completions, watched process finishes, ``succeed()`` with the default
delay — is the vast majority of kernel traffic, and none of it needs a
priority queue.  The simulator therefore keeps two structures:

* ``_heap``: the classic ``(time, seq, event)`` heap, for ``delay > 0``;
* ``_runq``: a FIFO (``collections.deque``) of items scheduled with
  ``delay == 0``, each stamped with its sequence number (``_qseq``).

**Invariant:** every run-queue entry is stamped at the current clock.  An
entry is appended at time ``now``; the clock only advances by popping a
heap event with a *later* timestamp, and such an event can never be chosen
while the run queue is non-empty (the run-queue head, at time ``now``,
sorts strictly earlier).  So draining compares only the heads: a heap
event preempts only when its timestamp equals ``now`` *and* its sequence
number is older than the run-queue head's (which happens — e.g. a timer
landing exactly on ``now`` scheduled before a resume at ``now``, or a
``delay > 0`` so small that ``now + delay == now`` in floating point).
The observable processing order — ascending ``(time, seq)`` — is
bit-identical to the heap-only kernel, and ``events_processed`` counts
exactly the same events.

Allocation diet, in rough order of impact:

* subscribers live in a single ``_waiter`` slot (the overwhelmingly
  common case is one waiter per event) with a lazily created ``callbacks``
  list only for the second subscriber onwards — no list allocation per
  event;
* resuming a process whose wait target already completed allocates no
  "poke" ``Event``: the outcome rides a :class:`_Deferred` record (no
  callback list, no heap entry) drained through the same run queue and
  recycled through a small free list;
* every kernel object carries ``__slots__``, and processes pre-bind their
  generator's ``send``/``throw`` and their own ``_resume``.

One stepping core
-----------------
:meth:`Process._resume` is the only code that sends or throws into a
process generator and subscribes it to what it yields next.  It takes the
*record* the process is parked on (``_target``): anything event-shaped —
``_ok``, ``_value``, a settable ``_defused``.  There are five ways in:

* first step: ``Process.__init__`` parks the process on the module-level
  ``_START`` record and resumes it;
* a pending event fired: ``_resume`` is the event's subscriber — the hot
  path, 96-100 % of all steps;
* a wait on a processed event: the drain loop hands the ``_Deferred`` to
  ``_resume`` one round later, then recycles it;
* a delivered interrupt: the notice is a failed, pre-defused ``Event``
  carrying the :class:`Interrupt`; its subscriber parks the process on
  the notice and resumes it;
* a refused yield: a generator that yields a non-event is resumed at once
  with a failed, pre-defused record carrying the :class:`SimulationError`.

Only a deferred resume pays a method call it would not pay inlined in the
drain loop, and it is rare: 0 / 0 / 0 / 3.9 % of generator steps on the
four ``perf/`` workloads, whose wall-clock cannot tell the two apart
(``results/PR23_kernel_core.txt``).  An AST test in
``tests/test_sim_kernel.py`` keeps ``_send``/``_throw`` calls out of the
rest of this module; ``tests/test_kernel_golden.py`` pins the behavior.

Interrupts
----------
A parked process is parked on exactly one record, its ``_target``.
``interrupt()`` clears ``_target`` and queues a notice; whatever the
process was parked on — the pending event it subscribed to, or the
``_Deferred`` queued to resume it from a processed one — stays where it is
as a tombstone that ``_resume`` ignores, so the process sees the
:class:`Interrupt` at the yield it was parked on — a resume already
queued for that yield is superseded, not run first.  A process that was
*running* when interrupted (it interrupted itself, or a child did from the
first step it ran inside ``process()``) is detached when the notice is
delivered and sees it at its next yield; a process that finished in the
meantime never hears of it.

**The stop rule.**  An interrupt means *stop*.  :class:`Interrupt` is a
``BaseException``, so no ``except Exception`` on the way up catches it by
accident, and an ``Interrupt`` that escapes the generator finishes the
process ok with value ``None``, like a plain ``return`` — unwatched, it
schedules nothing.  A process therefore needs no handler to be
stoppable: ``finally`` blocks run on the way out, and a process that
wants to outlive an interrupt catches :class:`Interrupt` by name.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "AllOf",
    "AnyOf",
]


class SimulationError(RuntimeError):
    """Raised by the event loop for kernel-level misuse or failure."""


class Interrupt(BaseException):
    """Thrown into a process by :meth:`Process.interrupt`; one that escapes
    the process stops it (module docstring, "The stop rule")."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


PENDING = object()

_INF = float("inf")

#: cap on the _Deferred free list: covers bursts, never matters for memory
_DPOOL_MAX = 64


class _Never:
    """Stand-in sentinel for run()-to-exhaustion: never 'processed'."""
    _processed = False


_NEVER = _Never()


class Event:
    """A one-shot occurrence with a value and subscriber callbacks.

    Subscribers: the first lands in ``_waiter``; the rare second and later
    go to the lazily created ``callbacks`` list.  Dispatch order is
    ``_waiter`` first, then ``callbacks`` in append order — i.e. exactly
    subscription order, as with a plain list.
    """

    __slots__ = ("sim", "_waiter", "callbacks", "_value", "_ok", "_defused",
                 "_cancelled", "_processed", "_qseq")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._waiter: Optional[Callable[["Event"], None]] = None
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = PENDING
        self._ok = True
        self._defused = False
        self._cancelled = False
        self._processed = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def subscribe(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when this event is processed."""
        if self._processed:
            raise SimulationError(f"{self!r} already processed")
        if self._waiter is None:
            self._waiter = callback
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        if delay == 0.0:
            self._qseq = sim._seq
            sim._seq += 1
            sim._runq.append(self)
        else:
            sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True

    def cancel(self) -> None:
        """Discard a scheduled event: its callbacks will never run.

        Used for the losing arm of a race (e.g. the deadline timer of
        :func:`~repro.sim.rpc.call_with_timeout` when the call wins) so
        abandoned timers don't accumulate on the event heap.  Cancelling a
        processed event is a no-op.
        """
        if self._processed or self._cancelled:
            return
        self._cancelled = True
        self.sim._note_cancel()

    def __repr__(self) -> str:
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # Inlined Event.__init__ + _schedule (hot path: one per sleep).
        self.sim = sim
        self._waiter = None
        self.callbacks = None
        self._value = value
        self._ok = True
        self._defused = False
        self._cancelled = False
        self._processed = False
        self.delay = delay
        seq = sim._seq
        if delay == 0.0:
            self._qseq = seq
            sim._runq.append(self)
        elif delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        else:
            heapq.heappush(sim._heap, (sim.now + delay, seq, self))
        sim._seq = seq + 1


class _Deferred:
    """Allocation-light resume record for the run queue: the known outcome
    of a wait on a processed event.

    Event-shaped as far as :meth:`Process._resume` reads a record (``_ok``,
    ``_value``, a settable ``_defused``), but it carries no callback list
    and never reaches the heap: the drain loop hands it to ``proc._resume``
    — which ignores it if :meth:`Process.interrupt` detached the process
    meanwhile — and recycles it through ``Simulator._dpool``.
    """

    __slots__ = ("proc", "_ok", "_value", "_defused", "_qseq")

    #: class-level so run-queue scans can treat records like events
    _cancelled = False

    def __init__(self, proc: "Process", ok: bool, value: Any, qseq: int):
        self.proc = proc
        self._ok = ok
        self._value = value
        self._qseq = qseq


#: the record a process's first step resumes with (``send(None)``); shared
#: by every process and never queued
_START = _Deferred(None, True, None, -1)


class Process(Event):
    """A running generator; also an event that fires when it terminates."""

    __slots__ = ("name", "_generator", "_send", "_throw", "_on_fire",
                 "_target", "obs_ctx")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "",
                 obs_ctx: Any = None):
        try:
            self._send = generator.send       # pre-bound: one resume each
            self._throw = generator.throw
        except AttributeError:
            raise SimulationError(
                f"Process requires a generator, "
                f"got {type(generator).__name__}") from None
        # Inlined Event.__init__ (hot path: one per RPC call).
        self.sim = sim
        self._waiter = None
        self.callbacks = None
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._cancelled = False
        self._processed = False
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        # Pre-bound subscriber callback: appending self._resume directly
        # would allocate a fresh bound method on every yield.
        self._on_fire = self._resume
        # The one record _resume will accept, i.e. what this process is
        # parked on: _START until its first step, then a pending event,
        # the _Deferred queued to resume it or an interrupt notice.
        # Anything else that fires for it is a tombstone (see interrupt()).
        self._target: Any = _START
        # Current trace context (repro.obs): spans opened while this process
        # runs parent under it; RPC propagates it across process boundaries.
        # Handed over here because the first step below may open a span.
        self.obs_ctx = obs_ctx
        # Start rule: run to the first yield now, inside the creator's step.
        creator = sim.active_process
        self._resume(_START)
        sim.active_process = creator

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not PENDING:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        # Detach from whatever the process is parked on, so it sees the
        # Interrupt at that yield.  The subscribed callback, or the resume
        # already queued for a wait on a processed event, stays in place as
        # a tombstone that _resume ignores: no O(n) callback-list or
        # run-queue scan.
        self._target = None
        # Pre-defused: a notice dropped because the process finished
        # meanwhile must not stop the simulation.
        notice = Event(self.sim)
        notice._waiter = self._interrupted
        notice._defused = True
        notice.fail(Interrupt(cause))

    def _interrupted(self, notice: Event) -> None:
        if self._value is not PENDING:
            return  # it was running, or an earlier interrupt ended it
        # A process that was running when interrupted has parked since:
        # parking it on the notice detaches it from that too.
        self._target = notice
        self._resume(notice)

    def _finish(self, ok: bool, value: Any) -> None:
        """Terminate: record the outcome and, if somebody has to hear of
        it, schedule the process event."""
        self._ok = ok
        self._value = value
        # Drop the generator and the pre-bound callbacks: _on_fire is a
        # reference cycle (bound method -> self), and without this a dead
        # process waits for the cyclic GC instead of dying by refcount —
        # measurable pressure in fan-out workloads.  Tombstoned _resume
        # entries in event callback lists hold their own reference and
        # early-return without touching these fields.
        self._generator = None
        self._send = None
        self._throw = None
        self._on_fire = None
        if ok and self._waiter is None and self.callbacks is None:
            # Finish rule: nobody is watching, so there is nobody to wake.
            # A later `yield proc`, condition or run(until=proc) finds the
            # process processed and reads its value.  (A failure keeps its
            # event: unhandled, it must still stop the simulation.)
            self._processed = True
            return
        sim = self.sim
        self._qseq = sim._seq
        sim._seq += 1
        sim._runq.append(self)

    def _yield_error(self, target: Any) -> None:
        """The generator yielded something that is not an Event: it gets a
        :class:`SimulationError` at that yield, delivered like any failed
        wait (a failed, pre-defused record through :meth:`_resume`), so
        what the generator does about it — die, return, yield again — is
        honoured the same way."""
        record = _Deferred(self, False, SimulationError(
            f"process {self.name!r} yielded non-event {target!r}"), -1)
        record._defused = True
        self._target = record
        self._resume(record)

    def _resume(self, event: Any) -> None:
        """The generator-stepping core (see module docstring): step once
        with the outcome of ``event`` — any record the process is parked
        on — and subscribe to what the generator yields next."""
        if self._target is not event:
            return  # tombstone: detached by interrupt() before event fired
        self._target = None
        sim = self.sim
        sim.active_process = self
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                event._defused = True
                target = self._throw(event._value)
        except StopIteration as stop:
            sim.active_process = None
            self._finish(True, stop.value)
            return
        except BaseException as exc:
            sim.active_process = None
            if isinstance(exc, Interrupt):
                self._finish(True, None)    # the stop rule
            else:
                self._finish(False, exc)
            return
        sim.active_process = None
        try:
            if target._processed:
                # Already processed: resume with its value on the next
                # round, without allocating a poke event.
                if not target._ok:
                    target._defused = True
                pool = sim._dpool
                if pool:
                    d = pool.pop()
                    d.proc = self
                    d._ok = target._ok
                    d._value = target._value
                    d._qseq = sim._seq
                else:
                    d = _Deferred(self, target._ok, target._value, sim._seq)
                sim._seq += 1
                sim._runq.append(d)
                self._target = d
            elif target._waiter is None:
                target._waiter = self._on_fire
                self._target = target
            else:
                tcbs = target.callbacks
                if tcbs is None:
                    target.callbacks = [self._on_fire]
                else:
                    tcbs.append(self._on_fire)
                self._target = target
        except AttributeError:
            self._yield_error(target)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._done = 0
        if not self.events:
            self.succeed([])
            return
        # Bound once, held only by the pending children: no self-cycle.
        on_child = self._check
        for ev in self.events:
            if ev._processed:
                on_child(ev)
            else:
                ev.subscribe(on_child)

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired; value is the list of values.

    If any child fails, this condition fails with that child's exception.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed([ev._value for ev in self.events])


class AnyOf(_Condition):
    """Fires when the first child event fires; value is (index, value)."""

    __slots__ = ("_index_of",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        events = list(events)
        # id -> first position: O(1) completion lookup, and correct (a
        # duplicate *is* the object at its first position) where the old
        # list.index() scan was O(n) per completion.
        index_of: dict[int, int] = {}
        for i, ev in enumerate(events):
            index_of.setdefault(id(ev), i)
        self._index_of = index_of
        super().__init__(sim, events)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed((self._index_of[id(event)], event._value))


class Simulator:
    """The event loop.  All simulation state hangs off one instance."""

    #: compact the heap once this many cancelled entries are buried in it
    #: (and they make up more than half of the heap)
    CANCEL_COMPACT_THRESHOLD = 64

    def __init__(self) -> None:
        #: the simulated clock (a plain attribute only the kernel writes)
        self.now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Event]] = []
        #: same-time FIFO: Event/_Deferred items at time now, seq-stamped
        self._runq: deque[Any] = deque()
        self._dpool: list[_Deferred] = []  # recycled resume records
        #: the process whose step is running, None between steps
        self.active_process: Optional[Process] = None
        self._cancelled_pending = 0  # cancelled events still scheduled
        self._obs = None  # Observability bundle, installed by repro.obs
        #: events processed since construction — the denominator for
        #: wall-clock kernel throughput (events/sec) in benchmarks.
        #: run() batches the increment and flushes it on return.
        self.events_processed = 0

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "",
                obs_ctx: Any = None) -> Process:
        """Start ``generator`` as a process: it has run to its first yield
        when this returns.  ``obs_ctx`` is the trace context it starts
        under."""
        return Process(self, generator, name, obs_ctx)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay == 0.0:
            event._qseq = self._seq
            self._runq.append(event)
        elif delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        else:
            heapq.heappush(self._heap, (self.now + delay, self._seq, event))
        self._seq += 1

    def _note_cancel(self) -> None:
        self._cancelled_pending += 1
        if (self._cancelled_pending > self.CANCEL_COMPACT_THRESHOLD
                and self._cancelled_pending * 2 > len(self._heap)):
            # In place, so the drain loop's local binding stays valid.
            self._heap[:] = [entry for entry in self._heap
                             if not entry[2]._cancelled]
            heapq.heapify(self._heap)
            # Cancelled entries may also sit in the (usually tiny) run
            # queue; they are skipped on drain, so just recount them.
            self._cancelled_pending = sum(
                1 for item in self._runq if item._cancelled)

    def _drain(self, deadline: float = _INF,
               sentinel: Any = _NEVER) -> None:
        """The loop behind :meth:`run`, and the one place that chooses
        between run queue and heap: inline choose/advance/dispatch.

        Stops when ``sentinel`` is processed, when the next heap event
        lies beyond ``deadline`` with the run queue empty, or when the
        whole schedule drains.  Every item taken that is not cancelled —
        event or deferred resume — counts once in ``events_processed``.
        """
        heappop = heapq.heappop
        heappush = heapq.heappush
        runq = self._runq   # only ever mutated in place
        heap = self._heap   # compaction rewrites it in place too
        pool = self._dpool
        count = 0
        try:
            while True:
                if sentinel._processed:
                    return
                if runq:
                    item = runq[0]
                    if item._cancelled:
                        self._cancelled_pending -= 1
                        runq.popleft()
                        continue
                    if heap and heap[0][0] == self.now \
                            and heap[0][1] < item._qseq:
                        event = heappop(heap)[2]
                        if event._cancelled:
                            self._cancelled_pending -= 1
                            continue
                    else:
                        runq.popleft()
                        if item.__class__ is _Deferred:
                            count += 1
                            item.proc._resume(item)
                            if len(pool) < _DPOOL_MAX:
                                item.proc = None
                                item._value = None
                                pool.append(item)
                            continue
                        event = item
                elif heap:
                    entry = heappop(heap)
                    event = entry[2]
                    if event._cancelled:
                        self._cancelled_pending -= 1
                        continue
                    if entry[0] > deadline:
                        heappush(heap, entry)  # once per run(), at the end
                        return
                    self.now = entry[0]
                else:
                    if sentinel is not _NEVER:
                        raise SimulationError(
                            "schedule drained before the awaited event fired")
                    return
                count += 1
                event._processed = True
                waiter = event._waiter
                if waiter is not None:
                    event._waiter = None
                    waiter(event)
                callbacks = event.callbacks
                if callbacks is not None:
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                if not event._ok:
                    if not event._defused:
                        exc = event._value
                        if isinstance(exc, BaseException):
                            raise exc
                        raise SimulationError(
                            f"unhandled event failure: {exc!r}")
        finally:
            self.events_processed += count

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the schedule drains, a deadline passes, or an event fires.

        ``until`` may be a simulation time (run to that time, then stop with
        the clock set to it) or an :class:`Event` (run until it is processed
        and return its value).
        """
        if until is None:
            return self._drain()
        if isinstance(until, Event):
            self._drain(sentinel=until)
            if not until._ok:
                raise until._value
            return until._value
        deadline = float(until)
        if deadline < self.now:
            raise SimulationError(
                f"run(until={deadline}) is in the past (now={self.now})")
        self._drain(deadline)
        self.now = deadline
