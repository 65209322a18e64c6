"""Unit tests for the discrete-event kernel."""

import ast
import gc
import weakref
from pathlib import Path

import pytest

from repro.sim import Interrupt, SimulationError, Simulator, kernel


@pytest.fixture
def sim():
    return Simulator()


class TestEvents:
    def test_event_lifecycle(self, sim):
        ev = sim.event()
        assert not ev.triggered and not ev.processed
        ev.succeed(42)
        assert ev.triggered
        sim.run()
        assert ev.processed
        assert ev.value == 42

    def test_event_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_double_trigger_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("nope"))

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_unhandled_failure_stops_simulation(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_defused_failure_is_silent(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        ev.defuse()
        sim.run()  # no raise

    def test_delayed_succeed(self, sim):
        ev = sim.event()
        ev.succeed("late", delay=5.0)
        sim.run()
        assert sim.now == 5.0


class TestTimeouts:
    def test_timeout_advances_clock(self, sim):
        t = sim.timeout(3.5, value="done")
        sim.run()
        assert sim.now == 3.5
        assert t.value == "done"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_run_until_time_stops_clock_exactly(self, sim):
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_until_past_raises(self, sim):
        sim.timeout(1.0)
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)


class TestProcesses:
    def test_simple_process(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield sim.timeout(1.0)
            trace.append(sim.now)
            yield sim.timeout(2.0)
            trace.append(sim.now)
            return "finished"

        p = sim.process(proc())
        result = sim.run(until=p)
        assert result == "finished"
        assert trace == [0.0, 1.0, 3.0]

    def test_process_is_event(self, sim):
        def child():
            yield sim.timeout(2.0)
            return 7

        def parent():
            value = yield sim.process(child())
            return value + 1

        p = sim.process(parent())
        assert sim.run(until=p) == 8

    def test_process_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_exception_propagates_to_waiter(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise KeyError("lost")

        def parent():
            try:
                yield sim.process(child())
            except KeyError:
                return "caught"
            return "not caught"

        p = sim.process(parent())
        assert sim.run(until=p) == "caught"

    def test_unwaited_process_failure_raises(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("unobserved")

        sim.process(bad())
        with pytest.raises(RuntimeError, match="unobserved"):
            sim.run()

    def test_yield_non_event_raises_in_process(self, sim):
        def bad():
            yield 42

        p = sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run(until=p)

    def test_wait_on_already_processed_event(self, sim):
        ev = sim.event()
        ev.succeed("early")
        sim.run()

        def late():
            value = yield ev
            return value

        p = sim.process(late())
        assert sim.run(until=p) == "early"

    def test_interrupt(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100.0)
                return "slept"
            except Interrupt as exc:
                return f"interrupted:{exc.cause}"

        p = sim.process(sleeper())

        def killer():
            yield sim.timeout(1.0)
            p.interrupt("wakeup")

        sim.process(killer())
        assert sim.run(until=p) == "interrupted:wakeup"
        assert sim.now == pytest.approx(1.0)

    def test_interrupt_finished_process_raises(self, sim):
        def quick():
            yield sim.timeout(0.1)

        p = sim.process(quick())
        sim.run(until=p)
        with pytest.raises(SimulationError):
            p.interrupt()


class TestConditions:
    def test_all_of_collects_values(self, sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(2.0, value="b")

        def waiter():
            values = yield sim.all_of([t1, t2])
            return values

        p = sim.process(waiter())
        assert sim.run(until=p) == ["a", "b"]
        assert sim.now == 2.0

    def test_any_of_returns_first(self, sim):
        t1 = sim.timeout(5.0, value="slow")
        t2 = sim.timeout(1.0, value="fast")

        def waiter():
            index, value = yield sim.any_of([t1, t2])
            return index, value

        p = sim.process(waiter())
        assert sim.run(until=p) == (1, "fast")

    def test_all_of_empty_fires_immediately(self, sim):
        def waiter():
            values = yield sim.all_of([])
            return values

        p = sim.process(waiter())
        assert sim.run(until=p) == []

    def test_all_of_failure_propagates(self, sim):
        bad = sim.event()

        def failer():
            yield sim.timeout(1.0)
            bad.fail(ValueError("child died"))

        def waiter():
            try:
                yield sim.all_of([bad, sim.timeout(10.0)])
            except ValueError:
                return "failed"
            return "ok"

        sim.process(failer())
        p = sim.process(waiter())
        assert sim.run(until=p) == "failed"


    def test_decided_all_of_dies_by_refcount(self, sim):
        """A waited ``all_of`` holds no cycle through itself: once the
        waiter has resumed, the condition and the processes it gathered are
        freed by refcount alone, not left for the cyclic GC."""
        class Proc(kernel.Process):     # no __slots__: weakref-able
            pass

        class AllOf(kernel.AllOf):
            pass

        refs = []

        def child(delay):
            yield sim.timeout(delay)

        def gather():
            children = [Proc(sim, child(1.0)), Proc(sim, child(2.0))]
            condition = AllOf(sim, children)
            refs.extend(weakref.ref(obj) for obj in (*children, condition))
            return condition

        def waiter():
            values = yield gather()
            return values

        gc.disable()
        try:
            assert sim.run(until=sim.process(waiter())) == [None, None]
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


class TestDeterminism:
    def test_fifo_tie_breaking(self, sim):
        order = []
        for tag in ("first", "second", "third"):
            def proc(t=tag):
                yield sim.timeout(1.0)
                order.append(t)
            sim.process(proc())
        sim.run()
        assert order == ["first", "second", "third"]

    def test_repeat_run_identical(self):
        def build_and_run():
            sim = Simulator()
            trace = []

            def worker(n):
                for i in range(n):
                    yield sim.timeout(0.5 * n)
                    trace.append((sim.now, n, i))

            for n in (1, 2, 3):
                sim.process(worker(n))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()


class TestFastPath:
    """Behavior pinned for the run-queue/deferred-resume fast path."""

    def test_runq_and_heap_interleave_in_seq_order(self, sim):
        """Zero-delay and equal-timestamp heap events keep creation order."""
        order = []

        def starter():
            yield sim.timeout(1.0)
            # At t=1.0, alternate heap entries (timeout stamped for now+0 is
            # runq; a 0-delay succeed is runq; events succeeded with delay
            # land on the heap at the same timestamp after runq stamps).
            for tag in ("a", "b", "c", "d"):
                ev = sim.event()
                ev.succeed(tag)
                ev.subscribe(lambda e: order.append(e.value))
            late = sim.event()
            late.succeed("via-heap", delay=0.0)
            late.subscribe(lambda e: order.append(e.value))

        sim.process(starter())
        sim.run()
        assert order == ["a", "b", "c", "d", "via-heap"]

    def test_heap_preempts_runq_when_seq_is_older(self, sim):
        """An equal-time heap entry created *earlier* fires first."""
        order = []

        def proc():
            t = sim.timeout(1.0, value="heap-old")   # heap, seq N
            t.subscribe(lambda e: order.append(e.value))
            yield sim.timeout(1.0)                   # heap, seq N+1 -> now=1
            ev = sim.event()
            ev.succeed("runq-new")                   # runq, seq N+2
            ev.subscribe(lambda e: order.append(e.value))

        sim.process(proc())
        sim.run()
        assert order == ["heap-old", "runq-new"]

    def test_subscribe_to_processed_event_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        sim.run()
        with pytest.raises(SimulationError):
            ev.subscribe(lambda e: None)

    def test_subscribe_overflow_preserves_order(self, sim):
        """First subscriber takes the waiter slot; the rest keep order."""
        ev = sim.event()
        order = []
        for i in range(5):
            ev.subscribe(lambda e, i=i: order.append(i))
        ev.succeed()
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_any_of_duplicate_event_reports_first_index(self, sim):
        t = sim.timeout(1.0, value="x")

        def waiter():
            index, value = yield sim.any_of([t, t, sim.timeout(9.0)])
            return index, value

        p = sim.process(waiter())
        assert sim.run(until=p) == (0, "x")

    def test_interrupt_storm_leaves_tombstones_harmless(self, sim):
        """Many processes interrupted off one hot event: the dead
        subscriptions must not fire and the survivors must all resume."""
        hot = sim.event()
        results = []

        def sleeper(i):
            try:
                value = yield hot
                results.append(("woke", i, value))
            except Interrupt:
                results.append(("interrupted", i, None))

        procs = [sim.process(sleeper(i)) for i in range(20)]
        sim.run(until=sim.now)  # let everyone park on `hot`

        def killer():
            yield sim.timeout(1.0)
            for p in procs[::2]:
                p.interrupt()
            hot.succeed("fire")

        sim.process(killer())
        sim.run()
        assert len(results) == 20
        interrupted = sorted(i for kind, i, _ in results
                             if kind == "interrupted")
        woke = sorted(i for kind, i, _ in results if kind == "woke")
        assert interrupted == list(range(0, 20, 2))
        assert woke == list(range(1, 20, 2))
        assert all(v == "fire" for kind, _, v in results if kind == "woke")

    def test_interrupted_process_can_wait_again(self, sim):
        """After an interrupt the process re-parks cleanly (timeout racing
        does this on every retry)."""
        def sleeper():
            for _ in range(3):
                try:
                    yield sim.timeout(100.0)
                except Interrupt:
                    pass
            yield sim.timeout(0.5)
            return sim.now

        p = sim.process(sleeper())

        def killer():
            for _ in range(3):
                yield sim.timeout(1.0)
                p.interrupt()

        sim.process(killer())
        assert sim.run(until=p) == pytest.approx(3.5)

    def test_events_processed_counts_every_dispatch(self, sim):
        """events_processed semantics are unchanged: one increment per
        processed event, deferred resumes included.  The process itself
        adds none: it starts inside ``process()`` and nobody watches it
        finish."""
        done = sim.event()
        done.succeed()
        sim.run()
        base = sim.events_processed
        assert base == 1  # the `done` event itself

        def waiter():
            yield done          # deferred resume: counts as one event
            yield sim.timeout(1.0)

        p = sim.process(waiter())
        sim.run(until=p)
        # deferred resume + timeout
        assert sim.events_processed == base + 2

    def test_cancel_in_runq_is_skipped(self, sim):
        ev = sim.event()
        ev.succeed("never")
        fired = []
        ev.subscribe(lambda e: fired.append(e.value))
        ev.cancel()
        sim.run()
        assert fired == []
        assert not ev.processed


class TestProcessCost:
    """A process costs no kernel events of its own: it starts inside
    ``process()``, and a finish nobody is watching schedules nothing."""

    def test_first_step_runs_before_process_returns(self, sim):
        log = []

        def child():
            log.append(("child", sim.active_process.name))
            yield sim.timeout(1.0)

        def creator():
            me = sim.active_process
            proc = sim.process(child(), name="child")
            log.append(("creator", proc.is_alive))
            assert sim.active_process is me     # restored for the creator
            yield proc

        sim.process(creator(), name="creator")
        # Nothing has been dispatched, and both first steps have run.
        assert sim.events_processed == 0
        assert log == [("child", "child"), ("creator", True)]
        assert sim.active_process is None
        sim.run()

    def test_first_statement_can_be_deferred_explicitly(self, sim):
        log = []

        def child():
            yield sim.timeout(0)
            log.append("child")

        sim.process(child())
        log.append("creator")
        sim.run()
        assert log == ["creator", "child"]

    def test_unwatched_finish_processes_no_event(self, sim):
        def work(value):
            yield sim.timeout(1.0)
            return value

        procs = [sim.process(work(i)) for i in range(3)]
        sim.run()
        assert sim.events_processed == 3            # the three timeouts
        assert all(p.processed and p.ok for p in procs)

        # ...and its value is there for whoever asks afterwards.
        def late():
            one = yield procs[1]
            every = yield sim.all_of(procs)
            return one, every

        assert sim.run(until=sim.process(late())) == (1, [0, 1, 2])
        assert sim.run(until=procs[2]) == 2

    def test_process_done_within_its_first_step(self, sim):
        def instant():
            return "now"
            yield

        proc = sim.process(instant())
        assert proc.processed and proc.value == "now"
        assert sim.run(until=proc) == "now"
        assert sim.events_processed == 0

    def test_run_until_an_unwatched_process_returns_at_its_finish(self, sim):
        def work():
            yield sim.timeout(1.0)
            return "done"

        sim.timeout(5.0)    # later traffic run(until=proc) must not wait for
        assert sim.run(until=sim.process(work())) == "done"
        assert sim.now == 1.0
        assert sim.events_processed == 1

    def test_unwatched_failure_still_stops_the_simulation(self, sim):
        def bad():
            raise RuntimeError("in the first step")
            yield

        proc = sim.process(bad())       # does not raise here
        assert not proc.processed
        with pytest.raises(RuntimeError, match="in the first step"):
            sim.run()

    def test_watched_finish_costs_exactly_one_event(self, sim):
        def child():
            yield sim.timeout(1.0)
            return 7

        def parent():
            return (yield sim.process(child()))

        assert sim.run(until=sim.process(parent())) == 7
        # child's timeout + child's finish waking the parent
        assert sim.events_processed == 2


class TestInterruptRule:
    """An interrupt lands on the yield the process is parked on, whatever
    that is — a pending event or a resume already queued — and on a
    running process's next one; never on a process that has finished."""

    @pytest.mark.parametrize("hops", [1, 2])
    def test_interrupt_supersedes_a_queued_resume(self, sim, hops):
        """``hops`` picks the way into ``_resume`` that queued the resume:
        1 — the process was woken by an event; 2 — by an earlier queued
        resume (a ``_Deferred``)."""
        done = sim.event()
        done.succeed("early")
        sim.run()
        later = sim.event()
        log = []

        def victim():
            yield sim.timeout(1.0)
            try:
                for _ in range(hops):
                    log.append((yield done))    # processed: resume is queued
                log.append((yield later))
            except Interrupt as exc:
                log.append(exc.cause)

        def killer():
            yield sim.timeout(1.0)
            for _ in range(hops - 1):
                yield done                      # keep in step with the victim
            proc.interrupt("stop")      # between its yield and the resume

        proc = sim.process(victim())
        sim.process(killer())
        later.succeed("late", delay=2.0)    # used to step the dead process
        sim.run()
        assert log == ["early"] * (hops - 1) + ["stop"]
        assert proc.processed and proc.ok

    def test_interrupt_of_a_running_process_lands_on_its_next_wait(self, sim):
        log = []

        def child(creator):
            creator.interrupt("from my first step")
            yield sim.timeout(1.0)

        def creator():
            sim.process(child(sim.active_process))
            log.append("still running")
            try:
                yield sim.timeout(5.0)
            except Interrupt as exc:
                log.append((sim.now, exc.cause))

        sim.process(creator())
        sim.run()
        assert log == ["still running", (0.0, "from my first step")]

    def test_interrupt_landing_on_a_finished_process_is_dropped(self, sim):
        def quitter():
            yield sim.timeout(1.0)
            sim.active_process.interrupt()
            return "gone"

        proc = sim.process(quitter())
        sim.run()
        assert proc.value == "gone"

    def test_two_interrupts_are_both_delivered(self, sim):
        causes = []

        def sleeper():
            while len(causes) < 2:
                try:
                    yield sim.timeout(10.0)
                except Interrupt as exc:
                    causes.append((sim.now, exc.cause))

        proc = sim.process(sleeper())
        sim.timeout(1.0).subscribe(
            lambda _ev: (proc.interrupt("a"), proc.interrupt("b")))
        sim.run()
        assert causes == [(1.0, "a"), (1.0, "b")]


class TestStopRule:
    """An interrupt nobody catches by name stops the process: it finishes
    ok with ``None``, on the way out of every ``finally``, and a broad
    ``except Exception`` does not get in the way."""

    def test_an_uncaught_interrupt_is_an_unwatched_finish(self, sim):
        def sleeper():
            yield sim.timeout(10.0)
            return "slept"

        proc = sim.process(sleeper())
        sim.run(until=1.0)
        proc.interrupt("stop")
        before = sim.events_processed
        sim.run(until=1.0)
        assert proc.processed and proc.ok and proc.value is None
        assert sim.events_processed == before + 1   # the notice, no finish

    def test_a_watcher_is_woken_with_none(self, sim):
        def sleeper():
            yield sim.timeout(10.0)
            return "slept"

        def watcher(child):
            return ("woken", (yield child), sim.now)

        child = sim.process(sleeper())
        proc = sim.process(watcher(child))
        sim.run(until=1.0)
        child.interrupt()
        assert sim.run(until=proc) == ("woken", None, 1.0)

    def test_a_broad_except_does_not_catch_a_stop(self, sim):
        log = []

        def careless():
            try:
                try:
                    yield sim.timeout(10.0)
                except Exception as exc:    # a peer failure, it thinks
                    log.append(("swallowed", exc))
                yield sim.timeout(10.0)
            finally:
                log.append(("finally", sim.now))

        proc = sim.process(careless())
        sim.run(until=1.0)
        proc.interrupt()
        sim.run()
        assert log == [("finally", 1.0)]
        assert proc.ok and proc.value is None
        assert not issubclass(Interrupt, Exception)


class TestOneSteppingCore:
    """``Process._resume`` is the only code that steps a process generator,
    and a step re-subscribes the same way whichever way it came in."""

    def test_send_and_throw_are_called_from_the_core_only(self):
        """The ratchet that keeps a second stepping copy from growing back
        (the drain loop used to inline one, ``_advance`` was another)."""
        callers = {"_send": set(), "_throw": set()}

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, f"{where}.{child.name}".lstrip("."))
                    continue
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr in callers):
                    callers[child.func.attr].add(where)
                visit(child, where)

        visit(ast.parse(Path(kernel.__file__).read_text()), "")
        assert callers == {"_send": {"Process._resume"},
                           "_throw": {"Process._resume"}}

    def test_catching_a_refused_yield_and_returning_is_a_success(self, sim):
        """The ``SimulationError`` for a non-event yield is thrown in at
        that yield; a generator that catches it and returns has finished
        *ok* with that value (it used to be marked failed with the
        ``StopIteration``)."""
        def body():
            try:
                yield 42
            except SimulationError as exc:
                return f"caught: {exc}"

        proc = sim.process(body())
        sim.run()
        assert proc.ok
        assert proc.value == "caught: process 'body' yielded non-event 42"

    def test_catching_a_refused_yield_and_yielding_again_resumes(self, sim):
        """...and one that catches it and waits on a real event is parked
        on that event and resumed when it fires (it used to be dropped:
        never resumed, never finished)."""
        def body():
            try:
                yield "not an event"
            except SimulationError:
                pass
            got = yield sim.timeout(2.0, "woke")
            with pytest.raises(SimulationError, match="non-event None"):
                yield None              # refused again, caught again
            return got, sim.now

        proc = sim.process(body())
        sim.run()
        assert proc.ok and proc.value == ("woke", 2.0)

    @pytest.mark.parametrize("way", ["first step", "event fired",
                                     "deferred ok", "deferred failed",
                                     "interrupt"])
    def test_every_way_in_resubscribes_the_same(self, sim, way):
        done = sim.event().succeed("early")
        bad = sim.event()
        bad.defuse()
        bad.fail(KeyError("boom"))
        sim.run()                       # both processed

        def warm():         # a chain of deferred resumes fills the free list
            for _ in range(3):
                yield done
        sim.run(until=sim.process(warm()))
        pooled = len(sim._dpool)

        def arrive():
            """Return inside the step that ``way`` into the core performs."""
            if way == "event fired":
                yield sim.timeout(1.0)
            elif way == "deferred ok":
                assert (yield done) == "early"
            elif way == "deferred failed":
                with pytest.raises(KeyError, match="boom"):
                    yield bad           # re-raised in the waiter
            elif way == "interrupt":
                with pytest.raises(Interrupt, match="wake"):
                    yield sim.timeout(10.0)

        def start(body):
            proc = sim.process(body())
            if way == "interrupt":
                sim.timeout(1.0).subscribe(
                    lambda _ev: proc.interrupt("wake"))
            return proc

        def refused():
            yield from arrive()
            yield 42

        def resubscribed():
            yield from arrive()
            first = yield done                      # processed: a _Deferred
            second = yield sim.timeout(1.0, "late")  # pending: a subscription
            return [first, second]

        proc = start(refused)
        with pytest.raises(SimulationError, match="yielded non-event 42"):
            sim.run()                   # thrown into the generator: it died
        assert not proc.ok and len(sim._dpool) == pooled
        proc = start(resubscribed)
        sim.run()
        assert proc.value == ["early", "late"]
        assert len(sim._dpool) == pooled    # every record came back
        assert bad._defused
