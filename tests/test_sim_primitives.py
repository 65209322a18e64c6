"""Unit tests for Resource, Gate, Loop and shielded."""

import pytest

from repro.sim import (
    Gate,
    Interrupt,
    Loop,
    Resource,
    Simulator,
    shielded,
)
from repro.sim.kernel import SimulationError


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_enforced(self, sim):
        res = Resource(sim, capacity=2)
        active = []
        peak = []

        def worker(i):
            request = res.request()
            yield request
            active.append(i)
            peak.append(len(active))
            yield sim.timeout(1.0)
            active.remove(i)
            res.release(request)

        for i in range(5):
            sim.process(worker(i))
        sim.run()
        assert max(peak) == 2
        assert sim.now == pytest.approx(3.0)  # 5 jobs / 2 slots / 1s each

    def test_release_without_request_raises(self, sim):
        res = Resource(sim)
        request = res.request()
        res.release(request)
        with pytest.raises(SimulationError):
            res.release(request)

    def test_queued_count(self, sim):
        res = Resource(sim, capacity=1)

        def user(hold):
            request = res.request()
            yield request
            yield sim.timeout(hold)
            res.release(request)

        sim.process(user(10.0))
        sim.process(user(0.0))
        sim.run(until=1.0)
        assert res.queued == 1

    def test_a_stopped_waiter_is_withdrawn_not_granted(self, sim):
        """A waiter stopped before its grant releases its request from a
        ``finally``: it leaves the queue, and the freed slot goes to the
        next live waiter instead of wedging the resource."""
        res = Resource(sim, capacity=1)
        served = []

        def user(tag, hold):
            request = res.request()
            try:
                yield request
                served.append((tag, sim.now))
                yield sim.timeout(hold)
            finally:
                res.release(request)

        sim.process(user("holder", 2.0))
        stopped = sim.process(user("stopped", 1.0))
        sim.process(user("next", 1.0))
        sim.run(until=1.0)
        stopped.interrupt("stop")
        sim.run()
        assert served == [("holder", 0.0), ("next", 2.0)]
        assert res.in_use == 0 and res.queued == 0
        assert stopped.ok and stopped.value is None


class TestGate:
    def test_open_gate_passes_immediately(self, sim):
        gate = Gate(sim)

        def main():
            yield gate.wait()
            return sim.now

        p = sim.process(main())
        assert sim.run(until=p) == 0.0

    def test_closed_gate_blocks_until_open(self, sim):
        gate = Gate(sim, open_=False)
        passed = []

        def client(i):
            yield gate.wait()
            passed.append((i, sim.now))

        for i in range(3):
            sim.process(client(i))

        def opener():
            yield sim.timeout(4.0)
            gate.open()

        sim.process(opener())
        sim.run()
        assert passed == [(0, 4.0), (1, 4.0), (2, 4.0)]

    def test_queued_counter(self, sim):
        gate = Gate(sim, open_=False)
        sim.process((lambda: (yield gate.wait()))())
        sim.run(until=0.1)
        assert gate.queued == 1
        gate.open()
        sim.run(until=0.2)
        assert gate.queued == 0


class TestLoop:
    @staticmethod
    def ticker(sim, log):
        """A round that takes no time: it logs the instant it ran."""
        def tick():
            log.append(sim.now)
            yield from ()
        return tick

    def test_rounds_land_every_interval_after_start(self, sim):
        log = []
        sim.run(until=0.5)
        Loop(sim, "tick", 2.0, self.ticker(sim, log)).start()
        sim.run(until=9.0)
        assert log == [2.5, 4.5, 6.5, 8.5]

    def test_rounds_land_where_a_hand_written_loop_lands(self, sim):
        """The timer is armed when the previous round ends, as in
        ``while True: yield timeout; yield from round()``."""
        logs = {"loop": [], "hand": []}

        def work(name):
            logs[name].append(sim.now)
            yield sim.timeout(0.75)

        def hand():
            while True:
                yield sim.timeout(2.0)
                yield from work("hand")

        Loop(sim, "loop", 2.0, lambda: work("loop")).start()
        sim.process(hand())
        sim.run(until=12.0)
        assert logs["loop"] == logs["hand"] == [2.0, 4.75, 7.5, 10.25]

    def test_start_is_idempotent_and_works_after_a_stop(self, sim):
        log = []
        loop = Loop(sim, "tick", 1.0, self.ticker(sim, log))
        loop.start()
        loop.start()                 # one process, not two
        sim.run(until=3.5)
        assert log == [1.0, 2.0, 3.0] and loop.running
        loop.stop()
        sim.run(until=5.0)
        assert log == [1.0, 2.0, 3.0] and not loop.running
        loop.start()
        sim.run(until=7.0)
        assert log == [1.0, 2.0, 3.0, 6.0, 7.0]

    def test_an_idle_stop_leaves_nothing_on_the_schedule(self, sim):
        """The armed round timer is cancelled: a run to exhaustion ends at
        the stop, not when the dead timer would have fired."""
        log = []
        loop = Loop(sim, "tick", 10.0, self.ticker(sim, log))
        loop.start()

        def stopper():
            yield sim.timeout(3.0)
            loop.stop()

        sim.process(stopper())
        sim.run()
        assert sim.now == 3.0 and log == [] and not loop.running

    def test_a_stop_mid_round_ends_the_round_at_its_yield(self, sim):
        log = []

        def slow():
            try:
                log.append(("begin", sim.now))
                yield sim.timeout(5.0)
                log.append(("end", sim.now))
            finally:
                log.append(("finally", sim.now))

        loop = Loop(sim, "slow", 1.0, slow)
        loop.start()
        sim.run(until=2.0)           # the round is asleep until 6.0
        loop.stop()
        sim.run(until=2.0)           # the interrupt lands, no time passes
        assert log == [("begin", 1.0), ("finally", 2.0)]
        sim.run(until=20.0)
        assert log == [("begin", 1.0), ("finally", 2.0)]

    def test_an_exception_a_round_raises_stops_the_run(self, sim):
        def broken():
            raise ValueError("round failed")
            yield  # pragma: no cover

        Loop(sim, "broken", 1.0, broken).start()
        with pytest.raises(ValueError, match="round failed"):
            sim.run()
        assert sim.now == 1.0


class TestShielded:
    """``yield from shielded(sim, body)``: body runs in the caller's
    process, and the caller's ``Interrupt`` never reaches it."""

    @staticmethod
    def work(sim, log, steps=3, fail_at=None):
        for step in range(steps):
            yield sim.timeout(1.0)
            if step == fail_at:
                raise ValueError(f"step {step}")
            log.append((sim.now, step))
        return "done"

    def test_costs_no_process_and_passes_values_through(self, sim):
        log = []

        def inline():
            return (yield from shielded(sim, self.work(sim, log)))

        def spawned():
            return (yield sim.process(self.work(sim, log)))

        before = sim.events_processed
        assert sim.run(until=sim.process(inline())) == "done"
        inline_events = sim.events_processed - before
        before = sim.events_processed
        assert sim.run(until=sim.process(spawned())) == "done"
        # The watched finish is what a waiting caller no longer pays for.
        assert sim.events_processed - before == inline_events + 1
        assert [step for _, step in log] == [0, 1, 2, 0, 1, 2]

    def test_body_exception_reaches_the_caller(self, sim):
        def main():
            try:
                yield from shielded(sim, self.work(sim, [], fail_at=1))
            except ValueError as exc:
                return sim.now, str(exc)

        assert sim.run(until=sim.process(main())) == (2.0, "step 1")

    def test_failed_event_reaches_the_body(self, sim):
        caught = []

        def body():
            doomed = sim.event()
            doomed.fail(KeyError("inner"), delay=1.0)
            try:
                yield doomed
            except KeyError as exc:
                caught.append(exc.args[0])
            return "recovered"

        def main():
            return (yield from shielded(sim, body()))

        assert sim.run(until=sim.process(main())) == "recovered"
        assert caught == ["inner"]

    @pytest.mark.parametrize("at", [0.0, 0.5, 1.0, 2.5])
    def test_interrupt_stops_the_caller_not_the_body(self, sim, at):
        log, seen = [], []

        def main():
            try:
                yield from shielded(sim, self.work(sim, log))
            except Interrupt as exc:
                seen.append((sim.now, exc.cause))
                return "interrupted"

        caller = sim.process(main())
        sim.run(until=at)
        caller.interrupt("stop")
        assert sim.run(until=caller) == "interrupted"
        assert seen == [(at, "stop")]       # at once, not when body ends
        sim.run()
        assert log == [(1.0, 0), (2.0, 1), (3.0, 2)]    # untouched

    def test_late_failure_of_the_orphan_is_defused(self, sim):
        def main():
            try:
                yield from shielded(sim, self.work(sim, [], fail_at=2))
            except Interrupt:
                return "interrupted"

        caller = sim.process(main())
        sim.run(until=0.5)
        caller.interrupt()
        sim.run()       # body raises at t=3 with nobody waiting: no crash
        assert sim.now == 3.0 and caller.value == "interrupted"

    def test_orphan_is_resumed_by_an_event_already_triggered(self, sim):
        """The awaited event fires at the very instant of the interrupt:
        the orphaned body still gets its value."""
        log = []
        gate = sim.event()

        def body():
            log.append((yield gate))

        def main():
            yield from shielded(sim, body())

        caller = sim.process(main())
        sim.run(until=1.0)
        gate.succeed("value")
        caller.interrupt()
        sim.run()
        # the caller was stopped: a finish, ok, with no value
        assert log == ["value"] and caller.ok and caller.value is None

    def test_a_stopped_process_is_an_ok_outcome_for_the_body(self, sim):
        """Body waits on a process that somebody stops: body is resumed
        with the stopped process's ``None`` — the outcome of its own wait,
        not a cancellation of the caller."""
        outcome = []

        def sleeper():
            yield sim.timeout(10.0)
            return "slept"

        def body(child):
            outcome.append((yield child))
            return "body carried on"

        def main(child):
            return (yield from shielded(sim, body(child)))

        child = sim.process(sleeper())
        caller = sim.process(main(child))
        sim.run(until=1.0)
        child.interrupt("child stopped")
        assert sim.run(until=caller) == "body carried on"
        assert outcome == [None] and sim.now == 1.0

    def test_interrupt_that_is_the_awaited_outcome_goes_to_the_body(self, sim):
        """An event somebody failed with an ``Interrupt`` is the outcome of
        body's own wait: body gets it, the caller is not cancelled."""
        outcome = []
        doomed = sim.event()

        def body():
            try:
                yield doomed
            except Interrupt as exc:
                outcome.append(exc.cause)
            return "body handled it"

        def main():
            return (yield from shielded(sim, body()))

        caller = sim.process(main())
        doomed.fail(Interrupt("failed with one"), delay=1.0)
        assert sim.run(until=caller) == "body handled it"
        assert outcome == ["failed with one"]

    def test_nested_bodies_move_together(self, sim):
        log = []

        def outer():
            log.append("outer start")
            result = yield from shielded(sim, self.work(sim, log, steps=2))
            log.append(f"outer got {result}")

        def main():
            yield from shielded(sim, outer())

        caller = sim.process(main())
        sim.run(until=1.5)
        caller.interrupt()
        sim.run()
        assert log == ["outer start", (1.0, 0), (2.0, 1), "outer got done"]
