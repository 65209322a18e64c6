"""Chaos suite: fault injection, retry/backoff, and anti-entropy repair.

The headline test injects a 30-second WAN partition into an
eventually-consistent deployment while writes keep flowing, and proves the
replicas converge after the heal: every replica holds the latest version
of every key and no delivery failure is left unrepaired.
"""

import pytest

from repro import (
    GlobalPolicySpec,
    RegionPlacement,
    RetryPolicy,
    build_deployment,
)
from repro.faults import call_with_retries
from repro.net import EU_WEST, US_EAST, US_WEST, Network
from repro.sim import Simulator
from repro.sim.rpc import RpcError, RpcNode
from repro.tiera.policy import memory_only_policy
from repro.util.rng import RngRegistry
from tests.quiescence import settle

REGIONS = (US_EAST, US_WEST, EU_WEST)


def deploy(consistency, seed=53, **kwargs):
    dep = build_deployment(REGIONS, seed=seed)
    spec = GlobalPolicySpec(
        name="chaos",
        placements=tuple(
            RegionPlacement(r, memory_only_policy(),
                            primary=(r == US_EAST)) for r in REGIONS),
        consistency=consistency, **kwargs)
    instances = dep.start_wiera_instance("chaos", spec)
    return dep, instances


def latest_meta(instance, key):
    record = instance.meta.get_record(key)
    if record is None:
        return None
    meta = record.latest()
    if meta is None:
        return None
    return (meta.version, meta.last_modified)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.1,
                             max_delay=1.0, jitter=0.0)
        delays = [policy.backoff(i) for i in range(6)]
        assert delays[:4] == [0.1, 0.2, 0.4, 0.8]
        assert delays[4] == delays[5] == 1.0

    def test_jitter_is_deterministic_per_stream(self):
        policy = RetryPolicy(jitter=0.5)
        a = [policy.backoff(i, RngRegistry(9).stream("x")) for i in range(4)]
        b = [policy.backoff(i, RngRegistry(9).stream("x")) for i in range(4)]
        assert a == b
        nominal = [policy.backoff(i) for i in range(4)]
        assert a != nominal  # jitter actually moved the delays

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCallWithRetries:
    @pytest.fixture
    def world(self):
        sim = Simulator()
        net = Network(sim)
        a = RpcNode(sim, net, net.add_host("a", US_EAST), name="a")
        b = RpcNode(sim, net, net.add_host("b", US_WEST), name="b")
        return sim, net, a, b

    def test_succeeds_after_transient_failures(self, world):
        sim, net, a, b = world
        state = {"fails": 2}

        def flaky(msg):
            yield sim.timeout(0.001)
            if state["fails"] > 0:
                state["fails"] -= 1
                raise RpcError("transient")
            return {"ok": True}

        b.register("flaky", flaky)
        policy = RetryPolicy(max_attempts=5, base_delay=0.01, jitter=0.0)

        def main():
            result = yield from call_with_retries(
                sim, lambda: a.call(b, "flaky"), policy)
            return result

        proc = sim.process(main())
        assert sim.run(until=proc) == {"ok": True}
        assert state["fails"] == 0

    def test_exhausted_attempts_reraise(self, world):
        sim, net, a, b = world

        def dead(msg):
            yield sim.timeout(0.001)
            raise RpcError("always down")

        b.register("dead", dead)
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)

        def main():
            yield from call_with_retries(sim, lambda: a.call(b, "dead"),
                                         policy)

        proc = sim.process(main())
        with pytest.raises(RpcError):
            sim.run(until=proc)


class TestFaultSchedule:
    def test_schedule_is_deterministic(self):
        logs = []
        for _ in range(2):
            dep, _ = deploy("eventual", queue_interval=1.0)
            faults = dep.fault_schedule()
            faults.partition(1.0, US_EAST, EU_WEST, duration=2.0)
            faults.crash(2.0, dep.server(US_WEST), duration=1.5)
            faults.latency_spike(0.5, 0.1, regions=(US_EAST, US_WEST),
                                 duration=4.0)
            faults.start()
            dep.sim.run(until=6.0)
            logs.append(list(faults.applied))
            assert settle(dep, faults) == []
        assert logs[0] == logs[1]
        assert [kind for _, kind, _ in logs[0]] == [
            "delay", "partition", "crash", "heal", "restart"]

    def test_crash_wipes_volatile_tiers(self):
        dep, instances = deploy("local")
        inst = dep.instance("chaos", US_WEST)
        client = dep.add_client(US_WEST, instances=[
            info for info in instances if info["region"] == US_WEST])
        dep.drive(client.put("k", b"v"))
        assert inst.meta.get_record("k") is not None
        faults = dep.fault_schedule()
        faults.crash(dep.sim.now + 0.5, dep.server(US_WEST), duration=1.0)
        faults.start()
        dep.sim.run(until=dep.sim.now + 3.0)
        assert dep.metric_total("faults.injected", kind="crash") == 1
        # memory-only instance lost the object's bytes with the crash
        record = inst.meta.get_record("k")
        assert record is None or not record.latest().locations
        assert settle(dep, faults) == []

    def test_cannot_extend_running_schedule(self):
        dep, _ = deploy("local")
        faults = dep.fault_schedule().partition(1.0, US_EAST, EU_WEST,
                                                duration=1.0)
        faults.start()
        with pytest.raises(RuntimeError):
            faults.partition(5.0, US_EAST, US_WEST, duration=1.0)


class TestPartitionConvergence:
    """The acceptance test: a 30 s partition during eventual-consistency
    writes, then convergence after heal + anti-entropy repair."""

    def test_replicas_converge_after_heal(self):
        dep, instances = deploy("eventual", queue_interval=1.0,
                                repair_interval=5.0)
        client = dep.add_client(US_EAST, instances=instances)
        faults = dep.fault_schedule()
        faults.partition(2.0, US_EAST, EU_WEST, duration=30.0)
        faults.start()

        keys = [f"k{i}" for i in range(5)]

        def workload():
            # Writes before, during, and after the partition window.
            for round_ in range(12):
                for key in keys:
                    payload = f"{key}-r{round_}".encode()
                    yield from client.put(key, payload)
                yield dep.sim.timeout(2.0)

        dep.drive(workload())
        # Partition healed at t=32; let retries + repair rounds finish.
        dep.sim.run(until=80.0)

        protocol = dep.tim("chaos").protocol
        queues = list(protocol._queues.values())
        # The partition really bit: first-attempt sends failed...
        assert sum(q.send_failures for q in queues) > 0
        # ...retries were capped, so some entries went to anti-entropy...
        assert sum(q.abandoned for q in queues) > 0
        # ...and nothing stayed diverged.
        assert sum(q.outstanding_failures for q in queues) == 0

        locals_ = [dep.instance("chaos", r) for r in REGIONS]
        for key in keys:
            versions = [latest_meta(inst, key) for inst in locals_]
            assert versions[0] is not None
            assert versions.count(versions[0]) == len(versions), (
                f"{key} diverged: {versions}")
        assert settle(dep, faults) == []

    def test_repair_pushed_keys_across_healed_partition(self):
        dep, instances = deploy("eventual", queue_interval=1.0,
                                repair_interval=5.0)
        client = dep.add_client(US_EAST, instances=instances)
        faults = dep.fault_schedule()
        faults.partition(1.0, US_EAST, EU_WEST, duration=30.0)
        faults.start()

        def workload():
            yield dep.sim.timeout(2.0)   # inside the partition window
            yield from client.put("solo", b"written-during-partition")

        dep.drive(workload())
        dep.sim.run(until=60.0)
        assert dep.metric_total("repair.keys_pushed") > 0
        eu = dep.instance("chaos", EU_WEST)
        assert latest_meta(eu, "solo") is not None
        assert settle(dep, faults) == []


class TestRepairOrder:
    def test_repair_ranks_copies_like_the_replicas(self):
        """Anti-entropy pushes by the replicas' own order, version first:
        a copy with the higher version wins even if it is older in time,
        so one push settles the key instead of one per round forever."""
        regions = (US_EAST, US_WEST)
        dep = build_deployment(regions, seed=53)
        spec = GlobalPolicySpec(
            name="order",
            placements=tuple(RegionPlacement(r, memory_only_policy())
                             for r in regions),
            consistency="eventual", queue_interval=1.0, repair_interval=5.0)
        instances = dep.start_wiera_instance("order", spec)
        east = dep.add_client(US_EAST, instances=instances)
        west = dep.add_client(US_WEST, instances=instances)
        t0 = dep.sim.now
        faults = dep.fault_schedule()
        faults.partition(t0 + 0.5, US_EAST, US_WEST, duration=60.0)
        faults.start()

        def west_writes():
            yield dep.sim.timeout(1.0)
            yield from west.put("k", b"west-1")
            yield from west.put("k", b"west-2")

        def east_writes():
            yield dep.sim.timeout(3.0)
            yield from east.put("k", b"east-1")

        dep.sim.process(west_writes())
        dep.sim.process(east_writes())
        dep.sim.run(until=t0 + 200.0)

        latest = [dep.instance("order", r).meta.get_record("k").latest()
                  for r in regions]
        assert [meta.version for meta in latest] == [2, 2]
        assert latest[0].last_modified == latest[1].last_modified
        assert dep.metric_total("repair.keys_pushed") == 1
        assert settle(dep, faults) == []


class TestPrimaryCrashMidForward:
    def test_forwarded_put_retries_until_primary_returns(self):
        dep, instances = deploy("primary_backup", sync_replication=True)
        tim = dep.tim("chaos")
        # Give the forward path enough backoff budget to outlive the crash.
        tim.protocol.retry_policy = RetryPolicy(
            max_attempts=8, base_delay=0.1,
            max_delay=5.0, jitter=0.0)
        client = dep.add_client(EU_WEST, instances=[
            info for info in instances if info["region"] == EU_WEST])
        faults = dep.fault_schedule()
        faults.crash(1.0, dep.server(US_EAST), duration=2.0)
        faults.start()

        def app():
            yield dep.sim.timeout(1.5)   # primary is down right now
            result = yield from client.put("k", b"v")
            return result

        result = dep.drive(app())
        assert result["version"] == 1
        assert tim.protocol.forwarded_puts == 1
        assert dep.sim.now > 3.0   # the put could only finish post-restart
        # The sync broadcast reached the other backup too.
        assert latest_meta(dep.instance("chaos", US_WEST), "k") is not None
        assert settle(dep, faults) == []


class TestRemovePropagation:
    def test_sync_primary_backup_remove_reaches_all_peers(self):
        dep, instances = deploy("primary_backup", sync_replication=True)
        client = dep.add_client(US_EAST, instances=instances)

        def app():
            yield from client.put("k", b"v")
            yield from client.remove("k")

        dep.drive(app())
        # Synchronous mode: by the time remove() acked, every replica
        # (not just the primary) dropped the key.  No settling time.
        for region in REGIONS:
            assert dep.instance("chaos", region).meta.get_record("k") is None

    def test_multi_primaries_remove_is_synchronous_and_unlocks(self):
        dep, instances = deploy("multi_primaries")
        client = dep.add_client(US_WEST, instances=instances)

        def app():
            yield from client.put("k", b"v")
            yield from client.remove("k")

        dep.drive(app())
        for region in REGIONS:
            assert dep.instance("chaos", region).meta.get_record("k") is None
        assert dep.wiera.lock_service.held_keys() == []

    def test_backup_remove_forwards_to_primary(self):
        dep, instances = deploy("primary_backup", sync_replication=True)
        client = dep.add_client(EU_WEST, instances=[
            info for info in instances if info["region"] == EU_WEST])

        def app():
            yield from client.put("k", b"v")
            yield from client.remove("k")

        dep.drive(app())
        assert dep.tim("chaos").protocol.forwarded_removes == 1
        for region in REGIONS:
            assert dep.instance("chaos", region).meta.get_record("k") is None

    def test_async_primary_backup_remove_rides_the_queue(self):
        dep, instances = deploy("primary_backup", sync_replication=False,
                                queue_interval=0.5)
        client = dep.add_client(US_EAST, instances=instances)

        def app():
            yield from client.put("k", b"v")
            yield from client.remove("k")

        dep.drive(app())
        dep.sim.run(until=dep.sim.now + 3.0)
        for region in REGIONS:
            assert dep.instance("chaos", region).meta.get_record("k") is None


class TestClientFailover:
    def test_client_times_out_and_fails_over(self):
        dep, instances = deploy("eventual", queue_interval=1.0)
        client = dep.add_client(US_EAST, instances=instances,
                                request_timeout=0.5)
        # Make the closest instance unreachable without erroring fast:
        # blackhole via a huge latency spike, so only the timeout can save
        # the client.
        faults = dep.fault_schedule()
        faults.latency_spike(0.0, 60.0,
                             host=dep.instance("chaos", US_EAST).host)
        faults.start()

        def app():
            yield dep.sim.timeout(0.5)
            result = yield from client.put("k", b"v")
            return result

        result = dep.drive(app())
        assert result["version"] == 1
        assert dep.metric_total("client.failovers") >= 1
        # The object landed on a non-closest instance.
        assert result["region"] != US_EAST
        assert settle(dep, faults) == []

    def test_client_retry_policy_rides_out_total_outage(self):
        dep, instances = deploy("eventual", queue_interval=1.0)
        client = dep.add_client(
            US_EAST, instances=instances,
            retry_policy=RetryPolicy(max_attempts=6, base_delay=0.2,
                                     jitter=0.0))
        faults = dep.fault_schedule()
        for region in REGIONS:
            faults.crash(0.5, dep.server(region), duration=1.5)
        faults.start()

        def app():
            yield dep.sim.timeout(1.0)   # everything is down
            result = yield from client.put("k", b"v")
            return result

        result = dep.drive(app())
        assert result["version"] == 1
        assert dep.metric_total("client.retries") >= 1
        assert settle(dep, faults) == []


class TestDrainAndDetach:
    def test_detach_counts_dropped_pending(self):
        dep, instances = deploy("eventual", queue_interval=500.0)
        client = dep.add_client(US_EAST, instances=instances)
        dep.drive(client.put("k", b"v"))
        inst = dep.instance("chaos", US_EAST)
        protocol = dep.tim("chaos").protocol
        assert protocol.pending_count(inst) == 1
        protocol.detach(inst)   # nothing drained: the drop is surfaced
        assert dep.metric_total("replication.pending_dropped",
                                 instance=inst.instance_id) == 1

    def test_ctl_drain_reports_zero_pending_after_drain(self):
        dep, instances = deploy("eventual", queue_interval=500.0)
        client = dep.add_client(US_EAST, instances=instances)
        dep.drive(client.put("k", b"v"))
        inst = dep.instance("chaos", US_EAST)
        tim = dep.tim("chaos")

        def drain():
            result = yield tim.node.call(inst.node, "ctl_drain")
            return result

        result = dep.drive(drain())
        assert result == {"drained": True, "pending": 0}
        dep.sim.run(until=dep.sim.now + 1.0)
        for region in (US_WEST, EU_WEST):
            assert latest_meta(dep.instance("chaos", region),
                               "k") is not None

    def test_consistency_switch_still_clean(self):
        dep, instances = deploy("eventual", queue_interval=0.5)
        client = dep.add_client(US_EAST, instances=instances)
        dep.drive(client.put("k", b"v"))
        tim = dep.tim("chaos")
        dep.drive(tim.switch_consistency("multi_primaries"))
        assert tim.protocol.name == "multi_primaries"
        assert dep.metric_total("replication.pending_dropped") == 0


def run_reference_workload(use_schedule):
    dep, instances = deploy("eventual", seed=11, queue_interval=1.0)
    if use_schedule:
        dep.fault_schedule().start()   # empty: must change nothing
    client = dep.add_client(US_WEST, instances=instances)

    def workload():
        for i in range(10):
            yield from client.put(f"k{i % 3}", b"x" * (200 + i))
            result = yield from client.get(f"k{i % 3}")
            assert result["data"]
            yield dep.sim.timeout(0.3)

    dep.drive(workload())
    dep.sim.run(until=20.0)
    return client


class TestNoFaultsMeansNoChange:
    def test_latencies_bit_identical_with_empty_schedule(self):
        plain = run_reference_workload(use_schedule=False)
        chaos = run_reference_workload(use_schedule=True)
        assert list(plain.history.rows()) == list(chaos.history.rows())


class TestTimerHygiene:
    def test_winning_calls_do_not_leak_deadline_timers(self):
        from repro.sim.rpc import call_with_timeout

        sim = Simulator()
        net = Network(sim)
        a = RpcNode(sim, net, net.add_host("a", US_EAST), name="a")
        b = RpcNode(sim, net, net.add_host("b", US_EAST), name="b")

        def fast(msg):
            yield sim.timeout(0.001)
            return {"ok": True}

        b.register("fast", fast)

        def main():
            for _ in range(200):
                yield from call_with_timeout(sim, a.call(b, "fast"), 3600.0)

        proc = sim.process(main())
        sim.run(until=proc)
        # 200 one-hour timers were armed and cancelled; the heap must not
        # still be carrying them (compaction keeps it bounded)...
        assert len(sim._heap) < 100
        # ...and running to quiescence must not fast-forward an hour.
        sim.run()
        assert sim.now < 60.0
