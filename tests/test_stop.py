"""A stop ends a component: after ``stop()`` none of its processes is
alive and it puts nothing more on the wire.

Every long-lived component is driven here in a small deployment of its
own and stopped twice: *idle*, parked between rounds, and *mid-round*,
with a round of it in flight (an RPC on the wire, window workers running,
a tier copy half done, a fault script half applied).  A :class:`Census`
books every process by name, and every RPC and every timer by the process
that launched it.  An RPC's body runs as a process of its own (``rpc…``)
or, once its caller was stopped mid-``invoke``, as an ``orphan:…``: a call
already on the wire completes at its destination, and neither process is
the component's.

A periodic component stopped idle also leaves nothing on the schedule:
its armed round timer is cancelled, not left to fire into a dead process.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np
import pytest

from repro import (
    AutoscaleSpec,
    ChangePrimarySpec,
    ColdDataSpec,
    DynamicConsistencySpec,
    GlobalPolicySpec,
    RedundancySpec,
    RegionPlacement,
    build_deployment,
)
from repro.core import WorkloadMonitor
from repro.core.consistency.repair import AntiEntropyRepairer
from repro.core.monitoring import (ColdDataCoordinator, LatencyMonitor,
                                   RequestsMonitor)
from repro.ec.protocol import decode_manifest
from repro.load import CohortSpec
from repro.net import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.policydsl.builtin_policies import builtin_policy
from repro.sim import Simulator
from repro.sim.rpc import RpcNode
from repro.tiera.policy import memory_only_policy, write_back_policy
from repro.workloads import YcsbClient, YcsbWorkload


@dataclass
class Launch:
    at: float
    by: Optional[str]   # name of the process that launched the call
    method: str
    done: bool = False


class Census:
    """Every process a simulation starts, and every RPC and timer it
    launches with the name of the process that launched it."""

    def __init__(self, monkeypatch):
        self.processes = []
        self.launches: list[Launch] = []
        self.timers: list[tuple[Optional[str], Any]] = []
        start, timeout = Simulator.process, Simulator.timeout

        def process(sim, generator, name="", obs_ctx=None):
            proc = start(sim, generator, name, obs_ctx)
            self.processes.append(proc)
            return proc

        def armed(sim, delay, value=None):
            event = timeout(sim, delay, value)
            active = sim.active_process
            self.timers.append((active and active.name, event))
            return event

        def booked(body):
            def launch(node, dst, method, *rest):
                active = node.sim.active_process
                record = Launch(node.sim.now, active and active.name, method)
                self.launches.append(record)
                return self._until_done(record, body(node, dst, method, *rest))
            return launch

        monkeypatch.setattr(Simulator, "process", process)
        monkeypatch.setattr(Simulator, "timeout", armed)
        monkeypatch.setattr(RpcNode, "_call", booked(RpcNode._call))
        monkeypatch.setattr(RpcNode, "_oneway", booked(RpcNode._oneway))

    @staticmethod
    def _until_done(record: Launch, body):
        try:
            return (yield from body)
        finally:
            record.done = True

    def alive(self, names) -> list:
        return [p for p in self.processes if p.name in names and p.is_alive]

    def launched(self, names, since: int = 0) -> list[Launch]:
        return [l for l in self.launches[since:] if l.by in names]

    def in_flight(self, names, method: Optional[str] = None) -> bool:
        return any(not l.done and (method is None or l.method == method)
                   for l in self.launched(names))

    def scheduled(self, sim: Simulator, names) -> list:
        """Timers a process of ``names`` armed that are live heap entries:
        neither fired nor cancelled."""
        armed = {id(event) for by, event in self.timers if by in names}
        return [event for _, _, event in sim._heap
                if id(event) in armed and not event._cancelled]


@pytest.fixture
def census(monkeypatch):
    return Census(monkeypatch)


@dataclass
class World:
    """One running component in a deployment nobody else drives."""

    sim: Simulator
    component: Any
    stop: Callable[[], None]
    #: the names of the component's processes
    names: frozenset
    #: True while a round of it is in flight
    busy: Callable[[], bool]
    #: what it has done so far that is not an RPC
    effects: Callable[[], Any] = lambda: None


def _deploy(regions, consistency="local", policy=None, **spec_kw):
    dep = build_deployment(list(regions), seed=5)
    spec = GlobalPolicySpec(
        name="w",
        placements=tuple(
            RegionPlacement(r, policy or memory_only_policy(),
                            primary=consistency == "primary_backup" and i == 0)
            for i, r in enumerate(regions)),
        consistency=consistency, **spec_kw)
    return dep, dep.start_wiera_instance("w", spec)


def _put(dep, client, count: int, size: int = 1024) -> None:
    def writes():
        for i in range(count):
            yield from client.put(f"obj{i}", bytes([i + 1]) * size)
    dep.drive(writes())


def _calling(census, sim, component, stop, name,
             method: Optional[str] = None) -> World:
    """A component whose round is an RPC: busy while one is in flight.
    ``name`` names its process, or is the set of names of its
    processes."""
    names = frozenset({name} if isinstance(name, str) else name)
    return World(sim, component, stop, names,
                 busy=lambda: census.in_flight(names, method))


# -- the components ------------------------------------------------------

def tiera_instance(census):
    """A write-back instance whose 5 s timer copies dirty objects to disk."""
    dep, instances = _deploy(
        [EU_WEST], policy=write_back_policy(flush_period=5.0))
    instance = dep.instance("w", EU_WEST)
    _put(dep, dep.add_client(EU_WEST, instances=instances), 20)

    def copied():
        return sum("tier2" in meta.locations
                   for record in instance.meta.records()
                   for meta in record.versions.values())

    return World(dep.sim, instance, instance.stop,
                 frozenset({f"{instance.instance_id}:timer"}),
                 busy=lambda: 0 < copied() < 20, effects=copied)


def replication_queue(census):
    dep, instances = _deploy([US_WEST, EU_WEST], consistency="eventual",
                             queue_interval=2.0)
    west = dep.instance("w", US_WEST)
    _put(dep, dep.add_client(US_WEST, instances=instances), 5)
    queue = west.protocol.queue_for(west)
    return _calling(census, dep.sim, queue, queue.stop,
                    f"replq:{west.instance_id}")


def anti_entropy_repairer(census):
    dep, _ = _deploy([US_WEST, EU_WEST])
    west = dep.instance("w", US_WEST)
    repairer = AntiEntropyRepairer(west, interval=2.0)
    repairer.start()
    return _calling(census, dep.sim, repairer, repairer.stop,
                    f"repair:{west.instance_id}")


def ec_repairer(census):
    """EC(2,1) on four sites with fragment 1's holder crashed: the leader's
    round reads its manifests through a window of two readers and
    re-homes every object through a window of two workers."""
    sites = (US_EAST, US_WEST, EU_WEST, ASIA_EAST)
    dep, instances = _deploy(
        sites, consistency="eventual",
        redundancy=RedundancySpec(k=2, m=1, repair_interval=10.0,
                                  repair_concurrency=2))
    coordinator = dep.instance("w", US_EAST)
    _put(dep, dep.add_client(US_EAST, instances=instances), 4, size=4096)
    frags = decode_manifest(dep.drive(
        coordinator.read_version("obj0", run_rules=False))[0])["frags"]
    tim = dep.tim("w")
    leader = frags[0]
    dep.fault_schedule().crash(
        at=dep.sim.now, host=tim.instances[frags[1]].instance.host).start()
    repairer = tim.instances[leader].instance.protocol.repairer(leader)
    workers = frozenset(f"ec-repair-w{i}:{leader}" for i in range(2))
    readers = frozenset(f"ec-repair-r{i}:{leader}" for i in range(2))
    return World(dep.sim, repairer, repairer.stop,
                 workers | readers | {f"ec-repair:{leader}"},
                 busy=lambda: bool(census.alive(workers)))


def autoscaler(census):
    """Demand for three shards: the first decision is a scale-up burst."""
    dep = build_deployment(
        [US_EAST, US_WEST], seed=5, servers_per_region=3,
        autoscale=AutoscaleSpec(target_per_shard=100.0,
                                decision_interval=2.0, max_shards=3))
    dep.start_sharded_instance(
        "w", GlobalPolicySpec(
            name="w", consistency="eventual",
            placements=tuple(RegionPlacement(r, memory_only_policy())
                             for r in (US_EAST, US_WEST))))
    offered = dep.obs.metrics.counter("load.offered", cohort="pump")

    def pump():
        while True:
            offered.inc(250)
            yield dep.sim.timeout(1.0)
    dep.sim.process(pump(), name="pump")
    scaler = dep.autoscalers["w"]
    world = _calling(census, dep.sim, scaler, scaler.stop, "autoscaler:w")
    world.effects = lambda: len(scaler.decisions)
    return world


def wiera_instance(census):
    """``stopInstances`` on two namespaces: an eventual one, whose
    instances each run a replication queue and an anti-entropy repairer,
    and an EC(2,1) one, whose instances each run a fragment repairer."""
    sites = (US_EAST, US_WEST, EU_WEST)
    dep = build_deployment(list(sites), seed=5)
    names = set()
    for ns, kw in (("w", {"repair_interval": 2.0}),
                   ("ec", {"redundancy": RedundancySpec(
                       k=2, m=1, repair_interval=2.0)})):
        instances = dep.start_wiera_instance(ns, GlobalPolicySpec(
            name=ns, consistency="eventual", queue_interval=2.0,
            placements=tuple(RegionPlacement(r, memory_only_policy())
                             for r in sites), **kw))
        _put(dep, dep.add_client(US_EAST, instances=instances), 4)
        for iid in dep.tim(ns).instances:
            names |= {f"replq:{iid}", f"repair:{iid}", f"ec-repair:{iid}",
                      *(f"ec-repair-{role}{i}:{iid}"
                        for role in "rw" for i in range(2))}

    def stop():
        for ns in ("w", "ec"):
            dep.drive(dep.wiera.stop_instances(ns))
    return _calling(census, dep.sim, dep.wiera, stop, names)


def client_cohort(census):
    dep, instances = _deploy([EU_WEST])
    cohort = dep.add_cohort(
        CohortSpec(name="c", region=US_EAST, users=10, rate_per_user=2.0,
                   workload=YcsbWorkload(record_count=10, value_size=64)),
        instances=instances)
    cohort.start()
    return World(dep.sim, cohort, cohort.stop,
                 frozenset({"cohort:c", "cohort-op:c"}),
                 busy=lambda: cohort.in_flight > 0,
                 effects=lambda: cohort.stats.dispatched)


def fault_schedule(census):
    """Three latency spikes one second apart; mid-round is after the
    first."""
    dep, _ = _deploy([EU_WEST])
    schedule = dep.fault_schedule("script")
    for i in (1, 2, 3):
        schedule.latency_spike(at=dep.sim.now + i, extra=0.01,
                               regions=(US_EAST, EU_WEST), duration=0.5)
    schedule.start()

    def applied():
        return len(schedule.applied)

    return World(dep.sim, schedule, schedule.stop,
                 frozenset({"faults:script"}),
                 busy=lambda: 0 < applied() < 3, effects=applied)


def tsm_heartbeats(census):
    """One Tiera server, a WAN hop from the service that pings it."""
    dep = build_deployment([EU_WEST], seed=5)
    tsm = dep.wiera.tsm
    return _calling(census, dep.sim, tsm, tsm.heartbeats.stop,
                    "tsm:heartbeat")


def latency_monitor(census):
    """In weak mode every round probes the peers for a strong put's cost."""
    dep, _ = _deploy([US_WEST, EU_WEST], consistency="eventual")
    monitor = LatencyMonitor(dep.tim("w"), DynamicConsistencySpec(
        period=1000.0))
    monitor.mode = "weak"
    monitor.loop.start()
    return _calling(census, dep.sim, monitor, monitor.loop.stop,
                    "LatencyMonitor", method="probe")


def requests_monitor(census):
    """EU-West forwards the primary's every request: the round after the
    imbalance has lasted ``period`` moves the primary (gate, drain, swap)."""
    dep, _ = _deploy(
        [US_WEST, EU_WEST], consistency="primary_backup",
        change_primary=ChangePrimarySpec(
            window=10.0, period=2.0, check_interval=1.0))
    tim = dep.tim("w")
    primary = dep.instance("w", US_WEST)
    primary.request_log.extend(
        [(dep.sim.now, dep.instance("w", EU_WEST).instance_id)] * 20)
    monitor = next(m for m in tim.monitors if isinstance(m, RequestsMonitor))
    return _calling(census, dep.sim, monitor, monitor.loop.stop,
                    "RequestsMonitor")


def cold_data_coordinator(census):
    dep, _ = _deploy(
        [US_WEST, EU_WEST], consistency="eventual",
        policy=builtin_policy("SsdWithIaInstance"),
        cold=ColdDataSpec(age=3600.0, target_tier="tier2", check_interval=5.0,
                          centralize=True, central_region=EU_WEST))
    monitor = next(m for m in dep.tim("w").monitors
                   if isinstance(m, ColdDataCoordinator))
    return _calling(census, dep.sim, monitor, monitor.loop.stop,
                    "ColdDataCoordinator")


def load_balancer(census):
    """US-West serves 60 gets/s to EU-West's none: the round installs a
    redirect over RPC."""
    dep, _ = _deploy([US_WEST, EU_WEST], consistency="eventual",
                     load_balance=True)
    dep.instance("w", US_WEST).get_log.extend([dep.sim.now] * 600)
    balancer = next(m for m in dep.tim("w").monitors
                    if type(m).__name__ == "LoadBalancer")
    return _calling(census, dep.sim, balancer, balancer.loop.stop,
                    "LoadBalancer")


def workload_monitor(census):
    dep, _ = _deploy([US_WEST, EU_WEST])
    monitor = WorkloadMonitor(dep.tim("w"), poll_interval=5.0)
    monitor.loop.start()
    return _calling(census, dep.sim, monitor, monitor.loop.stop,
                    "workload-mon")


def ycsb_client(census):
    """A closed-loop client a WAN hop from its instance."""
    dep, instances = _deploy([EU_WEST])
    client = YcsbClient(dep.sim, dep.add_client(US_EAST, instances=instances),
                        YcsbWorkload(record_count=5, value_size=64),
                        np.random.default_rng(0), think_time=1.0)
    dep.drive(client.load())
    client.start()
    return _calling(census, dep.sim, client, client.stop, "ycsb-client")


WORLDS = [tiera_instance, replication_queue, anti_entropy_repairer,
          ec_repairer, autoscaler, wiera_instance, client_cohort,
          fault_schedule,
          tsm_heartbeats, latency_monitor, requests_monitor,
          cold_data_coordinator, load_balancer, workload_monitor,
          ycsb_client]

#: the class in ``src/`` that builds a ``sim.primitives.Loop`` -> its world
LOOPS = {
    "TieraInstance": tiera_instance,
    "AntiEntropyRepairer": anti_entropy_repairer,
    "ECRepairer": ec_repairer,
    "Autoscaler": autoscaler,
    "TieraServerManager": tsm_heartbeats,
    "LatencyMonitor": latency_monitor,
    "RequestsMonitor": requests_monitor,
    "ColdDataCoordinator": cold_data_coordinator,
    "LoadBalancer": load_balancer,
    "WorkloadMonitor": workload_monitor,
}

#: the worlds that arm a round timer while idle: every Loop, the
#: replication queue (a timer it races against an early-flush kick), the
#: queues and repairers of a Wiera instance, a fault schedule (its sleep
#: to the next scripted fault), a cohort (its wait for the next arrival)
#: and a YCSB client (its think time)
PERIODIC = {*LOOPS.values(), replication_queue, wiera_instance,
            fault_schedule, client_cohort, ycsb_client}

#: sim-seconds a stopped component is watched for: several of its rounds
HORIZON = 30.0


def _run_until(sim: Simulator, predicate, limit: float = 60.0) -> None:
    deadline = sim.now + limit
    while not predicate():
        assert sim.now < deadline, "the world never got there"
        sim.run(until=sim.now + 0.001)


@pytest.mark.parametrize("mid_round", [False, True], ids=["idle", "mid_round"])
@pytest.mark.parametrize("build", WORLDS, ids=lambda build: build.__name__)
def test_a_stopped_component_is_quiescent(census, build, mid_round):
    world = build(census)
    sim = world.sim
    _run_until(sim, world.busy if mid_round else lambda: not world.busy())
    assert census.alive(world.names), "nothing of it was running"
    idle_loop = build in PERIODIC and not mid_round
    if idle_loop:
        assert census.scheduled(sim, world.names), "no round timer armed"

    world.stop()
    if idle_loop:
        assert census.scheduled(sim, world.names) == []
    since, effects = len(census.launches), world.effects()
    sim.run(until=sim.now + HORIZON)
    assert census.alive(world.names) == []
    assert census.launched(world.names, since) == []
    assert world.effects() == effects


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``.interrupt(`` call sites per file outside ``sim/``, relative to
#: ``src/repro``; a file not listed has none.  A periodic component stops
#: through its ``Loop``; what is left stops a process that is not one.
#: Lower an entry (or drop it at 0) in the commit that removes a site;
#: never raise one.
INTERRUPTS = {
    "ec/repair.py": 1,                 # the repair window's workers
    "core/consistency/base.py": 1,     # the replication queue's flush loop
    "workloads/ycsb.py": 1,
    "load/cohort.py": 1,
    "faults/schedule.py": 1,
}


def _outside_sim():
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        if not rel.startswith("sim/"):
            yield rel, ast.parse(path.read_text(), str(path))


def test_every_loop_has_a_world():
    """Every class in ``src/`` that builds a ``Loop`` is stopped idle and
    mid-round above, and every ``LOOPS`` entry still builds one."""
    builders = set()
    for _, tree in _outside_sim():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "Loop" for node in ast.walk(cls)):
                builders.add(cls.name)
    assert builders == set(LOOPS)
    assert all(world in WORLDS for world in LOOPS.values())


def test_interrupt_sites_only_fall():
    counts = {}
    for rel, tree in _outside_sim():
        n = sum(isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "interrupt" for node in ast.walk(tree))
        if n:
            counts[rel] = n
    assert counts == INTERRUPTS


class TestAStopIsNotAPeerFailure:
    """Each of these loops waits on an RPC inside an ``except Exception``
    that is meant for a peer failure.  A stop that lands on that wait ends
    the loop at once: it is not booked as a failure, and the loop sends
    nothing more."""

    @staticmethod
    def _stop_mid_call(census, world) -> None:
        _run_until(world.sim, world.busy)
        procs = census.alive(world.names)
        world.stop()
        since = len(census.launches)
        world.sim.run(until=world.sim.now)     # deliver the interrupt
        assert procs and not any(p.is_alive for p in procs)
        world.sim.run(until=world.sim.now + HORIZON)
        assert census.launched(world.names, since) == []

    def test_tsm_stop_heartbeats_mid_ping(self, census):
        world = tsm_heartbeats(census)
        self._stop_mid_call(census, world)
        tsm = world.component
        [record] = tsm.servers.values()
        assert record.alive and record.missed == 0
        assert tsm.deaths_detected == 0

    def test_workload_monitor_stop_mid_stats(self, census):
        world = workload_monitor(census)
        self._stop_mid_call(census, world)
        assert len(world.component.snapshots) == 0

    def test_ycsb_client_stop_mid_op(self, census):
        world = ycsb_client(census)
        _run_until(world.sim, lambda: world.component.stats.ops == 3)
        self._stop_mid_call(census, world)
        stats = world.component.stats
        assert stats.ops == 3 and stats.errors == 0

    def test_latency_monitor_stop_mid_peer_probe(self, census):
        world = latency_monitor(census)
        self._stop_mid_call(census, world)
        assert world.component.signal_log == []


class TestAStopMidSwitchReopensTheGates:
    """A runtime change closes every instance's gate, drains, swaps and
    reopens (§3.3.2).  A stop of the process driving it ends that process
    only: the change runs on to completion, so no gate it closed stays
    closed and every instance serves again."""

    REGIONS = (US_EAST, US_WEST, EU_WEST)

    def _deploy(self):
        dep = build_deployment(list(self.REGIONS), seed=1)
        spec = GlobalPolicySpec(
            name="w", consistency="primary_backup", sync_replication=False,
            placements=tuple(RegionPlacement(r, memory_only_policy(),
                                             primary=i == 0)
                             for i, r in enumerate(self.REGIONS)))
        return dep, dep.start_wiera_instance("w", spec)

    def _stop_in(self, dep, change, advance) -> None:
        """Start ``change``, ``advance()`` the clock into it and stop the
        process driving it."""
        proc = dep.sim.process(change, name="switcher")
        advance()
        assert proc.is_alive, "the change finished before the stop"
        proc.interrupt("stop")
        dep.sim.run(until=dep.sim.now + HORIZON)
        assert not proc.is_alive

    def _stop_after(self, dep, change, delay: float) -> None:
        self._stop_in(dep, change,
                      lambda: dep.sim.run(until=dep.sim.now + delay))

    def _assert_every_instance_serves(self, dep, targets) -> None:
        """For each ``(instance info, key)``: a put of ``key`` through that
        instance, then (its update replicated) a get of it through the
        same instance."""
        clients = [(dep.add_client(info["region"], instances=[info]), key)
                   for info, key in targets]

        def each(op) -> list:
            procs = [dep.sim.process(op(client, key))
                     for client, key in clients]
            dep.sim.run(until=dep.sim.now + 5.0)
            assert all(p.processed and p.ok for p in procs)
            return [p.value for p in procs]

        each(lambda client, key: client.put(key, b"value"))
        got = each(lambda client, key: client.get(key))
        assert [g["data"] for g in got] == [b"value"] * len(clients)

    @staticmethod
    def _by_region(instances) -> list:
        return [(info, f"after-{info['region']}") for info in instances]

    def test_change_primary(self, delay=0.12):
        dep, instances = self._deploy()
        tim = dep.tim("w")
        self._stop_after(dep, tim.change_primary(
            dep.instance("w", US_WEST).instance_id), delay)
        self._assert_every_instance_serves(dep, self._by_region(instances))
        assert tim.protocol.config.primary_id == \
            dep.instance("w", US_WEST).instance_id

    @pytest.mark.parametrize("delay", [0.12, 0.30])
    def test_switch_consistency(self, delay):
        dep, instances = self._deploy()
        tim = dep.tim("w")
        self._stop_after(dep, tim.switch_consistency("eventual"), delay)
        self._assert_every_instance_serves(dep, self._by_region(instances))
        assert tim.protocol.name == "eventual"

    @pytest.mark.parametrize("phase", ["dual_write", "cutover"])
    def test_add_shard(self, phase):
        """A rebalance installs dual-write handoffs on every source, then
        closes the source gates for the cutover; a stop in either phase
        leaves the migration to finish: the epoch advances, no handoff
        stays installed and every instance serves."""
        dep = build_deployment(list(self.REGIONS), seed=1, shards=2)
        handle = dep.start_sharded_instance("w", GlobalPolicySpec(
            name="w", consistency="eventual",
            placements=tuple(RegionPlacement(r, memory_only_policy())
                             for r in self.REGIONS)))
        _put(dep, dep.add_client(US_EAST, sharded=handle), 40)
        manager = dep.wiera.shard_manager("w")

        def instances():
            return [rec.instance for sid in sorted(manager.map.shards)
                    for rec in dep.tim(sid).instances.values()]
        sources = instances()

        def gated():
            return not all(inst.gate._open for inst in sources)

        def dual_writing():
            return not gated() and any(inst.shard_handoff is not None
                                       for inst in sources)
        self._stop_in(dep, manager.add_shard(), lambda: _run_until(
            dep.sim, dual_writing if phase == "dual_write" else gated))

        assert manager.epoch == 2 and len(manager.map.shards) == 3
        assert [inst.shard_handoff for inst in instances()] == \
            [None] * len(instances())
        keys = (f"after-{i}" for i in range(10_000))
        self._assert_every_instance_serves(dep, [
            (info, next(key for key in keys
                        if manager.map.owner(key) == shard_id))
            for shard_id, infos in sorted(manager.map.shards.items())
            for info in infos])
