"""Runtime changes: a gated change and a retirement are each written once.

A consistency switch, a primary move and a rebalance cutover close gates,
drain, change and reopen (§3.3.2) through one generator,
``repro.core.tim.gated``; an instance ends in one place, its Tiera
server's ``stop_instance``.  These tests hold the rules that follow:

* every gate a change closes reopens — on success, and when the change is
  refused or a control call fails (the error still reaches the caller);
* a drain waits for every in-flight write, removes included;
* a monitor whose change fails counts it and retries next round, instead
  of stopping the simulation;
* a stopped Wiera instance is not respawned by a later server death;
* AST ratchets keep the gate calls and the local-protocol swap in one
  place each.
"""

from __future__ import annotations

import ast
import gc
import sys
from pathlib import Path

import pytest

from repro import (
    DynamicConsistencySpec,
    FailureSpec,
    GlobalPolicySpec,
    RegionPlacement,
    build_deployment,
)
from repro.core.tim import WieraInstanceError
from repro.faults.retry import RetryPolicy
from repro.net import EU_WEST, US_EAST, US_WEST
from repro.net.network import NetworkError
from repro.shard.rebalance import Rebalancer
from repro.tiera.instance import TieraError
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST, EU_WEST)


def _deploy(consistency="primary_backup", regions=REGIONS, **spec_kw):
    dep = build_deployment(list(regions), seed=1)
    spec = GlobalPolicySpec(
        name="w", consistency=consistency,
        placements=tuple(RegionPlacement(r, memory_only_policy(),
                                         primary=i == 0)
                         for i, r in enumerate(regions)),
        **spec_kw)
    return dep, dep.start_wiera_instance("w", spec)


def _gates(instances) -> list[bool]:
    return [inst.gate._open for inst in instances]


def _serves(dep, targets) -> None:
    """For each ``(instance info, key)``: a put of ``key`` through that
    instance, then a get of it through the same instance."""
    clients = [(dep.add_client(info["region"], instances=[info]), key)
               for info, key in targets]

    def each(op) -> list:
        procs = [dep.sim.process(op(client, key)) for client, key in clients]
        dep.sim.run(until=dep.sim.now + 5.0)
        assert all(p.processed and p.ok for p in procs)
        return [p.value for p in procs]

    each(lambda client, key: client.put(key, b"value"))
    got = each(lambda client, key: client.get(key))
    assert [g["data"] for g in got] == [b"value"] * len(clients)


class TestAFailedChangeReopensTheGates:
    """A change that fails after closing gates reopens every gate it
    closed and hands its error to the caller."""

    def test_switch_meets_a_partition(self):
        """EU-West is cut off from the Wiera host (US-East): its gate
        never closes, and the two that did reopen."""
        dep, instances = _deploy(sync_replication=False)
        tim = dep.tim("w")
        dep.network.partition(US_EAST, EU_WEST)
        with pytest.raises(NetworkError):
            dep.drive(tim.switch_consistency("eventual"))
        assert _gates(rec.instance for rec in tim.instances.values()) == \
            [True] * 3
        assert tim.protocol.name == "primary_backup"
        _serves(dep, [(info, f"after-{info['region']}")
                      for info in instances if info["region"] != EU_WEST])

    def test_refused_switch(self):
        """US-West's drain reports an entry it could not ship: the switch
        is refused, and every gate reopens."""
        dep, instances = _deploy("eventual")
        tim = dep.tim("w")
        west = dep.instance("w", US_WEST)
        tim.protocol.pending_count = lambda inst: int(inst is west)
        with pytest.raises(WieraInstanceError, match="survived ctl_drain"):
            dep.drive(tim.switch_consistency("multi_primaries"))
        del tim.protocol.pending_count
        assert _gates(rec.instance for rec in tim.instances.values()) == \
            [True] * 3
        assert tim.protocol.name == "eventual" and tim.switch_log == []
        _serves(dep, [(info, f"after-{info['region']}")
                      for info in instances])

    def test_change_primary_whose_drain_fails(self):
        dep, instances = _deploy(sync_replication=False)
        tim = dep.tim("w")
        primary = dep.instance("w", US_EAST)

        def broken(msg):
            yield dep.sim.timeout(0.001)
            raise TieraError("drain failed")
        primary.node.register("ctl_drain", broken)
        with pytest.raises(TieraError, match="drain failed"):
            dep.drive(tim.change_primary(
                dep.instance("w", US_WEST).instance_id))
        assert _gates(rec.instance for rec in tim.instances.values()) == \
            [True] * 3
        assert tim.protocol.config.primary_id == primary.instance_id
        _serves(dep, [(info, f"after-{info['region']}")
                      for info in instances])

    def test_rebalance_cutover_that_gives_up(self):
        """With one attempt per control call, the cutover's gate close on
        a source cut off from the Wiera host fails the migration; the
        source gates it closed reopen."""
        dep = build_deployment(list(REGIONS), seed=1, shards=2)
        handle = dep.start_sharded_instance("w", GlobalPolicySpec(
            name="w", consistency="eventual",
            placements=tuple(RegionPlacement(r, memory_only_policy())
                             for r in REGIONS)))
        client = dep.add_client(US_EAST, sharded=handle)

        def writes():
            for i in range(20):
                yield from client.put(f"obj{i}", b"x" * 64)
        dep.drive(writes())
        manager = dep.wiera.shard_manager("w")
        sources = [rec.instance for sid in sorted(manager.map.shards)
                   for rec in dep.tim(sid).instances.values()]
        rebalancer = Rebalancer(manager, RetryPolicy(max_attempts=1))
        proc = dep.sim.process(rebalancer.add_shard(), name="rebalance")
        proc.defuse()   # its failure is this test's to read
        deadline = dep.sim.now + 60.0
        while not all(inst.shard_handoff is not None for inst in sources):
            assert dep.sim.now < deadline
            dep.sim.run(until=dep.sim.now + 0.001)
        # Every handoff is installed; the last source (EU-West) loses the
        # Wiera host before the cutover reaches it.
        assert sources[-1].region == EU_WEST
        dep.network.partition(US_EAST, EU_WEST)
        while proc.is_alive:
            assert dep.sim.now < deadline
            assert _gates(sources[-1:]) == [True]
            dep.sim.run(until=dep.sim.now + 0.001)
        assert not proc.ok and isinstance(proc.value, NetworkError)
        dep.network.heal_partition(US_EAST, EU_WEST)
        assert _gates(sources) == [True] * len(sources)
        assert manager.epoch == 1
        keys = (f"after-{i}" for i in range(10_000))
        _serves(dep, [
            (info, next(key for key in keys
                        if manager.map.owner(key) == shard_id))
            for shard_id, infos in sorted(manager.map.shards.items())
            for info in infos])


def test_a_change_abandoned_mid_flight_closes_quietly(monkeypatch):
    """A simulation that ends mid-switch is garbage, and so is the
    change's generator.  Closing it runs no reopen: a generator that
    yields while it is being closed raises an unraisable RuntimeError."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    dep, instances = _deploy(sync_replication=False)
    tim = dep.tim("w")
    dep.sim.process(tim.switch_consistency("eventual"))
    dep.sim.run(until=dep.sim.now + 0.12)
    assert False in _gates(rec.instance for rec in tim.instances.values())
    del dep, instances, tim
    gc.collect()
    assert unraisable == []


@pytest.mark.parametrize("op", ["put", "remove"])
def test_a_drain_waits_for_an_inflight_write(op):
    """A switch starts 1 ms after an EU-West write of a multi-primaries
    namespace (lock, then a synchronous broadcast).  EU-West's drain waits
    for the write, so its protocol is swapped only after the write is
    acknowledged."""
    dep, instances = _deploy("multi_primaries")
    tim = dep.tim("w")
    client = dep.add_client(EU_WEST, instances=instances)
    dep.drive(client.put("k", b"v1"))
    protocol = tim.protocol
    swapped = {}

    def detach(instance, _detach=protocol.detach):
        swapped[instance.region] = dep.sim.now
        _detach(instance)
    protocol.detach = detach
    acked = []

    def write():
        yield from (client.put("k", b"v2") if op == "put"
                    else client.remove("k"))
        acked.append(dep.sim.now)
    dep.sim.process(write())
    dep.sim.run(until=dep.sim.now + 0.001)
    dep.drive(tim.switch_consistency("eventual"))
    assert acked and swapped[EU_WEST] > acked[0]


def test_a_monitor_whose_switch_fails_retries_next_round():
    """A dynamic namespace whose puts violate the threshold, with US-East
    (the Wiera host) and EU-West partitioned: the switch fails on
    EU-West's gate.  The round counts the failure and the simulation runs
    on with every gate open; after the heal, the next round switches."""
    dep, instances = _deploy(
        "multi_primaries",
        dynamic=DynamicConsistencySpec(latency_threshold=0.1, period=1.0))
    tim = dep.tim("w")
    client = dep.add_client(US_WEST, instances=instances)

    def puts():
        while True:
            yield from client.put("k", b"v")
            yield dep.sim.timeout(0.5)
    dep.sim.process(puts())
    dep.network.partition(US_EAST, EU_WEST)

    def failures() -> int:
        return dep.metric_total("policy.change_failures")
    deadline = dep.sim.now + 30.0
    while failures() == 0:
        assert dep.sim.now < deadline
        dep.sim.run(until=dep.sim.now + 0.01)
    assert dep.metric_total("policy.change_failures",
                            kind="NetworkError") == 1
    assert tim.switch_log == []
    assert _gates(rec.instance for rec in tim.instances.values()) == \
        [True] * 3
    dep.network.heal_partition(US_EAST, EU_WEST)
    dep.sim.run(until=dep.sim.now + 3.0)
    assert [to for _, _, to, _ in tim.switch_log] == ["eventual"]
    assert failures() == 1


def test_a_stopped_namespace_is_not_respawned():
    """``stopInstances``, then the death of a server that hosted one of
    its instances: nothing of the namespace is spawned again."""
    dep, _ = _deploy("eventual", regions=(US_WEST, EU_WEST),
                     failure=FailureSpec(min_replicas=2))
    dep.wiera.tsm.missed_threshold = 2
    dep.drive(dep.wiera.stop_instances("w"))
    dep.server(US_WEST).crash()
    dep.sim.run(until=dep.sim.now + 120.0)
    assert dep.wiera.tsm.deaths_detected == 1
    assert [iid for server in dep.servers.values()
            for iid in server.instances] == []


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _functions_naming(value: str) -> set[str]:
    """``file:qualified function`` of every function in ``src/`` whose own
    body holds the string constant ``value`` or calls a name ``value``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Constant) and child.value == value) or (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == value):
                found.add(f"{rel}:{scope}")
            visit(child, inner)
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        visit(ast.parse(path.read_text(), str(path)), "")
    return found


@pytest.mark.parametrize("method", ["ctl_close_gate", "ctl_open_gate",
                                    "ctl_drain"])
def test_gate_calls_live_in_the_gate_generator(method):
    """Only ``gated`` (and the handler table they name) speaks the gate
    RPCs: a runtime change closes, drains and reopens through it."""
    assert _functions_naming(method) == {
        "tiera/instance.py:TieraInstance._register_rpc", "core/tim.py:gated"}


def test_local_protocol_is_built_by_instances_and_the_tim_only():
    """A retired instance swaps in its local protocol itself
    (``TieraInstance.stop``); no control path sends one."""
    built = _functions_naming("LocalOnlyProtocol")
    assert built == {"tiera/instance.py:TieraInstance.__init__",
                     "tiera/instance.py:TieraInstance.stop",
                     "core/tim.py:TieraInstanceManager._build_protocol"}
