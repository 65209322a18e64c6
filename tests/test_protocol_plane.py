"""The per-instance lazy plane lives once, in ``GlobalProtocol``.

Every consistency protocol gets its replication queue and its repairer
from the base class: started at attach (queue first), stopped at detach
(repairer first), drained and counted the same way.  The lifecycle test
runs each protocol shape through launch → drain → swap to
``LocalOnlyProtocol`` and checks exactly which of those processes are
alive at each end; the ratchet keeps a subclass from growing its own copy
of the plane back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro import (
    GlobalPolicySpec,
    RedundancySpec,
    RegionPlacement,
    build_deployment,
)
from repro.net import EU_WEST, US_EAST, US_WEST
from repro.sim import Simulator
from repro.tiera.local_protocol import LocalOnlyProtocol
from repro.tiera.policy import memory_only_policy

SRC = Path(__file__).resolve().parents[1] / "src"
REGIONS = (US_EAST, US_WEST, EU_WEST)

#: what each shape runs per instance: a queue, and which repairer (if any)
SHAPES = {
    "eventual": (dict(consistency="eventual"), True, None),
    "primary_backup_async_repair": (
        dict(consistency="primary_backup", sync_replication=False,
             repair_interval=50.0), True, "repair"),
    "primary_backup_sync_repair": (
        dict(consistency="primary_backup", repair_interval=50.0),
        False, "repair"),
    "multi_primaries": (dict(consistency="multi_primaries"), False, None),
    "ec_repair": (
        dict(consistency="eventual",
             redundancy=RedundancySpec(k=2, m=1, repair_interval=50.0)),
        False, "ec-repair"),
}

PLANE_PREFIXES = ("replq:", "repair:", "ec-repair")


@pytest.fixture
def processes(monkeypatch):
    """Every process the simulation starts."""
    started = []
    start = Simulator.process

    def process(sim, generator, name="", obs_ctx=None):
        proc = start(sim, generator, name, obs_ctx)
        started.append(proc)
        return proc

    monkeypatch.setattr(Simulator, "process", process)
    return started


def _plane_alive(processes) -> set[str]:
    return {p.name for p in processes
            if p.is_alive and p.name.startswith(PLANE_PREFIXES)}


@pytest.mark.parametrize("shape", SHAPES)
def test_plane_lifecycle(processes, shape):
    spec_kw, queued, repairer = SHAPES[shape]
    dep = build_deployment(list(REGIONS), seed=3)
    spec = GlobalPolicySpec(
        name="w", queue_interval=1000.0,
        placements=tuple(RegionPlacement(r, memory_only_policy(),
                                         primary=i == 0)
                         for i, r in enumerate(REGIONS)),
        **spec_kw)
    instances = dep.start_wiera_instance("w", spec)
    tim = dep.tim("w")
    protocol = tim.protocol
    ids = sorted(tim.instances)

    expected = set()
    if queued:
        expected |= {f"replq:{iid}" for iid in ids}
    if repairer is not None:
        expected |= {f"{repairer}:{iid}" for iid in ids}
    assert _plane_alive(processes) == expected

    client = dep.add_client(US_EAST, instances=instances)

    def writes():
        for i in range(4):
            yield from client.put(f"k{i}", b"x" * 512)
        yield from client.remove("k0")
    dep.drive(writes())
    if queued:
        assert sum(protocol.pending_count(rec.instance)
                   for rec in tim.instances.values()) > 0

    def swap():
        for rec in tim.instances.values():
            drained = yield from tim.node.invoke(rec.node, "ctl_drain")
            assert drained["pending"] == 0
        for rec in tim.instances.values():
            yield from tim.node.invoke(rec.node, "ctl_set_protocol",
                                       {"protocol": LocalOnlyProtocol()})
    dep.drive(swap())
    dep.sim.run(until=dep.sim.now + 1.0)

    assert _plane_alive(processes) == set()
    assert all(protocol.pending_count(rec.instance) == 0
               for rec in tim.instances.values())
    assert protocol._queues == {} and protocol._repairers == {}
    assert dep.metric_total("replication.pending_dropped") == 0


#: the plane's methods: GlobalProtocol's alone
PLANE_METHODS = {"detach", "drain", "pending_count", "queue_for", "repairer"}


def _protocol_classes() -> dict[str, ast.ClassDef]:
    """Every class in ``src/`` that derives from GlobalProtocol."""
    classes = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                classes[f"{path.relative_to(SRC)}:{node.name}"] = node
    derived = {"GlobalProtocol"}
    grew = True
    while grew:
        grew = False
        for node in classes.values():
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            if node.name not in derived and bases & derived:
                derived.add(node.name)
                grew = True
    return {where: node for where, node in classes.items()
            if node.name in derived - {"GlobalProtocol"}}


def test_no_protocol_redefines_the_plane():
    subclasses = _protocol_classes()
    assert len(subclasses) >= 4   # the three of §3.3.1 and EC
    copies = {f"{where}.{item.name}"
              for where, node in subclasses.items()
              for item in node.body
              if isinstance(item, ast.FunctionDef)
              and item.name in PLANE_METHODS}
    assert not copies, f"GlobalProtocol owns these: {sorted(copies)}"
    assert not [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                if "broadcast_async" in path.read_text()]
