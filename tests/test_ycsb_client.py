"""Behavioural tests for the YCSB client driver."""

import numpy as np
import pytest

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.net import US_EAST
from repro.obs.check import check
from repro.tiera.policy import memory_only_policy
from repro.workloads import YcsbClient, YcsbWorkload


@pytest.fixture
def world():
    dep = build_deployment([US_EAST], seed=43)
    spec = GlobalPolicySpec(
        name="y",
        placements=(RegionPlacement(US_EAST, memory_only_policy()),),
        consistency="local")
    instances = dep.start_wiera_instance("y", spec)
    client = dep.add_client(US_EAST, instances=instances)
    return dep, client


def test_load_phase_populates_records(world):
    dep, client = world
    workload = YcsbWorkload(record_count=25, value_size=128)
    yc = YcsbClient(dep.sim, client, workload, np.random.default_rng(0))

    def load():
        yield from yc.load()
    dep.drive(load())
    inst = dep.instance("y", US_EAST)
    assert inst.meta.record_count() == 25
    data, meta, _ = dep.drive(inst.read_version("user0"))
    assert len(data) == 128


def test_stats_leave_out_the_load_phase(world):
    """A YCSB client that loads through its own WieraClient reports only
    the ops it ran after ``start()``; the history keeps the load puts."""
    dep, client = world
    workload = YcsbWorkload.workload_a(record_count=10, value_size=64)
    yc = YcsbClient(dep.sim, client, workload, np.random.default_rng(5),
                    think_time=0.05)

    def load():
        yield from yc.load()
    dep.drive(load())
    assert yc.stats.ops == 0 and len(client.history) == 10
    yc.start()
    dep.sim.run(until=dep.sim.now + 5.0)
    yc.stop()
    stats = yc.stats
    assert stats.ops > 0 and stats.errors == 0
    assert len(client.history) == 10 + stats.ops
    assert len(client.history.summary().latencies["put"]) == \
        10 + len(stats.latencies["put"])


def test_mix_ratio_respected(world):
    dep, client = world
    workload = YcsbWorkload.workload_b(record_count=10, value_size=64)
    yc = YcsbClient(dep.sim, client, workload, np.random.default_rng(1),
                    think_time=0.01)

    def load():
        yield from yc.load()
    dep.drive(load())
    yc.start()
    dep.sim.run(until=dep.sim.now + 30.0)
    yc.stop()
    assert yc.stats.ops > 500
    read_fraction = len(yc.stats.latencies["get"]) / yc.stats.ops
    assert 0.90 <= read_fraction <= 0.99   # nominal 0.95


def test_activity_gate_pauses_client(world):
    dep, client = world
    workload = YcsbWorkload(record_count=5, value_size=64)
    active = {"on": False}
    yc = YcsbClient(dep.sim, client, workload, np.random.default_rng(2),
                    think_time=0.05, is_active=lambda: active["on"],
                    activity_poll=0.5)

    def load():
        yield from yc.load()
    dep.drive(load())
    yc.start()
    dep.sim.run(until=dep.sim.now + 10.0)
    assert yc.stats.ops == 0           # inactive: no operations
    active["on"] = True
    dep.sim.run(until=dep.sim.now + 10.0)
    yc.stop()
    assert yc.stats.ops > 50           # woke up and worked


def test_errors_counted_not_fatal(world):
    dep, client = world
    workload = YcsbWorkload(record_count=5, value_size=64)
    yc = YcsbClient(dep.sim, client, workload, np.random.default_rng(3),
                    think_time=0.05)
    # no load phase: every get hits a missing key
    yc.start()
    dep.sim.run(until=dep.sim.now + 5.0)
    yc.stop()
    assert yc.stats.errors > 0
    assert yc.stats.latencies["put"]   # puts still succeed


def test_oracle_integration(world):
    dep, client = world
    workload = YcsbWorkload.workload_a(record_count=5, value_size=64)
    yc = YcsbClient(dep.sim, client, workload, np.random.default_rng(4),
                    think_time=0.02)

    def load():
        yield from yc.load()
    dep.drive(load())
    yc.start()
    dep.sim.run(until=dep.sim.now + 20.0)
    yc.stop()
    reads = check([client.history]).staleness
    assert reads.latest == len(yc.stats.latencies["get"]) > 0
    # single replica: every read is trivially the latest
    assert reads.outdated == 0
