"""Tests for failure handling (§4.4): heartbeat detection, replica
re-creation, resync, and client failover."""

import pytest

from repro import (
    FailureSpec,
    GlobalPolicySpec,
    RegionPlacement,
    build_deployment,
)
from repro.net import EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import write_back_policy

REGIONS = (US_EAST, US_WEST, EU_WEST)


def deploy(min_replicas=3, heartbeat=2.0, missed=2, regions=REGIONS,
           spare_in=None):
    dep = build_deployment(regions, heartbeat_interval=heartbeat, seed=13)
    if spare_in:
        # a second server in one region, available as a respawn target
        host = dep.network.add_host(f"spare-{spare_in}", spare_in,
                                    vm="aws.t2_micro")
        from repro.tiera import TieraServer
        spare = TieraServer(dep.sim, dep.network, host, spare_in,
                            rng=dep.rng)
        dep.servers[(spare_in, "aws-spare")] = spare
        dep.drive(spare.connect_to_tsm(dep.wiera.node))
    dep.wiera.tsm.missed_threshold = missed
    spec = GlobalPolicySpec(
        name="ft",
        placements=tuple(RegionPlacement(r, write_back_policy())
                         for r in regions),
        consistency="eventual", queue_interval=0.5,
        failure=FailureSpec(min_replicas=min_replicas))
    instances = dep.start_wiera_instance("ft", spec)
    return dep, instances


class TestHeartbeat:
    def test_death_detected(self):
        dep, instances = deploy()
        server = dep.server(US_WEST)
        server.crash()
        dep.sim.run(until=dep.sim.now + 15.0)
        assert dep.wiera.tsm.deaths_detected == 1
        record = dep.wiera.tsm.servers[server.server_id]
        assert not record.alive

    def test_healthy_servers_stay_alive(self):
        dep, instances = deploy()
        dep.sim.run(until=dep.sim.now + 30.0)
        assert dep.wiera.tsm.deaths_detected == 0


class TestReplicaRecovery:
    def test_replacement_spawned_and_resynced(self):
        dep, instances = deploy(min_replicas=3, spare_in=US_WEST)
        client = dep.add_client(US_EAST, instances=instances)

        def seed():
            for i in range(5):
                yield from client.put(f"k{i}", f"v{i}".encode())
        dep.drive(seed())
        dep.sim.run(until=dep.sim.now + 5.0)  # let replication land

        tim = dep.tim("ft")
        # crash the server actually hosting the US West instance
        hosting_id = next(rec.server_id for rec in tim.instances.values()
                          if rec.region == US_WEST)
        victim = dep.wiera.tsm.servers[hosting_id].server
        victim.crash()
        dep.sim.run(until=dep.sim.now + 40.0)

        live = [rec for rec in tim.instances.values() if not rec.down]
        assert len(live) >= 3, [(r.instance_id, r.down)
                                for r in tim.instances.values()]
        replacements = [rec for rec in live if "-r" in rec.instance_id]
        assert replacements, [r.instance_id for r in live]
        replacement = replacements[0]
        # the replacement pulled all keys from a surviving peer
        for i in range(5):
            record = replacement.instance.meta.get_record(f"k{i}")
            assert record is not None and record.latest_version >= 1

    def test_no_recovery_below_threshold(self):
        dep, instances = deploy(min_replicas=1)
        tim = dep.tim("ft")
        dep.server(US_WEST).crash()
        dep.sim.run(until=dep.sim.now + 30.0)
        # 2 live >= min_replicas=1: no respawn
        assert len(tim.instances) == 3
        assert sum(1 for rec in tim.instances.values() if rec.down) == 1


class TestClientFailover:
    def test_reads_fail_over_to_next_closest(self):
        dep, instances = deploy(min_replicas=1)
        client = dep.add_client(US_WEST, instances=instances)

        def seed():
            yield from client.put("k", b"v")
        dep.drive(seed())
        dep.sim.run(until=dep.sim.now + 5.0)
        assert client.closest["region"] == US_WEST
        dep.server(US_WEST).crash()

        def read():
            result = yield from client.get("k")
            return result
        result = dep.drive(read())
        assert result["data"] == b"v"
        assert dep.metric_total("client.failovers") >= 1

    def test_all_down_raises(self):
        from repro.core.client import NoInstanceAvailableError
        dep, instances = deploy(min_replicas=1)
        client = dep.add_client(US_WEST, instances=instances)
        for region in REGIONS:
            dep.server(region).crash()

        def read():
            yield from client.get("k")
        proc = dep.sim.process(read())
        with pytest.raises(NoInstanceAvailableError):
            dep.sim.run(until=proc)

    def test_client_with_no_instances(self):
        from repro.core.client import NoInstanceAvailableError
        dep, _ = deploy(min_replicas=1)
        client = dep.add_client(US_WEST)
        with pytest.raises(NoInstanceAvailableError):
            client.closest
