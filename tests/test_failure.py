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
from repro.obs.check import check_quiescent
from repro.tiera.policy import disk_only_policy, write_back_policy

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


def ssd_world():
    """``examples/failure.py``'s world: one EBS SSD replica in each of US
    West (the first instance), US East and EU West, a spare server in
    every region, and at least three live replicas."""
    regions = (US_WEST, US_EAST, EU_WEST)
    dep = build_deployment(list(regions), seed=4, servers_per_region=2)
    ssd = disk_only_policy(profile="ebs_ssd")
    spec = GlobalPolicySpec(
        name="ft", placements=tuple(RegionPlacement(r, ssd) for r in regions),
        consistency="eventual", failure=FailureSpec(min_replicas=3))
    instances = dep.start_wiera_instance("ft", spec)
    return dep, instances, dep.tim("ft")


def seed(dep, writer, keys, copies: int) -> None:
    """Put every key once, then let replication land everywhere."""
    def puts():
        for key in keys:
            yield from writer.put(key, key.encode() * copies)
        yield dep.sim.timeout(5.0)
    dep.drive(puts())


def crash_host_of(dep, record) -> None:
    dep.wiera.tsm.servers[record.server_id].server.crash()


def rows_of(dep, *records) -> list[list[str]]:
    """Each record's ``store_rows(detail=True)``, namespace and instance
    stripped, so that replicas holding the same writes compare equal."""
    rows = {rec.instance_id: [] for rec in records}
    for row in dep.store_rows(detail=True):
        _ns, iid, rest = row.split("/", 2)
        if iid in rows:
            rows[iid].append(rest)
    return [rows[rec.instance_id] for rec in records]


def replacement_of(tim, instances):
    originals = {info["instance_id"] for info in instances}
    return next(rec for rec in tim.instances.values()
                if rec.instance_id not in originals)


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
        # the live peers brought the replacement level with a survivor
        survivor = next(rec for rec in live if rec.region == US_EAST)
        rows, theirs = rows_of(dep, replacement, survivor)
        assert len(rows) == 5 and rows == theirs
        assert check_quiescent(dep) == []

    def test_puts_racing_the_recovery_converge(self):
        """A US East writer puts every 10 ms across the crash: replica
        updates reach the replacement while the live peers sync it, and
        each lands through the one merge."""
        dep, instances, tim = ssd_world()
        writer = dep.add_client(US_EAST, instances=instances)
        keys = [f"row{i}" for i in range(20)]
        seed(dep, writer, keys, copies=128)
        end = dep.sim.now + 30.0

        def writes():
            i = 0
            while dep.sim.now < end:
                yield from writer.put(keys[i % len(keys)], b"%d" % i * 64)
                i += 1
                yield dep.sim.timeout(0.01)
        dep.sim.process(writes())
        dep.sim.run(until=dep.sim.now + 2.0)
        crash_host_of(dep, tim.instances[instances[0]["instance_id"]])
        dep.sim.run(until=end + 10.0)    # the writes stop, the queues flush
        live = tim.alive_records()
        assert replacement_of(tim, instances) in live and len(live) == 3
        rows = rows_of(dep, *live)
        assert len(rows[0]) == len(keys)
        assert all(other == rows[0] for other in rows[1:])
        assert check_quiescent(dep) == []

    def test_a_peer_crashing_mid_sync_leaves_the_rest_to_the_next(self):
        """The first live peer dies a second into bringing the replacement
        up to date; the next one supplies every key it did not."""
        dep, instances, tim = ssd_world()
        writer = dep.add_client(US_EAST, instances=instances)
        keys = [f"row{i}" for i in range(200)]
        seed(dep, writer, keys, copies=16)
        crash_host_of(dep, tim.instances[instances[0]["instance_id"]])
        while len(tim.instances) == len(instances):
            dep.sim.run(until=dep.sim.now + 0.05)
        replacement = replacement_of(tim, instances)
        dep.sim.run(until=dep.sim.now + 1.0)
        first = next(rec for rec in tim.alive_records()
                     if rec is not replacement)
        held = sum(1 for key in keys
                   if replacement.instance.meta.get_record(key))
        assert 0 < held < len(keys)       # the crash lands mid-sync
        crash_host_of(dep, first)
        dep.sim.run(until=dep.sim.now + 60.0)
        survivor = next(rec for rec in tim.alive_records()
                        if rec.region == EU_WEST)
        rows, theirs = rows_of(dep, replacement, survivor)
        assert len(rows) == len(keys) and rows == theirs
        assert check_quiescent(dep) == []

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
