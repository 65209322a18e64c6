"""Tests for repro.shard: ring properties, routing, live rebalancing.

Covers the acceptance bar for the sharded namespace: consistent-hash
load spread and minimal movement, exact-owner routing under YCSB-A,
zero acknowledged-write loss during a live 3→4 rebalance (including
with a partition mid-migration), and bit-identical ``shards=1`` runs.
"""

import pytest

from repro import (
    GlobalPolicySpec,
    RegionPlacement,
    RetryPolicy,
    build_deployment,
)
from repro.net import US_EAST, US_WEST
from repro.shard.rebalance import Rebalancer
from repro.shard.ring import HashRing, hash_point
from repro.shard.map import WrongShardError
from repro.tiera.policy import write_back_policy
from repro.workloads.ycsb import YcsbClient, YcsbWorkload

KEYS = [f"user{i}" for i in range(10_000)]


class TestHashRing:
    def test_load_spread_within_20pct_at_128_vnodes(self):
        ring = HashRing([f"s{i}" for i in range(4)], vnodes=128)
        counts = {sid: 0 for sid in ring.shard_ids}
        for key in KEYS:
            counts[ring.owner(key)] += 1
        mean = len(KEYS) / 4
        for sid, count in counts.items():
            assert abs(count - mean) <= 0.20 * mean, (sid, count)

    def test_add_moves_about_k_over_n_keys_to_newcomer_only(self):
        old = HashRing([f"s{i}" for i in range(4)], vnodes=128)
        new = old.copy()
        new.add("s4")
        moved = [k for k in KEYS if old.owner(k) != new.owner(k)]
        # ~K/N keys move (N = new shard count), none elsewhere.
        expected = len(KEYS) / 5
        assert 0.5 * expected <= len(moved) <= 1.5 * expected
        assert all(new.owner(k) == "s4" for k in moved)

    def test_remove_moves_only_the_removed_shards_keys(self):
        old = HashRing([f"s{i}" for i in range(4)], vnodes=128)
        new = old.copy()
        new.remove("s2")
        for key in KEYS:
            if old.owner(key) == "s2":
                assert new.owner(key) != "s2"
            else:
                assert new.owner(key) == old.owner(key)

    def test_placement_is_deterministic(self):
        # Placement derives from sha256 only: no RNG, no insertion order,
        # no process-level state.  Different construction orders and a
        # rebuilt ring agree on every owner.
        a = HashRing(["s0", "s1", "s2", "s3"], vnodes=64)
        b = HashRing(["s3", "s1", "s0", "s2"], vnodes=64)
        c = HashRing(vnodes=64)
        for sid in ("s2", "s0", "s3", "s1"):
            c.add(sid)
        sample = KEYS[:2000]
        owners = [a.owner(k) for k in sample]
        assert owners == [b.owner(k) for k in sample]
        assert owners == [c.owner(k) for k in sample]
        # Pin a few well-known placements so a silent hash change fails.
        assert hash_point("user0") == int.from_bytes(
            __import__("hashlib").sha256(b"user0").digest()[:8], "big")

    def test_ring_errors(self):
        ring = HashRing(["s0"])
        with pytest.raises(ValueError):
            ring.add("s0")
        with pytest.raises(ValueError):
            ring.remove("s0")
        with pytest.raises(ValueError):
            HashRing().owner("k")


def _sharded_dep(shards, seed=7, policy=write_back_policy,
                 client_kwargs=None):
    dep = build_deployment([US_EAST, US_WEST], seed=seed, shards=shards)
    spec = GlobalPolicySpec(
        name="sh",
        placements=(RegionPlacement(US_EAST, policy()),
                    RegionPlacement(US_WEST, policy())),
        consistency="multi_primaries")
    handle = dep.start_sharded_instance("sh", spec)
    client = dep.add_client(US_WEST, sharded=handle,
                            **(client_kwargs or {}))
    return dep, handle, client


def _owner_instances_with(dep, shard_map, key):
    """Shard ids whose instances hold a metadata record for ``key``."""
    holders = set()
    for sid in shard_map.shards:
        tim = dep.wiera.tim(sid)
        for rec in tim.instances.values():
            record = rec.instance.meta.get_record(key)
            if record is not None and record.versions:
                holders.add(sid)
                break
    return holders


class TestShardedRouting:
    def test_ycsb_a_routes_every_key_to_exactly_one_owning_shard(self):
        dep, handle, client = _sharded_dep(shards=4)
        workload = YcsbWorkload.workload_a(record_count=60, value_size=128)
        rng = dep.rng.stream("ycsb")
        ycsb = YcsbClient(dep.sim, client, workload, rng)
        dep.drive(ycsb.load())
        ycsb.start()
        dep.sim.run(until=dep.sim.now + 30.0)
        ycsb.stop()
        dep.sim.run(until=dep.sim.now + 10.0)   # let replication settle
        assert ycsb.stats.ops > 100
        # stop() may interrupt one in-flight op, which counts as an error
        assert ycsb.stats.errors <= 1
        shard_map = handle.map
        for i in range(workload.record_count):
            key = workload.key(i)
            holders = _owner_instances_with(dep, shard_map, key)
            assert holders == {shard_map.owner(key)}, (key, holders)

    def test_guard_redirects_stale_direct_call(self):
        dep, handle, client = _sharded_dep(shards=2)
        shard_map = handle.map
        key = next(k for k in KEYS if shard_map.owner(k) == "sh-s0")
        wrong = shard_map.shards["sh-s1"][0]

        def direct():
            yield client.node.call(wrong["node"], "get", {"key": key})
        with pytest.raises(WrongShardError) as err:
            dep.drive(direct())
        assert err.value.owner == "sh-s0"
        assert err.value.epoch == shard_map.epoch


class TestRebalance:
    def test_add_shard_moves_only_remapped_ranges(self):
        dep, handle, client = _sharded_dep(shards=3)

        def load():
            for i in range(60):
                yield from client.put(f"user{i}", b"x" * 64)
        dep.drive(load())
        mgr = dep.wiera.shard_manager("sh")
        old_ring = mgr.map.ring.copy()
        rebalancer = Rebalancer(mgr)
        result = dep.drive(rebalancer.add_shard(), name="rebalance")
        assert result["shard"] == "sh-s3"
        assert result["epoch"] == 2
        new_ring = mgr.map.ring
        # Only keys whose owner actually changed were copied.
        assert rebalancer.moved_keys
        for key in rebalancer.moved_keys:
            assert old_ring.owner(key) != new_ring.owner(key)
        # Post-purge, each key lives on exactly its owning shard.
        for i in range(60):
            key = f"user{i}"
            holders = _owner_instances_with(dep, mgr.map, key)
            assert holders == {mgr.map.owner(key)}, (key, holders)

    def test_get_instances_answers_every_shard_from_the_map(self):
        """Table 1's getInstances names every instance of every shard, in
        process and over the wire, where a client's refresh reads its map."""
        dep, handle, client = _sharded_dep(shards=2)
        expected = [info["instance_id"] for sid in ("sh-s0", "sh-s1")
                    for info in dep.wiera.tim(sid).members()]
        assert len(expected) == 4
        listed = dep.wiera.get_instances("sh")
        assert [info["instance_id"] for info in listed] == expected
        reply = dep.drive(client.node.invoke(
            dep.wiera.node, "get_instances", {"wiera_instance_id": "sh"}))
        assert [info["instance_id"] for info in reply["instances"]] \
            == expected
        assert reply["map"] is handle.map is dep.wiera.get_shard_map("sh")

    def test_stale_client_redirected_after_rebalance(self):
        dep, handle, client = _sharded_dep(shards=3)

        def load():
            for i in range(60):
                yield from client.put(f"user{i}", b"x" * 64)
        dep.drive(load())
        mgr = dep.wiera.shard_manager("sh")
        dep.drive(mgr.add_shard(), name="rebalance")
        assert client.map.epoch == 1   # still on the stale map

        def verify():
            for i in range(60):
                result = yield from client.get(f"user{i}")
                assert result["data"] == b"x" * 64
        dep.drive(verify())
        assert client.map.epoch == 2
        assert dep.metric_total("router.refreshes",
                                client=client.node.name) >= 1

    def test_live_rebalance_loses_no_acked_writes(self):
        self._rebalance_under_traffic(with_partition=False)

    def test_live_rebalance_survives_partition_mid_migration(self):
        self._rebalance_under_traffic(with_partition=True)

    def _rebalance_under_traffic(self, with_partition):
        dep, handle, client = _sharded_dep(
            shards=3,
            client_kwargs=dict(
                request_timeout=2.0,
                retry_policy=RetryPolicy(max_attempts=6, base_delay=0.2,
                                         max_delay=2.0, jitter=0.0)))

        def load():
            for i in range(40):
                yield from client.put(f"user{i}", b"seed" * 16)
        dep.drive(load())

        acked: dict[str, int] = {}
        stop = [False]

        def writer():
            i = 0
            while not stop[0]:
                key = f"user{i % 40}"
                try:
                    result = yield from client.put(key,
                                                   bytes([i % 251]) * 64)
                    acked[key] = max(acked.get(key, 0), result["version"])
                except Exception:
                    pass   # unacknowledged: allowed to be lost
                i += 1
                yield dep.sim.timeout(0.05)
        dep.sim.process(writer(), name="writer")

        if with_partition:
            schedule = dep.fault_schedule()
            schedule.partition(dep.sim.now + 2.0, US_EAST, US_WEST,
                               duration=8.0)
            schedule.start()

        mgr = dep.wiera.shard_manager("sh")
        old_ring = mgr.map.ring.copy()
        rebalancer = Rebalancer(mgr)
        result = dep.drive(rebalancer.add_shard(), name="rebalance")
        assert result["epoch"] == 2
        # Keep traffic flowing on the new map before stopping.
        dep.sim.run(until=dep.sim.now + 5.0)
        stop[0] = True
        dep.sim.run(until=dep.sim.now + 30.0)   # replication settles

        if with_partition:
            kinds = [kind for _, kind, _ in dep.faults.applied]
            assert kinds == ["partition", "heal"]

        assert acked, "traffic never got a write acknowledged"
        new_ring = mgr.map.ring
        for key in rebalancer.moved_keys:
            assert old_ring.owner(key) != new_ring.owner(key)
        lost = []
        for key, version in sorted(acked.items()):
            owner = mgr.map.owner(key)
            best = -1
            for rec in dep.wiera.tim(owner).instances.values():
                record = rec.instance.meta.get_record(key)
                if record is not None and record.latest_version is not None:
                    best = max(best, record.latest_version)
            if best < version:
                lost.append((key, version, best))
        assert lost == []

        def verify_reads():
            for key in sorted(acked):
                result = yield from client.get(key)
                assert result["version"] >= acked[key]
        dep.drive(verify_reads())

    def test_remove_shard_drains_to_survivors(self):
        dep, handle, client = _sharded_dep(shards=4, seed=3)

        def load():
            for i in range(40):
                yield from client.put(f"user{i}", b"seed" * 16)
        dep.drive(load())
        mgr = dep.wiera.shard_manager("sh")
        result = dep.drive(mgr.remove_shard("sh-s1"), name="rm")
        assert result["removed"] == "sh-s1"
        assert "sh-s1" not in mgr.map.shards

        def verify():
            for i in range(40):
                result = yield from client.get(f"user{i}")
                assert result["data"]
        dep.drive(verify())


class TestClientCounters:
    def test_failover_is_counted_once_in_the_registry(self):
        dep, handle, client = _sharded_dep(
            shards=1, client_kwargs=dict(
                retry_policy=RetryPolicy(max_attempts=3, base_delay=0.1,
                                         max_delay=1.0, jitter=0.0)))

        def load():
            yield from client.put("k", b"v")
        dep.drive(load())
        # Kill the client's closest instance host: the sweep fails over.
        client.route("k")[0]["node"].host.crash()

        def op():
            yield from client.get("k")
        dep.drive(op())
        name = client.node.name
        assert dep.metric_total("client.failovers", client=name) == 1
        assert dep.metric_total("client.retries", client=name) == 0


class TestElasticCycles:
    """Satellite: repeated back-to-back grow/shrink cycles stay clean."""

    def _one_shard(self):
        """A namespace at one shard, named after it."""
        dep = build_deployment([US_EAST, US_WEST], seed=21,
                               servers_per_region=2)
        spec = GlobalPolicySpec(
            name="cy",
            placements=(RegionPlacement(US_EAST, write_back_policy()),
                        RegionPlacement(US_WEST, write_back_policy())),
            consistency="multi_primaries")
        handle = dep.start_sharded_instance("cy", spec)
        mgr = dep.wiera.shard_manager("cy")
        client = dep.add_client(
            US_WEST, sharded=handle, request_timeout=2.0,
            retry_policy=RetryPolicy(max_attempts=6, base_delay=0.2,
                                     max_delay=2.0, jitter=0.0))
        return dep, mgr, client

    def _assert_no_leaked_state(self, dep, mgr):
        """Every live instance: gate open, no dual-write window, and a
        guard at the current epoch for its own shard."""
        for sid in mgr.map.shards:
            for rec in dep.wiera.tim(sid).alive_records():
                inst = rec.instance
                assert inst.gate._open, (sid, rec.instance_id)
                assert inst.shard_handoff is None, (sid, rec.instance_id)
                assert inst.shard_guard is not None
                assert inst.shard_guard.shard_id == sid
                assert inst.shard_guard.epoch == mgr.epoch

    def test_grow_1_to_4_and_back_under_live_writes(self):
        dep, mgr, client = self._one_shard()

        def load():
            for i in range(30):
                yield from client.put(f"user{i}", b"seed" * 8)
        dep.drive(load())

        acked: dict[str, int] = {}
        stop = [False]

        def writer():
            i = 0
            while not stop[0]:
                key = f"user{i % 30}"
                try:
                    result = yield from client.put(key,
                                                   bytes([i % 251]) * 64)
                    acked[key] = max(acked.get(key, 0), result["version"])
                except Exception:
                    pass   # unacknowledged: allowed to be lost
                i += 1
                yield dep.sim.timeout(0.05)
        dep.sim.process(writer(), name="writer")

        # Grow 1 -> 4, one rebalance at a time, under live writes.
        for expect in (2, 3, 4):
            result = dep.drive(mgr.add_shard(), name=f"grow{expect}")
            assert len(mgr.map.shards) == expect
            assert result["shard"] in mgr.map.shards
            self._assert_no_leaked_state(dep, mgr)
            dep.sim.run(until=dep.sim.now + 2.0)

        # Shrink 4 -> 1, newest shard first, still under live writes.
        for victim in ("cy-s3", "cy-s2", "cy-s1"):
            result = dep.drive(mgr.remove_shard(victim), name=f"rm:{victim}")
            assert result["removed"] == victim
            assert victim not in mgr.map.shards
            assert victim not in dep.wiera.tims
            self._assert_no_leaked_state(dep, mgr)
            dep.sim.run(until=dep.sim.now + 2.0)

        assert sorted(mgr.map.shards) == ["cy"]
        assert mgr.epoch == 7   # launch + 3 adds + 3 removes

        stop[0] = True
        dep.sim.run(until=dep.sim.now + 30.0)   # replication settles

        # Zero acked-write loss across the whole 1->4->1 cycle.
        assert acked, "writer never got an ack"
        lost = []
        for key, version in sorted(acked.items()):
            best = -1
            for rec in dep.wiera.tim("cy").instances.values():
                record = rec.instance.meta.get_record(key)
                if record is not None and record.latest_version is not None:
                    best = max(best, record.latest_version)
            if best < version:
                lost.append((key, version, best))
        assert lost == []

        def verify_reads():
            for key in sorted(acked):
                result = yield from client.get(key)
                assert result["version"] >= acked[key]
        dep.drive(verify_reads())
