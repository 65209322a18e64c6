"""The replica-shipping plane: batch RPCs, per-peer queue flushes, size
bounds, chunked transfers.

Every lazy flush, anti-entropy push and bulk copy ships as one
``call_batch`` per peer; ``batch_bytes`` is only a size (the queue's
early-flush threshold, the payload bound of a repair/migration message).
These tests exercise that plane, including its behavior under faults.
"""

import pytest

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.core.consistency import AntiEntropyRepairer, ReplicationQueue
from repro.net import EU_WEST, US_EAST, US_WEST
from repro.net.link import SEGMENT_BYTES
from repro.net.network import HostDownError, NetworkError
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST, EU_WEST)


@pytest.fixture
def world():
    dep = build_deployment(REGIONS, seed=29)
    spec = GlobalPolicySpec(
        name="q",
        placements=tuple(RegionPlacement(r, memory_only_policy())
                         for r in REGIONS),
        consistency="eventual", queue_interval=1000.0)  # manual flushing
    instances = dep.start_wiera_instance("q", spec)
    return dep, instances


def make_update(instance, dep, key, payload):
    def put():
        version = yield from instance.local_put(key, payload)
        meta = instance.meta.get_record(key).versions[version]
        return {"key": key, "version": version,
                "last_modified": meta.last_modified,
                "origin": instance.instance_id, "data": payload}
    return dep.drive(put())


def poison_key(instance, key):
    """Make ``instance`` reject replica updates for ``key``."""
    orig = instance.node._handlers["replica_update"]

    def poisoned(msg):
        if msg.args["key"] == key:
            raise RuntimeError(f"poisoned entry {key!r}")
        result = yield from orig(msg)
        return result
    instance.node._handlers["replica_update"] = poisoned


def spy_batches(node, on_call=None):
    """Record the entry count of every ``call_batch`` ``node`` issues;
    ``on_call(n)`` runs just before the n-th (0-based) one is sent."""
    sizes = []
    send = node.call_batch

    def call_batch(dst, entries, **kwargs):
        if on_call is not None:
            on_call(len(sizes))
        sizes.append(len(entries))
        return send(dst, entries, **kwargs)
    node.call_batch = call_batch
    return sizes


class TestBatchRpc:
    def test_per_entry_results_in_order(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        west = dep.instance("q", US_WEST)
        u1 = make_update(east, dep, "k", b"v1")
        u2 = make_update(east, dep, "k", b"v2")
        entries = [("replica_update", u1),
                   ("no_such_method", {}),
                   ("replica_update", u2)]

        def go():
            results = yield east.node.call_batch(west.node, entries)
            return results
        results = dep.drive(go())
        assert [r["ok"] for r in results] == [True, False, True]
        assert "NoSuchMethodError" in results[1]["error"]
        # Entries applied in order: the newest version wins at the peer.
        assert west.meta.get_record("k").latest_version == u2["version"]

    def test_batch_is_one_message_pair(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        west = dep.instance("q", US_WEST)
        entries = [("replica_update", make_update(east, dep, f"k{i}", b"v"))
                   for i in range(3)]
        before = dep.metric_total("net.messages")

        def go():
            yield east.node.call_batch(west.node, entries)
        dep.drive(go())
        # One request + one reply, regardless of entry count.
        assert dep.metric_total("net.messages") - before == 2

    def test_transport_failure_raises_whole_call(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        west = dep.instance("q", US_WEST)
        u = make_update(east, dep, "k", b"v")
        west.host.down = True

        def go():
            yield east.node.call_batch(
                west.node, [("replica_update", u)])
        with pytest.raises(HostDownError):
            dep.drive(go())


class TestBatchedQueue:
    def test_poisoned_entry_requeues_alone(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        eu = dep.instance("q", EU_WEST)
        poison_key(eu, "bad")
        queue = ReplicationQueue(east, interval=1000.0)
        queue.enqueue(make_update(east, dep, "good", b"g"))
        queue.enqueue(make_update(east, dep, "bad", b"b"))

        def flush():
            yield from queue.flush()
        dep.drive(flush())
        # The batch landed; only the rejected entry is requeued for EU.
        assert eu.meta.get_record("good") is not None
        assert eu.meta.get_record("bad") is None
        assert queue.backlog_size() == 1
        assert queue.send_failures == 1
        assert queue._outstanding == {(eu.instance_id, "bad")}
        # The healthy peer got both; nothing requeued for it.
        west = dep.instance("q", US_WEST)
        assert west.meta.get_record("bad") is not None

    def test_size_trigger_flushes_early(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        queue = ReplicationQueue(east, interval=1000.0, batch_bytes=256.0)
        queue.start()
        dep.sim.run(until=dep.sim.now + 0.01)   # let the loop arm the kick
        queue.enqueue(make_update(east, dep, "k", b"x" * 512))
        dep.sim.run(until=dep.sim.now + 5.0)    # far short of the interval
        queue.stop()
        assert queue.flushes >= 1
        assert dep.instance("q", US_WEST).meta.get_record("k") is not None

    def test_below_threshold_waits_for_timer(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        queue = ReplicationQueue(east, interval=1000.0, batch_bytes=1e9)
        queue.start()
        dep.sim.run(until=dep.sim.now + 0.01)
        queue.enqueue(make_update(east, dep, "k", b"small"))
        dep.sim.run(until=dep.sim.now + 5.0)
        queue.stop()
        assert queue.flushes == 0
        assert len(queue.pending) == 1

    def test_reap_forgets_departed_peer_retry_state(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        west_id = dep.instance("q", US_WEST).instance_id
        queue = ReplicationQueue(east, interval=1000.0)
        queue._attempts["ghost"] = 3
        queue._retry_at["ghost"] = 99.0
        queue._attempts[west_id] = 1
        queue._retry_at[west_id] = dep.sim.now + 60.0

        def flush():
            yield from queue.flush()
        dep.drive(flush())
        # The departed peer's bookkeeping is gone; a live peer's remains.
        assert "ghost" not in queue._attempts
        assert "ghost" not in queue._retry_at
        assert queue._attempts[west_id] == 1


class TestSyncBroadcast:
    def test_sync_broadcast_raises_on_rejected_entry(self):
        dep = build_deployment(REGIONS, seed=7)
        spec = GlobalPolicySpec(
            name="mp",
            placements=tuple(RegionPlacement(r, memory_only_policy())
                             for r in REGIONS),
            consistency="multi_primaries")
        dep.start_wiera_instance("mp", spec)
        east = dep.instance("mp", US_EAST)
        poison_key(dep.instance("mp", EU_WEST), "k")
        u = {"key": "k", "version": 1, "last_modified": 0.0,
             "origin": east.instance_id, "data": b"v"}

        def go():
            yield from east.protocol.broadcast_sync(
                east, "replica_update", u)
        # One (method, args) per peer has nothing to batch: a plain call,
        # so the peer's own exception reaches the writer.
        with pytest.raises(RuntimeError, match="poisoned entry"):
            dep.drive(go())


class TestBatchedMigration:
    """``ctl_sync_to``, the shard migration's bulk copy (and a recovered
    replica's catch-up): the destination's digest, then size-bounded
    batches of the keys it lacks."""

    def test_sync_to_ships_size_bounded_batches(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        west = dep.instance("q", US_WEST)
        for i in range(5):
            make_update(east, dep, f"k{i}", b"x" * 100)
        before = dep.metric_total("net.messages")

        def go():
            result = yield east.node.call(
                east.node, "ctl_sync_to",
                {"keys": [f"k{i}" for i in range(5)],
                 "dest": west.node,
                 # two entries (~612 B each) per batch -> 3 batches
                 "batch_bytes": 1300.0})
            return result
        result = dep.drive(go())
        assert sorted(result["landed"]) == [f"k{i}" for i in range(5)]
        assert result["failed"] == [] and result["theirs"] == {}
        for i in range(5):
            assert west.meta.get_record(f"k{i}") is not None
        # the loopback ctl pair (unbilled), the digest pair, 3 batch pairs
        assert dep.metric_total("net.messages") - before == 2 + 2 + 3 * 2

    def test_sync_to_batch_transport_failure_fails_those_keys(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        west = dep.instance("q", US_WEST)
        for i in range(3):
            make_update(east, dep, f"k{i}", b"x")

        def die_before_first(n):
            if n == 0:
                west.host.down = True
        spy_batches(east.node, die_before_first)

        def go():
            result = yield east.node.call(
                east.node, "ctl_sync_to",
                {"keys": [f"k{i}" for i in range(3)],
                 "dest": west.node, "batch_bytes": 1e6})
            return result
        result = dep.drive(go())
        assert result["landed"] == []
        assert sorted(result["failed"]) == [f"k{i}" for i in range(3)]
        # a peer already dead at the digest fails the whole call
        with pytest.raises(HostDownError):
            dep.drive(go())

    def test_bound_zero_ships_one_key_per_message(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        west = dep.instance("q", US_WEST)
        keys = [f"k{i}" for i in range(4)]
        for key in keys:
            make_update(east, dep, key, b"x" * 100)

        def die_before_third(n):
            if n == 2:
                west.host.down = True
        sizes = spy_batches(east.node, die_before_third)

        def migrate(which):
            result = yield east.node.call(
                east.node, "ctl_sync_to",
                {"keys": which, "dest": west.node})   # no bound given
            return result
        before = dep.metric_total("net.messages")
        result = dep.drive(migrate(keys))
        assert sizes == [1, 1, 1, 1]
        # The loopback ctl pair, the digest pair, then two request/reply
        # pairs landed; the dead host refused two requests unsent.
        assert dep.metric_total("net.messages") - before == 2 + 2 + 2 * 2
        # The peer died between entries: every key is accounted for, and
        # exactly the acknowledged ones are claimed as landed.
        assert result["landed"] == keys[:2] and result["failed"] == keys[2:]
        assert [west.meta.get_record(k) is not None for k in keys] == [
            True, True, False, False]
        west.host.down = False
        again = dep.drive(migrate(keys))
        # the digest shows what is still missing, and only that ships
        assert again["landed"] == keys[2:] and again["failed"] == []
        assert all(west.meta.get_record(k) is not None for k in keys)

    def test_rebalance_bulk_copy_uses_batches_and_loses_nothing(self):
        from repro.shard.rebalance import Rebalancer
        from repro.tiera.policy import write_back_policy
        dep = build_deployment((US_EAST, US_WEST), seed=7, shards=3)
        spec = GlobalPolicySpec(
            name="sh",
            placements=(RegionPlacement(US_EAST, write_back_policy()),
                        RegionPlacement(US_WEST, write_back_policy())),
            consistency="multi_primaries", batch_bytes=4096.0)
        handle = dep.start_sharded_instance("sh", spec)
        client = dep.add_client(US_WEST, sharded=handle)

        def load():
            for i in range(40):
                yield from client.put(f"user{i}", b"x" * 64)
        dep.drive(load())
        mgr = dep.wiera.shard_manager("sh")
        rebalancer = Rebalancer(mgr)
        result = dep.drive(rebalancer.add_shard(), name="rebalance")
        assert result["shard"] == "sh-s3"
        assert rebalancer.moved_keys

        def verify():
            for i in range(40):
                got = yield from client.get(f"user{i}")
                assert got["data"]
        dep.drive(verify())


class TestAntiEntropyPush:
    def _diverged(self, world, batch_bytes):
        """East holds four keys nobody else has; EU is unreachable, so a
        repair round talks to West only."""
        dep, _ = world
        east = dep.instance("q", US_EAST)
        dep.instance("q", EU_WEST).host.down = True
        keys = [f"k{i}" for i in range(4)]
        for key in keys:
            make_update(east, dep, key, b"x" * 100)
        repairer = AntiEntropyRepairer(east, interval=1.0,
                                       batch_bytes=batch_bytes)
        return dep, east, dep.instance("q", US_WEST), keys, repairer

    def test_bound_zero_ships_one_key_per_message(self, world):
        dep, east, west, keys, repairer = self._diverged(world, 0.0)

        def die_before_third(n):
            if n == 2:
                west.host.down = True
        sizes = spy_batches(east.node, die_before_third)
        dep.drive(repairer.repair_round())
        assert sizes == [1, 1, 1, 1]
        assert repairer.keys_pushed == 2
        # The peer died between entries; the next round's digest shows
        # exactly what is still missing and ships only that.
        west.host.down = False
        del sizes[:]
        dep.drive(repairer.repair_round())
        assert sizes == [1, 1]
        assert repairer.keys_pushed == 4
        assert all(west.meta.get_record(k) is not None for k in keys)

    def test_bound_groups_keys_per_message(self, world):
        dep, east, west, keys, repairer = self._diverged(world, 1300.0)
        sizes = spy_batches(east.node)
        dep.drive(repairer.repair_round())
        assert sizes == [2, 2]      # ~612 B per entry under a 1300 B bound
        assert repairer.keys_pushed == 4

    def test_stop_mid_round_stops_the_round(self, world):
        """``stop()`` while a round waits on a digest reply ends the
        process instead of treating the Interrupt as a dead peer."""
        dep, east, west, keys, repairer = self._diverged(world, 0.0)
        repairer.start()
        proc = repairer.loop._proc
        dep.sim.run(until=dep.sim.now + 1.01)   # digest call is on the WAN
        assert repairer.rounds == 1 and proc.is_alive
        repairer.stop()
        dep.sim.run(until=dep.sim.now + 4.0)
        assert not proc.is_alive
        assert repairer.rounds == 1 and repairer.keys_pushed == 0
        assert all(west.meta.get_record(k) is None for k in keys)


class TestDeterminism:
    def _run(self):
        dep = build_deployment((US_EAST, US_WEST), seed=33)
        spec = GlobalPolicySpec(
            name="det",
            placements=tuple(RegionPlacement(r, memory_only_policy())
                             for r in (US_EAST, US_WEST)),
            consistency="eventual", queue_interval=0.5, batch_bytes=100.0)
        instances = dep.start_wiera_instance("det", spec)
        client = dep.add_client(US_WEST, instances=instances)

        def app():
            out = []
            for i in range(6):
                result = yield from client.put(f"k{i % 3}", b"v" * 64)
                out.append(result["latency"])
            return out
        latencies = dep.drive(app())
        dep.sim.run(until=dep.sim.now + 5.0)  # let the queues flush
        digest = {
            (region, record.key): record.latest_version
            for region in (US_EAST, US_WEST)
            for record in dep.instance("det", region).meta.records()}
        return latencies, digest, dep.sim.now, dep.sim.events_processed

    def test_same_seed_twice_is_bit_identical(self):
        assert self._run() == self._run()


class TestChunkedTransfers:
    """A transfer larger than ``SEGMENT_BYTES`` crosses its egress link
    in segments (``net.chunks`` counts them)."""

    def _hosts(self):
        dep = build_deployment((US_EAST, US_WEST), seed=1)
        net = dep.network
        return (dep, net, net.host(f"tsrv-host-{US_EAST}-aws"),
                net.host(f"tsrv-host-{US_WEST}-aws"))

    def test_large_transfer_chunks_and_counts(self):
        for nbytes, segments in (
                (2 * SEGMENT_BYTES + 200, 3),   # the last has the remainder
                (2 * SEGMENT_BYTES, 2),         # exact multiple: no empty tail
                (SEGMENT_BYTES + 1, 2)):
            dep, net, src, dst = self._hosts()
            before = dep.metric_total("net.messages"), src.egress.bytes_sent

            def go():
                yield from net.transmit(src, dst, nbytes)
            dep.drive(go())
            assert dep.metric_total("net.chunks") == segments
            assert dep.metric_total("net.messages") - before[0] == 1   # still one message
            assert src.egress.bytes_sent - before[1] == nbytes

    def test_small_transfer_is_not_chunked(self):
        for nbytes in (300, SEGMENT_BYTES):
            dep, net, src, dst = self._hosts()

            def go():
                yield from net.transmit(src, dst, nbytes)
            dep.drive(go())
            assert dep.metric_total("net.chunks") == 0

    def test_partition_mid_transfer_aborts_between_chunks(self):
        dep, net, src, dst = self._hosts()

        # t2.micro egress is ~31 MB/s: a 10 MB transfer takes ~0.32 s in
        # ~4 ms segments, so a partition at 0.05 s lands mid-transfer.
        def go():
            def cut():
                yield dep.sim.timeout(0.05)
                net.partition(US_EAST, US_WEST)
            dep.sim.process(cut(), name="cut")
            yield from net.transmit(src, dst, 10_000_000)
        sent, start = src.egress.bytes_sent, dep.sim.now
        with pytest.raises(NetworkError):
            dep.drive(go())
        # The segment on the wire at 0.05 s is the last: only whole
        # segments reached the link, a fifth of the transfer at most.
        assert 0.05 <= dep.sim.now - start < 0.05 + 0.005
        assert (src.egress.bytes_sent - sent) % SEGMENT_BYTES == 0
        assert src.egress.bytes_sent - sent < 2_000_000

    def test_foreground_traffic_interleaves_between_chunks(self):
        dep, net, src, dst = self._hosts()
        done = {}

        def big():
            yield from net.transmit(src, dst, 10_000_000)
            done["big"] = dep.sim.now

        def small():
            yield dep.sim.timeout(0.001)   # join the egress queue second
            yield from net.transmit(src, dst, 1000)
            done["small"] = dep.sim.now
        start = dep.sim.now
        dep.sim.process(big(), name="big")
        dep.sim.process(small(), name="small")
        dep.sim.run(until=start + 5.0)
        # The small transfer does not wait out the 10 MB: it slips in at
        # the first segment boundary.
        assert done["small"] < done["big"]
        assert done["small"] - start < \
            2 * SEGMENT_BYTES / src.egress.rate \
            + net.oneway_latency(src, dst)


class TestNetworkDynamicsPruning:
    def test_expired_host_injection_is_pruned(self):
        dep = build_deployment((US_EAST,), seed=1)
        net = dep.network
        name = f"tsrv-host-{US_EAST}-aws"
        host = net.host(name)
        net.inject_host_delay(name, 0.1, duration=5.0)
        assert net.injected_extra(host, host) > 0
        dep.sim.run(until=dep.sim.now + 6.0)
        assert net.injected_extra(host, host) == 0.0
        assert name not in net._host_injections

    def test_expired_pair_injection_is_pruned(self):
        dep = build_deployment((US_EAST, US_WEST), seed=1)
        net = dep.network
        src = net.host(f"tsrv-host-{US_EAST}-aws")
        dst = net.host(f"tsrv-host-{US_WEST}-aws")
        net.inject_pair_delay(US_EAST, US_WEST, 0.2, duration=5.0)
        assert net.injected_extra(src, dst) == pytest.approx(0.2)
        dep.sim.run(until=dep.sim.now + 6.0)
        assert net.injected_extra(src, dst) == 0.0
        assert frozenset((US_EAST, US_WEST)) not in net._pair_injections

    def test_elapsed_partition_is_reaped(self):
        dep = build_deployment((US_EAST, US_WEST), seed=1)
        net = dep.network
        net.partition(US_EAST, US_WEST, duration=2.0)
        assert net.is_partitioned(US_EAST, US_WEST)
        dep.sim.run(until=dep.sim.now + 3.0)
        assert not net.is_partitioned(US_EAST, US_WEST)
        assert frozenset((US_EAST, US_WEST)) not in net._partitions
