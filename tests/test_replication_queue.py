"""Unit tests for the lazy-replication queue (the ``queue`` response)."""

import pytest

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.core.consistency import ReplicationQueue
from repro.net import EU_WEST, US_EAST, US_WEST
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


@pytest.fixture(params=[0.0, 65536.0], ids=["timer-only", "64KiB"])
def threshold(request):
    """The queue's early-flush threshold: retry, backlog and abandonment
    are one machinery whatever its value."""
    return request.param


def make_update(instance, dep, key, payload):
    def put():
        version = yield from instance.local_put(key, payload)
        meta = instance.meta.get_record(key).versions[version]
        return {"key": key, "version": version,
                "last_modified": meta.last_modified,
                "origin": instance.instance_id, "data": payload}
    return dep.drive(put())


class TestCoalescing:
    def test_same_key_coalesces_to_newest(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        queue = ReplicationQueue(east, interval=1000.0)
        u1 = make_update(east, dep, "k", b"v1")
        u2 = make_update(east, dep, "k", b"v2")
        queue.enqueue(u1)
        queue.enqueue(u2)
        assert len(queue.pending) == 1
        assert queue.coalesced == 1
        assert queue.pending["k"]["version"] == u2["version"]

    def test_distinct_keys_kept(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        queue = ReplicationQueue(east, interval=1000.0)
        queue.enqueue(make_update(east, dep, "a", b"1"))
        queue.enqueue(make_update(east, dep, "b", b"2"))
        assert len(queue.pending) == 2
        assert queue.coalesced == 0


class TestFlushAndDrain:
    def test_flush_ships_one_batch_per_peer(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        queue = ReplicationQueue(east, interval=1000.0)
        for i in range(3):
            queue.enqueue(make_update(east, dep, f"k{i}", b"payload"))

        def flush():
            yield from queue.flush()
        dep.drive(flush())
        assert queue.batches == 2           # one per peer
        assert queue.updates_sent == 6      # 3 entries x 2 peers
        for region in (US_WEST, EU_WEST):
            peer = dep.instance("q", region)
            for i in range(3):
                assert peer.meta.get_record(f"k{i}").latest_version >= 1

    def test_flush_tolerates_dead_peer(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        dep.instance("q", EU_WEST).host.down = True
        queue = ReplicationQueue(east, interval=1000.0)
        queue.enqueue(make_update(east, dep, "k", b"payload"))

        def flush():
            yield from queue.flush()
        dep.drive(flush())  # must not raise
        assert queue.send_failures == 1
        assert dep.instance("q", US_WEST).meta.get_record("k") is not None

    def test_drain_empties_even_with_concurrent_enqueue(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        queue = ReplicationQueue(east, interval=1000.0)
        queue.enqueue(make_update(east, dep, "a", b"1"))

        def drain():
            yield from queue.drain()
        dep.drive(drain())
        assert len(queue.pending) == 0

    def test_background_loop_flushes_periodically(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        queue = ReplicationQueue(east, interval=2.0)
        queue.start()
        queue.enqueue(make_update(east, dep, "k", b"v"))
        dep.sim.run(until=dep.sim.now + 5.0)
        queue.stop()
        assert queue.flushes >= 1
        assert len(queue.pending) == 0

    def test_stop_is_idempotent(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        queue = ReplicationQueue(east, interval=2.0)
        queue.start()
        queue.stop()
        queue.stop()


class TestRetryBacklog:
    def test_failed_send_lands_in_backlog_and_retries(self, world, threshold):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        eu = dep.instance("q", EU_WEST)
        eu.host.down = True
        queue = ReplicationQueue(east, interval=1000.0,
                                 batch_bytes=threshold)
        for i in range(3):
            queue.enqueue(make_update(east, dep, f"k{i}", b"v"))

        def flush():
            yield from queue.flush()
        dep.drive(flush())
        # Transport failure: nothing was acked, every entry is outstanding
        # for the dead peer and the healthy one is unaffected.
        assert queue.backlog_size() == 3
        assert queue._outstanding == {(eu.instance_id, f"k{i}")
                                      for i in range(3)}
        west = dep.instance("q", US_WEST)
        assert all(west.meta.get_record(f"k{i}") for i in range(3))
        eu.host.down = False
        # let the backoff window pass, then flush again: the backlog
        # retries as one batch and converges
        dep.sim.run(until=dep.sim.now + 10.0)
        dep.drive(flush())
        assert queue.backlog_size() == 0
        assert queue.outstanding_failures == 0
        assert queue.retries == 3
        assert all(eu.meta.get_record(f"k{i}") for i in range(3))

    def test_retry_never_buries_newer_pending_write(self, world, threshold):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        eu = dep.instance("q", EU_WEST)
        eu.host.down = True
        queue = ReplicationQueue(east, interval=1000.0,
                                 batch_bytes=threshold)
        old = make_update(east, dep, "k", b"old")
        queue.enqueue(old)

        def flush():
            yield from queue.flush()
        dep.drive(flush())           # old fails into the backlog
        new = make_update(east, dep, "k", b"new")
        queue.enqueue(new)           # fresher write supersedes the retry
        assert queue.backlog_size() == 0
        eu.host.down = False
        dep.sim.run(until=dep.sim.now + 10.0)
        dep.drive(flush())
        record = eu.meta.get_record("k")
        assert record.latest_version == new["version"]

    def test_capped_retries_abandon_to_anti_entropy(self, world, threshold):
        dep, _ = world
        from repro.faults import RetryPolicy
        east = dep.instance("q", US_EAST)
        dep.instance("q", EU_WEST).host.down = True
        queue = ReplicationQueue(
            east, interval=1000.0, batch_bytes=threshold,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.01,
                                     jitter=0.0))
        queue.enqueue(make_update(east, dep, "k", b"v"))

        def flush():
            yield from queue.flush()
        for _ in range(4):
            dep.drive(flush())
            dep.sim.run(until=dep.sim.now + 1.0)
        assert queue.abandoned == 1
        assert queue.backlog_size() == 0
        # ...but the divergence is still tracked until something repairs it
        assert queue.outstanding_failures == 1
        queue.mark_delivered(next(iter(queue._outstanding))[0], "k")
        assert queue.outstanding_failures == 0
        assert queue.repaired == 1

    def test_stop_surfaces_dropped_entries(self, world, threshold):
        dep, _ = world
        from repro.obs.api import get_obs
        east = dep.instance("q", US_EAST)
        queue = ReplicationQueue(east, interval=1000.0,
                                 batch_bytes=threshold)
        queue.enqueue(make_update(east, dep, "k", b"v"))
        queue.stop()
        dropped = get_obs(dep.sim).metrics.counter(
            "replication.pending_dropped", instance=east.instance_id)
        assert dropped.value == 1

    def test_stop_mid_flush_stops_the_flush(self, world, threshold):
        """``stop()`` while a flush waits on the WAN ends the process: an
        Interrupt is not a peer failure, so nothing is counted or requeued."""
        dep, _ = world
        east = dep.instance("q", US_EAST)
        queue = ReplicationQueue(east, interval=1.0, batch_bytes=threshold)
        queue.start()
        proc = queue._proc
        queue.enqueue(make_update(east, dep, "k", b"v"))
        dep.sim.run(until=dep.sim.now + 1.01)   # flush is waiting on a peer
        assert queue.flushes == 1 and proc.is_alive
        queue.stop()
        dep.sim.run(until=dep.sim.now + 4.0)
        assert not proc.is_alive
        assert queue.send_failures == 0
        assert queue.outstanding_failures == 0
        assert queue.backlog_size() == 0
        # The batches already on the wire still land.
        for region in (US_WEST, EU_WEST):
            assert dep.instance("q", region).meta.get_record("k") is not None
