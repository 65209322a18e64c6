"""Bandwidth contention and throughput-limit behaviours."""

import pytest

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.net import Network, US_EAST, US_WEST
from repro.net.link import SEGMENT_BYTES
from repro.obs.api import get_obs
from repro.sim import Simulator
from repro.sim.rpc import RpcNode
from repro.tiera.policy import memory_only_policy
from repro.util.units import KB, MB


@pytest.fixture
def sim():
    return Simulator()


class TestEgressContention:
    def test_bulk_transfer_delays_foreground_rpc(self, sim):
        """A big replication transfer crosses the same egress link as a
        small foreground message, and delays it — by one segment: the
        message waits for the segment on the wire, not for the transfer,
        and the bulk still pays for every byte (the paper's ``bandwidth:``
        caps on policy copies bound how much of the link background
        traffic may take, not whether foreground traffic gets through)."""
        net = Network(sim)
        src = net.add_host("src", US_EAST, vm="aws.t2_micro")
        dst = net.add_host("dst", US_WEST, vm="aws.t2_micro")
        src.egress.rate = 1 * MB  # easy arithmetic
        a = RpcNode(sim, net, src, name="a")
        b = RpcNode(sim, net, dst, name="b")

        def noop(msg):
            yield sim.timeout(0.0)
        b.register("noop", noop)

        done = {}

        def bulk():
            yield from net.transmit(src, dst, 2 * MB)  # 2 s on the wire
            done["bulk"] = sim.now

        def ping():
            yield sim.timeout(0.01)  # starts while bulk is transmitting
            yield a.call(b, "noop")
            done["ping"] = sim.now

        sim.process(bulk())
        sim.process(ping())
        sim.run()
        segment_time = SEGMENT_BYTES / src.egress.rate
        rtt = net.rtt(src, dst)
        # the ping's request went out at the first segment boundary (1 ms
        # covers its own few bytes on the two links)...
        assert rtt < done["ping"] - 0.01 <= segment_time + rtt + 0.001
        # ...and the bulk moved all its bytes at the link's rate
        assert done["bulk"] >= 2.0 + net.oneway_latency(src, dst)
        assert src.egress.bytes_sent >= 2 * MB

    def test_transfers_on_different_hosts_independent(self, sim):
        net = Network(sim)
        a1 = net.add_host("a1", US_EAST, vm="aws.t2_micro")
        a2 = net.add_host("a2", US_EAST, vm="aws.t2_micro")
        dst = net.add_host("d", US_WEST)
        a1.egress.rate = 1 * MB
        a2.egress.rate = 1 * MB
        done = {}

        def send(tag, host):
            yield from net.transmit(host, dst, 1 * MB)
            done[tag] = sim.now

        sim.process(send("one", a1))
        sim.process(send("two", a2))
        sim.run()
        # parallel links: both finish ~1 s + propagation, not 2 s
        assert done["one"] < 1.2 and done["two"] < 1.2


class TestFlushSharesTheLink:
    """The mechanism behind ``ol_read``'s tail, at small scale: a lazy
    replication flush and the get replies of the same instance leave
    through one egress link."""

    KEYS = 8                  # x 64 KB: one flush envelope of >= 512 KB

    def test_a_get_waits_for_one_segment_of_a_flush_not_for_the_flush(self):
        dep = build_deployment((US_EAST, US_WEST), seed=3)
        spec = GlobalPolicySpec(
            name="tail",
            placements=tuple(RegionPlacement(region, memory_only_policy())
                             for region in (US_EAST, US_WEST)),
            consistency="eventual", queue_interval=3600.0)  # flush by hand
        client = dep.add_client(
            US_EAST, instances=dep.start_wiera_instance("tail", spec))
        sim, instance = dep.sim, dep.instance("tail", US_EAST)
        link = instance.host.egress

        acked = {}

        def burst():
            for i in range(self.KEYS):
                result = yield from client.put(f"k{i}", bytes(64 * 1024))
                acked[f"k{i}"] = result["version"]
        dep.drive(burst())

        # Every reservation on the instance's link from here on:
        # (reserved at, bytes, last byte out).
        reserved = []
        reserve = link.reserve

        def spy(nbytes):
            finish = reserve(nbytes)
            reserved.append((sim.now, nbytes, finish))
            return finish
        link.reserve = spy
        dep.drive(client.get("k0"))
        (_, reply_bytes, _), = reserved     # a get's reply, link idle
        del reserved[:]

        queue = instance.protocol.queue_for(instance)
        start = sim.now
        flush = sim.process(queue.flush())
        gets = []

        def reader(i):
            yield sim.timeout(0.0005 + 0.001 * i)   # 1 ms apart, 24 ms
            yield from client.get(f"k{i % self.KEYS}")
        for i in range(24):
            gets.append(sim.process(reader(i)))
        sim.run(until=sim.all_of(gets + [flush]))

        bulk = sum(nbytes for _, nbytes, _ in reserved
                   if nbytes != reply_bytes)
        assert bulk >= 512 * 1024 and queue.batches == 1
        segment_time = SEGMENT_BYTES / link.rate
        flush_time = bulk / link.rate
        replies = [(at, out) for at, nbytes, out in reserved
                   if nbytes == reply_bytes]
        assert len(replies) == len(gets)
        reply_time = reply_bytes / link.rate
        during = 0
        for n, (at, out) in enumerate(replies):
            waited = out - reply_time - at
            # Replies reserved earlier and not yet out when this one asks.
            ahead = sum(min(earlier_out - at, reply_time)
                        for _, earlier_out in replies[:n]
                        if earlier_out > at)
            assert waited <= segment_time + ahead + 1e-12
            during += at - start < flush_time
        assert during >= 8      # the gets did arrive under the flush

        # Yielding the link loses nothing: replicas converge on every
        # acked version.
        sim.run(until=sim.now + 1.0)
        for region in (US_EAST, US_WEST):
            meta = dep.instance("tail", region).meta
            assert {record.key: record.latest_version
                    for record in meta.records()} == acked
        assert not queue.pending and queue.updates_sent == self.KEYS


class TestThroughputCaps:
    def test_sustained_rate_limited_by_egress(self, sim):
        net = Network(sim)
        src = net.add_host("s", US_EAST)
        dst = net.add_host("d", US_WEST)
        src.egress.rate = 512 * KB

        def sender():
            for _ in range(16):
                yield from net.transmit(src, dst, 64 * KB)
        proc = sim.process(sender())
        sim.run(until=proc)
        # 1 MB at 512 KB/s = 2 s of serialization, plus 16 sequential
        # propagation delays (the sender waits for each delivery)
        assert sim.now == pytest.approx(2.0 + 16 * 0.035, rel=0.05)
        assert get_obs(sim).metrics.counter("net.bytes").value == 16 * 64 * KB

    def test_message_counter(self, sim):
        net = Network(sim)
        src = net.add_host("s", US_EAST)
        dst = net.add_host("d", US_WEST)

        def sender():
            yield from net.transmit(src, dst, 10)
            yield from net.transmit(src, dst, 10)
        proc = sim.process(sender())
        sim.run(until=proc)
        assert get_obs(sim).metrics.counter("net.messages").value == 2
