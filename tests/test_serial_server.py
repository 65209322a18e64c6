"""The virtual-clock serial server behind egress links and IOPS caps.

``SerialServer`` replaces queue-and-wake (``Resource(capacity=1)``) with
arithmetic: a job's completion time is ``max(now, free_at) + duration``.
These tests hold it to the queueing model it replaces — a reference
recurrence over generated arrivals — and pin the two places where the
model's semantics are stated rather than inherited: an interrupted sender's
reservation stays spent (and, unlike the waiter queue-and-wake stranded,
cannot wedge the server), and a message's propagation latency is the one in force
when its last byte leaves, from the injections registered at send time.
A transfer longer than one segment is held to the same recurrence segment
by segment.
"""

import dataclasses
import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Network, NetworkError, US_EAST, US_WEST
from repro.net.link import SEGMENT_BYTES, BandwidthLink
from repro.obs.api import get_obs
from repro.sim import SerialServer, Simulator, wake_at
from repro.storage import make_tier
from repro.storage.profiles import get_tier_profile
from repro.util.units import GB

INF = float("inf")


@pytest.fixture
def sim():
    return Simulator()


# ---------------------------------------------------------------------------
# reference model
# ---------------------------------------------------------------------------

rates = st.one_of(st.just(INF),
                  st.floats(min_value=1.0, max_value=1e9, allow_nan=False))

#: (gap before this arrival, payload bytes, link rate in force from here on)
arrivals = st.lists(
    st.tuples(st.one_of(st.just(0.0),
                        st.floats(min_value=0.0, max_value=10.0,
                                  allow_nan=False)),
              st.integers(min_value=0, max_value=10_000_000),
              rates),
    min_size=1, max_size=20)


def reference_completions(plan):
    """FIFO single server, the textbook recurrence: returns
    ``[(arrival, completion)]`` in arrival order."""
    now = free_at = 0.0
    out = []
    for gap, nbytes, rate in plan:
        now = now + gap
        if rate == INF:
            out.append((now, now))          # never queues
            continue
        start = max(now, free_at)
        free_at = start + nbytes / rate
        out.append((now, free_at))
    return out


def reference_deliveries(plan, latency, cut=None):
    """The segmented-transfer model, as a textbook event loop over one
    FIFO link: a sender reserves one segment of at most ``SEGMENT_BYTES``
    at a time, the next only when the previous is out, so the link serves
    *segments* in reservation order, each clocked at the rate in force
    when it is reserved; delivery is last segment out + latency.  A
    partition at ``cut`` refuses whatever is sent later and stops a
    transfer at its next segment boundary.  Simultaneous events run in
    the order they were scheduled.  Returns ``({i: delivery instant},
    {i: abort instant}, bytes put on the link)``."""
    heap, delivered, aborted = [], {}, {}
    now = free_at = 0.0
    rate, wire, partitioned = INF, 0, False

    order = itertools.count()   # simultaneous events: first scheduled first

    def schedule(when, *what):
        heapq.heappush(heap, (when, next(order), what))

    def send(i, left):
        """Sender ``i``, awake at ``now`` with ``left`` bytes to go."""
        nonlocal free_at, wire
        while True:
            if partitioned:
                aborted[i] = now
                return
            piece = min(left, SEGMENT_BYTES)
            wire += piece
            out = now
            if rate != INF:
                out = free_at = max(now, free_at) + piece / rate
            left -= piece
            if not left:
                delivered[i] = out + latency
                return
            if out > now:
                schedule(out, send, i, left)
                return

    def arrive(i):
        """Start sender ``i`` and every later one that arrives with it."""
        nonlocal rate
        while True:
            rate = plan[i][2]
            send(i, plan[i][1])
            i += 1
            if i == len(plan):
                return
            if plan[i][0] > 0:
                schedule(now + plan[i][0], arrive, i)
                return

    def partition():
        nonlocal partitioned
        partitioned = True

    if cut is not None:
        schedule(cut, partition)
    if plan[0][0] > 0:
        schedule(plan[0][0], arrive, 0)
    else:
        arrive(0)
    while heap:
        now, _, (step, *args) = heapq.heappop(heap)
        step(*args)
    return delivered, aborted, wire


def drive_link(plan):
    """Arrive per ``plan`` on one link; returns (link, completion time per
    job, job ids in completion order)."""
    sim = Simulator()
    link = BandwidthLink(sim)
    done_at, order = {}, []

    def sender(i, nbytes, rate):
        link.rate = rate                    # a run-time rate change
        yield from link.transmit(nbytes)
        done_at[i] = sim.now
        order.append(i)

    def arrive():
        for i, (gap, nbytes, rate) in enumerate(plan):
            if gap > 0:
                yield sim.timeout(gap)
            sim.process(sender(i, nbytes, rate))

    sim.process(arrive())
    sim.run()
    return link, done_at, order


class TestReferenceModel:
    @given(plan=arrivals)
    @settings(max_examples=150)
    def test_link_matches_fifo_recurrence(self, plan):
        link, done_at, order = drive_link(plan)
        want = reference_completions(plan)
        # Completion times are equal, not approximately equal.
        assert [done_at[i] for i in range(len(plan))] == \
            [done for _, done in want]
        assert link.bytes_sent == sum(nbytes for _, nbytes, _ in plan)
        # FIFO: jobs that went through the queue complete in arrival order.
        queued = [i for i, (_, _, rate) in enumerate(plan) if rate != INF]
        assert [i for i in order if i in set(queued)] == queued

    @given(plan=arrivals,
           cut=st.one_of(st.none(), st.floats(min_value=0.0, max_value=50.0,
                                              allow_nan=False)))
    @settings(max_examples=100)
    def test_network_delivery_is_last_byte_out_plus_latency(self, plan, cut):
        """Segment by segment: delivery is last segment out + latency,
        exactly; bytes are conserved; a partition between two segments
        aborts the transfer with only the segments already sent on the
        link."""
        sim = Simulator()
        net = Network(sim)
        src = net.add_host("src", US_EAST)
        dst = net.add_host("dst", US_WEST)
        latency = net.oneway_latency(src, dst)
        delivered, aborted = {}, {}

        def sender(i, nbytes, rate):
            src.egress.rate = rate
            try:
                yield from net.transmit(src, dst, nbytes)
            except NetworkError:
                aborted[i] = sim.now
            else:
                delivered[i] = sim.now

        def arrive():
            for i, (gap, nbytes, rate) in enumerate(plan):
                if gap > 0:
                    yield sim.timeout(gap)
                sim.process(sender(i, nbytes, rate))

        def cutter():
            yield sim.timeout(cut)
            net.partition(US_EAST, US_WEST)

        if cut is not None:
            sim.process(cutter())
        sim.process(arrive())
        sim.run()
        want_delivered, want_aborted, wire = \
            reference_deliveries(plan, latency, cut)
        assert delivered == want_delivered
        assert aborted == want_aborted
        assert src.egress.bytes_sent == wire
        if cut is None:
            assert not aborted
            assert get_obs(sim).metrics.counter("net.bytes").value == wire == \
                sum(nbytes for _, nbytes, _ in plan)

    @given(now=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
           ahead=st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    def test_wake_at_lands_exactly(self, now, ahead):
        """Where ``timeout(when - now)`` can land an ulp off ``when``
        (now=8.17300970032654, when=72.17300970032655: no delay does)."""
        sim = Simulator()
        sim.run(until=now)
        when = now + ahead
        sim.run(until=wake_at(sim, when))
        assert sim.now == when

    def test_reserve_is_the_recurrence(self, sim):
        server = SerialServer(sim)
        assert server.reserve(2.0) == 2.0        # idle: starts now
        assert server.reserve(1.5) == 3.5        # busy: starts at free_at
        sim.run(until=10.0)
        assert server.reserve(1.0) == 11.0       # idle again


# ---------------------------------------------------------------------------
# an interrupted sender cannot wedge the server
# ---------------------------------------------------------------------------

class TestInterruptedSender:
    def test_interrupting_a_queued_sender_does_not_wedge_the_link(self, sim):
        """Three 1000 B senders on a 1000 B/s link; the second is
        interrupted while it waits behind the first.  Its reservation
        stays spent (the link is busy 1.0-2.0 as if it had sent) and the
        third goes out at 3.0.  With ``Resource`` the dead waiter was
        handed the slot at 1.0 and never released it: the third sender,
        and every later transfer from the host, hung forever."""
        link = BandwidthLink(sim, rate=1000.0)
        done = {}

        def sender(tag):
            yield from link.transmit(1000)
            done[tag] = sim.now

        procs = [sim.process(sender(tag)) for tag in ("a", "b", "c")]

        def interrupter():
            yield sim.timeout(0.5)
            procs[1].interrupt("stopped")
        sim.process(interrupter())
        procs[1].defuse()
        sim.run(until=100.0)
        assert done == {"a": 1.0, "c": 3.0}

        # ...and the link keeps serving afterwards.
        sim.process(sender("d"))
        sim.run(until=200.0)
        assert done["d"] == 101.0

    def test_interrupting_a_queued_op_does_not_wedge_an_iops_cap(self, sim):
        """Same shape on an IOPS-capped tier: the op interrupted while it
        waits for the completion channel must not strand the channel."""
        profile = dataclasses.replace(get_tier_profile("azure_disk"),
                                      iops=1.0, jitter_sigma=0.0)
        tier = make_tier(sim, profile, 1 * GB)
        tier.preload("k", b"x" * 512)
        done = {}

        def reader(tag):
            yield from tier.read("k")
            done[tag] = sim.now

        procs = [sim.process(reader(tag)) for tag in ("a", "b", "c")]

        def interrupter():
            yield sim.timeout(0.5)
            procs[1].interrupt("stopped")
        sim.process(interrupter())
        procs[1].defuse()
        sim.run(until=100.0)
        # 1 IOPS: completions are spaced one second apart.
        assert done == {"a": 1.0, "c": 3.0}
        assert tier.reads == 2


# ---------------------------------------------------------------------------
# segmented transfers
# ---------------------------------------------------------------------------

def two_hosts(sim, rate):
    net = Network(sim)
    src = net.add_host("src", US_EAST)
    dst = net.add_host("dst", US_WEST)
    src.egress.rate = rate
    return net, src, dst


class TestChunkedTransfer:
    @pytest.fixture(autouse=True)
    def small_segments(self, monkeypatch):
        """400 B segments, so a 1000 B/s link gives round numbers."""
        monkeypatch.setattr("repro.net.network.SEGMENT_BYTES", 400)

    def test_foreground_message_goes_out_between_two_chunks(self, sim):
        """The bulk transfer's next segment is reserved only when the
        previous one is out, so a 100 B message arriving at 0.1 is served
        right after segment 1 — [0.4, 0.5) — and the bulk's remaining
        segments follow it.  One kernel event per segment."""
        net, src, dst = two_hosts(sim, 1000.0)
        latency = net.oneway_latency(src, dst)
        done = {}

        def bulk():
            yield from net.transmit(src, dst, 1000)     # 400 + 400 + 200
            done["bulk"] = sim.now

        def small():
            yield sim.timeout(0.1)
            yield from net.transmit(src, dst, 100)
            done["small"] = sim.now

        sim.process(bulk())
        sim.process(small())
        sim.run()
        assert done["small"] == pytest.approx(0.5 + latency, abs=1e-12)
        assert done["bulk"] == pytest.approx(1.1 + latency, abs=1e-12)
        assert src.egress.bytes_sent == 1100
        assert net._chunk_counter.value == 3      # the bulk's; not the small
        # bulk: 3 segments = 3 events; small: its 0.1 timeout + 1
        assert sim.events_processed == 5

    def test_partition_between_chunks_aborts_the_remainder(self, sim):
        net, src, dst = two_hosts(sim, 1000.0)
        chunks = net._chunk_counter
        failed_at = []

        def bulk():
            try:
                yield from net.transmit(src, dst, 2000)  # five segments
            except NetworkError:
                failed_at.append(sim.now)

        def cut():
            yield sim.timeout(0.5)                    # inside segment 2
            net.partition(US_EAST, US_WEST)

        sim.process(bulk())
        sim.process(cut())
        sim.run()
        # Segment 2 is out at 0.8; the reachability check before segment 3
        # raises, and the remaining 1200 B never reach the link.
        assert failed_at == [pytest.approx(0.8)]
        assert chunks.value == 2
        assert src.egress.bytes_sent == 800


# ---------------------------------------------------------------------------
# propagation latency: sampled for the last-byte-out instant
# ---------------------------------------------------------------------------

class TestLatencyAtLastByteOut:
    def deliver(self, sim, net, src, dst, nbytes):
        proc = sim.process(net.transmit(src, dst, nbytes))
        sim.run(until=proc)
        return sim.now

    def test_injection_starting_during_serialization_applies(self, sim):
        net, src, dst = two_hosts(sim, 1000.0)
        base = net.oneway_latency(src, dst)
        # Registered before the send; opens at 0.5, while the 1000 B
        # message (last byte out at 1.0) is still serializing.
        net.inject_host_delay(dst, 0.25, start=0.5, duration=10.0)
        assert self.deliver(sim, net, src, dst, 1000) == \
            pytest.approx(1.0 + base + 0.25)

    def test_injection_expiring_during_serialization_does_not(self, sim):
        net, src, dst = two_hosts(sim, 1000.0)
        base = net.oneway_latency(src, dst)
        net.inject_pair_delay(US_EAST, US_WEST, 0.25, start=0.0,
                              duration=0.5)       # over before 1.0
        assert self.deliver(sim, net, src, dst, 1000) == \
            pytest.approx(1.0 + base)

    def test_injection_registered_after_send_is_not_applied(self, sim):
        """The stated semantics: the windows consulted are the ones
        registered at send time."""
        net, src, dst = two_hosts(sim, 1000.0)
        base = net.oneway_latency(src, dst)

        def late():
            yield sim.timeout(0.5)
            net.inject_host_delay(dst, 0.25, duration=10.0)
        sim.process(late())
        assert self.deliver(sim, net, src, dst, 1000) == \
            pytest.approx(1.0 + base)

    def test_no_injections_is_the_zero_scan_path(self, sim):
        net, src, dst = two_hosts(sim, 1000.0)
        assert net.injected_extra(src, dst) == 0.0
        net.inject_host_delay(src, 0.1, duration=1.0)
        assert net.injected_extra(src, dst) == pytest.approx(0.1)
        assert net.injected_extra(src, dst, at=2.0) == 0.0
        sim.run(until=5.0)
        assert net.injected_extra(src, dst) == 0.0
        assert not net._host_injections          # pruned: fast path again
