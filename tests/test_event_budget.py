"""Kernel events per operation on the fault-free path — an exact budget.

What the simulator pays per message decides how many regions, users and
seconds a run can afford, and a kernel event that carries no simulated
time (a grant on an idle link, a wait on an open gate, a second sleep where
one would do) is pure cost.  This test pins the count on the plainest
data path there is — two regions, unsharded, memory tier, eventual
consistency with the flush timer parked, one client in the instance's own
region — so a change that re-introduces such an event fails ``pytest``
and not only the benchmark pipeline.

The ledger, per operation issued from an already-running driver process
(an RPC the caller waits on runs inside the caller — ``RpcNode.invoke`` —
so it has no process of its own to start and finish):

====================================  ===  ===
event                                 get  put
====================================  ===  ===
request transmit (one timeout)          1    1
tier access (one timeout)               1    1
metadata write (one timeout)            -    1
reply transmit (one timeout)            1    1
------------------------------------  ---  ---
total                                   3    4
====================================  ===  ===

A process costs no events of its own: ``sim.process()`` runs it to its
first yield on the spot, and its finish is an event only when somebody is
subscribed to it.  So a call somebody needs an ``Event`` for — a fan-out
member gathered with ``all_of`` — pays one event on top of its wake-ups,
the watched finish, and ``drive()``'s process (started by the call,
watched by nobody) pays none.  A lazy flush is one such batch RPC per peer
— request, reply, watched finish — whatever the number of pending keys,
plus a tier and a metadata write per entry applied at the peer:
``P * (3 + 2 * N)``.

One ``multi_primaries`` put to ``P`` peers, lock service one RPC away:

==========================================================  ========
client request + reply                                             2
lock handshake (``holder``): request, service time, reply          3
lock ``acquire``: the same three (the lease watchdog starts
inside the handler and parks on its timer: no event)               3
local put: tier + metadata write                                   2
sync broadcast: ``all_of`` + per peer request, tier + metadata
write at the peer, reply, watched finish                      1 + 5P
lock ``release``: request, service time, reply                     3
----------------------------------------------------------  --------
total                                                        14 + 5P
==========================================================  ========

One EC put to ``H`` remote holders, storage jitter off:

==========================================================  ========
client request + reply                                             2
coordinator's pending manifest and its own fragment: tier +
metadata write each, under the wave                                4
per holder, one ``ec_prewrite`` batch: request, reply, watched
finish, and the fragment's and the manifest's tier + metadata
writes side by side; the manifest's merge (a child process) is
joined, one event, only when it outlasts the fragment's       H(7 + J)
----------------------------------------------------------  --------
total                                                       6 + H(7 + J)
==========================================================  ========

``J`` is 1 when the manifest is the longer write (a fragment shorter than
it), else 0.  The finalise wave that settles behind the ack is one batch
per holder, and waiting for the process that settles it a watched
finish: ``3H + 1``.

``WieraClient.refresh`` is one waited-on RPC with a service time: 3.  A
client told of a newer map epoch by ``N`` replies refreshes once: ``N``
ops plus one refresh.

``TieraInstance.sync_to`` of ``N`` stale keys in ``B`` batches is the
peer's ``digest`` (request, service time, reply: 3), one tier read per
key, and a batch RPC per batch with a tier and a metadata write per entry
applied at the peer: ``3 + N + 3B + 2N`` events and ``2 + 2B`` messages.
A peer already current costs the digest alone.

An open-loop cohort op is its arrival timer plus the get or put above:
launching it (``ClientCohort._launch`` is a ``sim.process()``) and its
completion (nobody watches a cohort op) cost nothing.

A transmit is one event whether or not the sender's egress link is finite
(the instance's reply leaves through a 31 MB/s ``t2.micro`` link; the
client's is unmetered), and passing the instance's open gate costs none.

A transfer crosses its egress link in segments of at most
``SEGMENT_BYTES`` (128 KiB) and costs one event per segment: ``S`` for a
transfer of ``S`` segments, so 1 — every row above — for a message that
fits in one.  A flush whose per-peer envelope spans ``S`` segments is
``P * (3 + (S - 1) + 2 * N)``.
"""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    GlobalPolicySpec,
    RedundancySpec,
    RegionPlacement,
    build_deployment,
)
from repro.ec.codec import Codec
from repro.load import CohortSpec
from repro.net.link import SEGMENT_BYTES
from repro.net.network import Network
from repro.net.topology import EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy
from repro.workloads.ycsb import YcsbWorkload
from tests.test_load import OffsetArrivals

N = 25
DRIVER = 0            # the driving process: started by the call, unwatched
PER_GET = 3
PER_PUT = 4
WATCHED_FINISH = 1    # all that a call run as a process adds
PER_BATCH = 2 + WATCHED_FINISH  # a batch RPC: request, reply, as a process
PER_APPLY = 2         # a replica update at the peer: tier + metadata write
PER_REFRESH = 3       # WieraClient.refresh: request, service time, reply
PER_ARRIVAL = 1       # an open-loop cohort's inter-arrival timer
PER_DIGEST = 3        # a digest RPC: request, service time, reply
PER_READ = 1          # reading one key's latest version off the tier


def per_ec_put(holders: int, manifest_last: bool) -> int:
    """One EC put (module docstring, third table)."""
    return 6 + holders * (PER_BATCH + 2 * PER_APPLY + manifest_last)


def per_locked_put(peers: int) -> int:
    """One multi_primaries put (module docstring, second table)."""
    return 14 + peers * (2 + PER_APPLY + WATCHED_FINISH)


def deploy(regions, consistency="eventual", shards=1, **spec_kwargs):
    dep = build_deployment(regions, seed=7, shards=shards)
    spec = GlobalPolicySpec(
        name="budget",
        placements=tuple(RegionPlacement(region, memory_only_policy())
                         for region in regions),
        # Park the replication flush timer: nothing but the measured
        # operations runs inside the measured windows.
        consistency=consistency, queue_interval=3600.0, **spec_kwargs)
    if shards > 1:
        handle = dep.start_sharded_instance("budget", spec)
        return dep, dep.add_client(US_EAST, sharded=handle, name="app")
    instances = dep.start_wiera_instance("budget", spec)
    client = dep.add_client(US_EAST, instances=instances, name="app")
    return dep, client


@pytest.fixture
def deployment():
    return deploy([US_EAST, US_WEST])


def events(dep, generator) -> int:
    before = dep.sim.events_processed
    dep.drive(generator)
    return dep.sim.events_processed - before


def segments(nbytes: int) -> int:
    """Segments, hence events, one transfer of ``nbytes`` costs."""
    return max(1, -(-nbytes // SEGMENT_BYTES))


@pytest.mark.parametrize("nbytes", [0, 1, SEGMENT_BYTES, SEGMENT_BYTES + 1,
                                    2 * SEGMENT_BYTES, 5 * SEGMENT_BYTES - 1,
                                    5 * SEGMENT_BYTES + 1])
def test_a_transfer_costs_one_event_per_segment(deployment, nbytes):
    dep, _client = deployment
    src = dep.instance("budget", US_EAST).host
    dst = dep.instance("budget", US_WEST).host
    cost = events(dep, dep.network.transmit(src, dst, nbytes))
    assert cost == DRIVER + segments(nbytes)
    assert (cost == 1) == (nbytes <= SEGMENT_BYTES)


def test_exact_events_per_put_and_per_get(deployment):
    dep, client = deployment
    instance = dep.instance("budget", US_EAST)
    assert instance.host.egress.rate != float("inf")    # a metered link

    def puts():
        for i in range(N):
            yield from client.put(f"key-{i}", bytes(1024))

    def gets():
        for i in range(N):
            yield from client.get(f"key-{i}")

    assert events(dep, puts()) == DRIVER + N * PER_PUT
    assert events(dep, gets()) == DRIVER + N * PER_GET
    # Every operation costs the same: no event is amortised or deferred.
    assert events(dep, client.get("key-0")) == DRIVER + PER_GET
    assert events(dep, client.put("key-0", b"again")) == DRIVER + PER_PUT


#: Python calls under ``src/repro`` — ``sys.setprofile`` "call" events,
#: so each resume of a generator frame counts — of one put and one get in
#: the world above, driver included, as measured on CPython 3.11: a
#: ceiling (3.12 inlines comprehensions, PEP 709, and counts fewer).
CALLS_PER_PUT = 109
CALLS_PER_GET = 79


def python_calls(dep, generator) -> int:
    src = str(Path(repro.__file__).parent)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(src):
            calls += 1
    sys.setprofile(profile)
    try:
        dep.drive(generator)
    finally:
        sys.setprofile(None)
    return calls


def test_python_calls_per_put_and_per_get(deployment):
    """The host cost beside the event budget: a call on the path every
    message takes (a property read, a no-op span, a frame that only
    forwards) fails here."""
    dep, client = deployment
    dep.drive(client.put("key", bytes(1024)))   # first-use setup aside
    dep.drive(client.get("key"))
    assert python_calls(dep, client.put("key", bytes(1024))) <= CALLS_PER_PUT
    assert python_calls(dep, client.get("key")) <= CALLS_PER_GET


@pytest.mark.parametrize("read_prop, per_op", [(1.0, PER_GET),
                                               (0.0, PER_PUT)])
def test_open_loop_cohort_op_is_its_arrival_plus_the_op(deployment,
                                                        read_prop, per_op):
    dep, client = deployment
    records = 5

    def preload():
        for i in range(records):
            yield from client.put(f"user{i}", bytes(64))
    dep.drive(preload())

    # Arrivals 2 ms apart against ~1 ms operations, then 0.5 ms apart so
    # that operations overlap: the count is per op either way.
    offsets = [0.002 * (i + 1) for i in range(N)]
    offsets += [offsets[-1] + 0.0005 * (i + 1) for i in range(N)]
    cohort = dep.add_cohort(
        CohortSpec(name="budget", region=US_EAST,
                   arrivals=OffsetArrivals(offsets),
                   workload=YcsbWorkload(record_count=records, value_size=64,
                                         read_prop=read_prop,
                                         update_prop=1.0 - read_prop,
                                         distribution="uniform")),
        instances=dep.wiera.get_instances("budget"))
    before = dep.sim.events_processed
    cohort.start()
    dep.sim.run(until=dep.sim.now + 1.0)
    report = cohort.report()
    assert report["achieved"] == report["offered"] == 2 * N
    assert report["errors"] == 0 and report["peak_in_flight"] > 1
    # Nothing for the cohort's own process, a launch or a completion.
    assert dep.sim.events_processed - before == 2 * N * (PER_ARRIVAL + per_op)


def test_closed_gate_adds_one_event_per_queued_request(deployment):
    dep, client = deployment
    sim = dep.sim
    dep.drive(client.put("key", b"value"))
    instance = dep.instance("budget", US_EAST)
    waiting = 3

    instance.gate.close()
    before = sim.events_processed
    calls = [sim.process(client.get("key")) for _ in range(waiting)]
    sim.run(until=sim.now + 1.0)
    assert instance.gate.queued == waiting
    assert not any(call.processed for call in calls)

    instance.gate.open()
    sim.run(until=sim.now + 1.0)
    assert all(call.processed for call in calls)
    # Each get ran as its own (unwatched) process; the one extra event
    # apiece is the gate's release.
    assert sim.events_processed - before == waiting * (PER_GET + 1)


@pytest.mark.parametrize("regions", [(US_EAST, US_WEST),
                                     (US_EAST, US_WEST, EU_WEST)])
@pytest.mark.parametrize("pending", [1, 2, N])
def test_flush_is_one_batch_per_peer(regions, pending):
    """A lazy flush costs one batch RPC per peer however many keys are
    pending; only applying the entries at the peer scales with them."""
    dep, client = deploy(regions)
    peers = len(regions) - 1

    def puts():
        for i in range(pending):
            yield from client.put(f"key-{i}", bytes(1024))
    dep.drive(puts())
    instance = dep.instance("budget", US_EAST)
    queue = instance.protocol.queue_for(instance)
    assert len(queue.pending) == pending

    messages = dep.metric_total("net.messages")
    flush = events(dep, queue.flush())
    assert dep.metric_total("net.messages") - messages == 2 * peers
    assert flush == DRIVER + peers * (PER_BATCH + pending * PER_APPLY)
    assert queue.batches == peers
    if pending == peers == 1:
        # A batch of one is the RPC a put is, run as a process.
        assert flush - DRIVER == PER_PUT + WATCHED_FINISH


@pytest.mark.parametrize("regions", [(US_EAST, US_WEST),
                                     (US_EAST, US_WEST, EU_WEST)])
@pytest.mark.parametrize("pending, spans", [(2, 2), (8, 5)])
def test_flush_spanning_segments_adds_one_event_per_extra_segment(
        regions, pending, spans, monkeypatch):
    """The same flush with 64 KB values: the envelope to each peer no
    longer fits in one segment, and each extra segment is one event."""
    dep, client = deploy(regions)
    peers = len(regions) - 1

    def puts():
        for i in range(pending):
            yield from client.put(f"key-{i}", bytes(64 * 1024))
    dep.drive(puts())
    instance = dep.instance("budget", US_EAST)
    queue = instance.protocol.queue_for(instance)

    sent = []
    admit = dep.network._admit

    def admit_and_note(src, dst, nbytes):
        sent.append(nbytes)
        admit(src, dst, nbytes)
    monkeypatch.setattr(dep.network, "_admit", admit_and_note)
    flush = events(dep, queue.flush())
    assert sorted(map(segments, sent)) == [1] * peers + [spans] * peers
    assert flush == DRIVER + peers * (PER_BATCH + (spans - 1)
                                      + pending * PER_APPLY)
    assert dep.metric_total("net.chunks") == peers * spans


@pytest.mark.parametrize("regions", [(US_EAST, US_WEST),
                                     (US_EAST, US_WEST, EU_WEST)])
def test_exact_events_per_multi_primaries_put(regions):
    dep, client = deploy(regions, consistency="multi_primaries")
    peers = len(regions) - 1

    def puts():
        for i in range(N):
            yield from client.put(f"key-{i % 5}", bytes(1024))

    assert events(dep, puts()) == DRIVER + N * per_locked_put(peers)
    assert events(dep, client.put("key-0", b"again")) \
        == DRIVER + per_locked_put(peers)
    # Reads take no lock: the plain get.
    assert events(dep, client.get("key-0")) == DRIVER + PER_GET


@pytest.mark.parametrize("size, manifest_last", [(1024, False), (2, True)])
def test_exact_events_per_ec_put(size, manifest_last):
    """A holder's two writes overlap: the put costs the serial apply's
    events, plus one per holder where the manifest lands last."""
    regions = (US_EAST, US_WEST, EU_WEST)
    dep, client = deploy(regions, redundancy=RedundancySpec(k=2, m=1))
    for rec in dep.tim("budget").instances.values():
        for backend in rec.instance.tiers.values():
            backend._rng = None          # jitter off
    coordinator = dep.instance("budget", US_EAST)
    holders = len(regions) - 1

    for i in range(N):
        key = f"key-{i}"
        assert events(dep, client.put(key, bytes(size))) \
            == DRIVER + per_ec_put(holders, manifest_last)
        settle = coordinator.protocol._after_unsettled(coordinator, key)
        assert events(dep, settle) \
            == DRIVER + holders * PER_BATCH + WATCHED_FINISH
    manifest = dep.drive(coordinator.read_version("key-0", 1))[0]
    assert (len(manifest) > Codec.fragment_length(size, 2)) == manifest_last


#: a replica update of a 1 KiB value on the wire: its fixed part and bytes
UPDATE_BYTES = 512 + 1024


@pytest.mark.parametrize("bound, per_batch", [(0.0, 1),
                                              (4 * UPDATE_BYTES, 4)])
def test_exact_cost_of_sync_to(bound, per_batch):
    """The one catch-up path: the digest pair, then the stale keys in
    size-bounded batches; a peer already current costs the digest only."""
    dep, client = deploy([US_EAST, US_WEST])

    def puts():
        for i in range(N):
            yield from client.put(f"key-{i}", bytes(1024))
    dep.drive(puts())     # the parked queue keeps them from US West
    east = dep.instance("budget", US_EAST)
    west = dep.instance("budget", US_WEST)
    batches = -(-N // per_batch)

    messages = dep.metric_total("net.messages")
    cost = events(dep, east.sync_to(west.node, batch_bytes=bound))
    assert dep.metric_total("net.messages") - messages == 2 + 2 * batches
    assert cost == DRIVER + PER_DIGEST + N * PER_READ + (
        batches * PER_BATCH + N * PER_APPLY)
    assert len(west.key_state()) == N

    messages = dep.metric_total("net.messages")
    assert events(dep, east.sync_to(west.node, batch_bytes=bound)) \
        == DRIVER + PER_DIGEST
    assert dep.metric_total("net.messages") - messages == 2


def refreshes(dep, client) -> int:
    return dep.metric_total("router.refreshes", client=client.node.name)


def test_exact_events_per_router_refresh():
    dep, client = deploy([US_EAST, US_WEST], shards=2)
    assert events(dep, client.refresh()) == DRIVER + PER_REFRESH
    assert refreshes(dep, client) == 1


def test_a_newer_epoch_heard_n_times_refreshes_once():
    """Membership changes published while the client holds an older
    epoch: every get names the new one, and only the first one's reply
    costs a refresh, which is not booked in its latency."""
    dep, client = deploy([US_EAST, US_WEST])
    dep.drive(client.put("key", bytes(1024)))
    dep.drive(dep.tim("budget")._publish())
    start = dep.sim.now
    result = dep.drive(client.get("key"))
    assert result["latency"] < dep.sim.now - start
    assert client.map.epoch == 2 and refreshes(dep, client) == 1

    dep.drive(dep.tim("budget")._publish())

    def gets():
        for _ in range(N):
            yield from client.get("key")
    assert events(dep, gets()) == DRIVER + N * PER_GET + PER_REFRESH
    assert client.map.epoch == 3 and refreshes(dep, client) == 2


#: Exact wire cost of one 1 KB put and of one get of it, per protocol:
#: ``(net.bytes, net.messages)``, every message the op puts on the wire.
#: The client is in us-east; ``primary_backup`` (sync) has its primary in
#: us-west, so the put goes through a backup and is forwarded.  An EC put
#: sends each remote holder one ``ec_prewrite`` entry, its fragment and
#: the manifest under one 512 B base (two ``replica_update`` entries
#: before: 7330 - 2 * 512 = 6306), and counts its finalise wave, which
#: settles behind the ack: one 64 B ``finalise`` entry per remote holder.
WIRE_BUDGET = {
    "eventual": ((1600, 2), (1600, 2)),
    "primary_backup": ((5312, 6), (1600, 2)),
    "multi_primaries": ((5184, 10), (1600, 2)),
    "ec(2,1)": ((6306, 10), (2880, 4)),
}


@pytest.mark.parametrize("protocol", sorted(WIRE_BUDGET))
def test_exact_wire_bytes_per_put_and_per_get(protocol):
    """A byte budget beside the event budget: the message sizes of the
    plain put and get paths, pinned so a change to what a message costs
    on the wire is a decision, not a drift."""
    if protocol == "ec(2,1)":
        regions = (US_EAST, US_WEST, EU_WEST)
        consistency, extra = "eventual", {"redundancy": RedundancySpec(k=2,
                                                                       m=1)}
    else:
        regions, consistency, extra = (US_EAST, US_WEST), protocol, {}
    dep = build_deployment(regions, seed=7)
    spec = GlobalPolicySpec(
        name="wire",
        placements=tuple(
            RegionPlacement(region, memory_only_policy(),
                            primary=(region == US_WEST
                                     and consistency == "primary_backup"))
            for region in regions),
        consistency=consistency, queue_interval=3600.0, **extra)
    instances = dep.start_wiera_instance("wire", spec)
    client = dep.add_client(US_EAST, instances=instances, name="app")

    coordinator = dep.instance("wire", US_EAST)

    def wire(op):
        before = (dep.metric_total("net.bytes"),
                  dep.metric_total("net.messages"))
        dep.drive(op)
        if extra:       # the EC put's finalise wave
            dep.drive(coordinator.protocol._after_unsettled(coordinator, "k"))
        return (dep.metric_total("net.bytes") - before[0],
                dep.metric_total("net.messages") - before[1])

    put_budget, get_budget = WIRE_BUDGET[protocol]
    assert wire(client.put("k", bytes(1024))) == put_budget
    assert wire(client.get("k")) == get_budget


def test_no_waited_on_call_is_a_process():
    """``yield node.call(...)`` buys a process the caller has no use for:
    in ``src/`` a call that is waited on straight away is
    ``yield from node.invoke(...)``."""
    src = Path(__file__).resolve().parents[1] / "src"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Yield)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "call"):
                offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert not offenders, offenders


def test_no_option_selects_or_disables_segmentation():
    """``chunk_bytes`` was the opt-in fork (default off) that segmentation
    replaced; the segment size is a constant, not a parameter."""
    root = Path(__file__).resolve().parents[1]
    texts = sorted((root / "src").rglob("*.py")) + [root / "README.md",
                                                    root / "DESIGN.md"]
    offenders = [str(path.relative_to(root)) for path in texts
                 if "chunk_bytes" in path.read_text()]
    assert not offenders, offenders
    assert list(inspect.signature(Network).parameters) == ["sim", "topology"]
