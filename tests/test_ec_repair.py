"""EC fragment repair: guarantees, failure counters, races, stop().

There is one repair strategy (``repro.ec.repair``): a windowed manifest
scan → parallel probe → batched ``check_readable`` → a window of
``repair_concurrency`` object repairs, each installed by holder-local
``reconstruct_fragment`` → one ``manifest_remap`` request of deltas per
peer, applied there through a window.  ``repair_concurrency=1`` is a
window of one.  These tests pin what a round *guarantees* — not the order
it does it in — and run every scenario at both window widths; the last
ones pin, on s3, that the scan and the remap apply are windows.
"""

from __future__ import annotations

import math

import pytest

from repro.bench.harness import build_deployment
from repro.core.global_policy import (GlobalPolicySpec, RedundancySpec,
                                      RegionPlacement)
from repro.ec.protocol import decode_manifest, fragment_key
from repro.net.topology import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.net.network import Network
from repro.sim.rpc import BATCH_METHOD, RpcNode
from repro.storage.backend import CapacityExceededError
from repro.tiera.policy import disk_only_policy, memory_only_policy
from tests.quiescence import settle

REGIONS = (US_EAST, US_WEST, EU_WEST, ASIA_EAST)
#: six (region, provider) sites: n=4 fragment holders + two spares
SITES = ((US_EAST, "aws"), (US_WEST, "aws"), (EU_WEST, "aws"),
         (ASIA_EAST, "aws"), (US_EAST, "gcp"), (US_WEST, "gcp"))
PROVIDERS = {US_EAST: ("aws", "gcp"), US_WEST: ("aws", "gcp"),
             EU_WEST: ("aws",), ASIA_EAST: ("aws",)}

K, M = 2, 2
OBJECTS = 8
VALUE_SIZE = 4096
FRAGMENT_SIZE = VALUE_SIZE // K

WIDTHS = pytest.mark.parametrize("concurrency", [1, 8])


# -- shared scenario --------------------------------------------------------

def _deploy(concurrency: int, repair_interval: float = 1000.0,
            objects: int = OBJECTS, policy=memory_only_policy):
    """Six sites, EC(2,2), ``objects`` objects written from us-east, every
    site on ``policy()``.  Returns the deployment, its TIM, the writer
    client, the payloads, obj0's manifest (every object shares its
    placement) and the repair leader's repairer — the holder of fragment
    0, coordinator of every put."""
    dep = build_deployment(list(REGIONS), providers=PROVIDERS, seed=17)
    spec = GlobalPolicySpec(
        name="ec",
        placements=tuple(
            RegionPlacement(region, policy(), provider=provider)
            for region, provider in SITES),
        consistency="eventual",
        redundancy=RedundancySpec(k=K, m=M, repair_interval=repair_interval,
                                  repair_concurrency=concurrency))
    instances = dep.start_wiera_instance("ec", spec)
    tim = dep.tim("ec")
    client = dep.add_client(US_EAST, instances=instances)
    payloads = {f"obj{i}": bytes([i + 1]) * VALUE_SIZE
                for i in range(objects)}

    def write_phase():
        for key, value in payloads.items():
            yield from client.put(key, value)
    dep.drive(write_phase())
    dep.sim.run(until=dep.sim.now + 1.0)    # the last finalise wave lands

    coordinator = dep.instance("ec", US_EAST)
    manifest = decode_manifest(dep.drive(
        coordinator.read_version("obj0", run_rules=False))[0])
    leader_id = manifest["frags"][0]
    repairer = tim.instances[leader_id].instance.protocol.repairer(leader_id)
    return dep, tim, client, payloads, manifest, repairer


def _crash(dep, tim, victims, duration: float = 5000.0) -> None:
    """Crash the hosts of ``victims`` 0.25 s from now; return 0.5 s on."""
    faults = dep.fault_schedule("scenario")
    for iid in sorted(victims):
        faults.crash(at=dep.sim.now + 0.25,
                     host=tim.instances[iid].instance.host.name,
                     duration=duration)
    faults.start()
    dep.sim.run(until=dep.sim.now + 0.5)


def _drive_round(dep, repairer) -> dict:
    """One driven repair round; returns its network and sim-time cost."""
    before = (dep.metric_total("net.bytes"), dep.metric_total("net.messages"),
              dep.sim.now)
    dep.drive(repairer.repair_round(), name="repair-round")
    return {"bytes": dep.metric_total("net.bytes") - before[0],
            "msgs": dep.metric_total("net.messages") - before[1],
            "seconds": dep.sim.now - before[2]}


def _scenario(concurrency: int, crash_slots=(1,)):
    """``crash_slots`` fragment holders downed (left down), then one
    driven repair round on the leader."""
    dep, tim, client, payloads, manifest, repairer = _deploy(concurrency)
    holders = set(manifest["frags"].values())
    victims = set()
    for slot in crash_slots:
        if slot == "spares":  # every instance not holding a fragment
            victims.update(iid for iid in tim.instances
                           if iid not in holders)
        else:
            victims.add(manifest["frags"][slot])
    _crash(dep, tim, victims)
    repair = _drive_round(dep, repairer)
    return dep, tim, client, repairer, payloads, manifest, repair


def _counters(dep) -> dict:
    return {name: dep.metric_total(f"ec.repair_{name}")
            for name in ("unrepairable", "push_failed", "errors",
                         "superseded")}


def _live(tim) -> dict:
    return {iid: rec.instance for iid, rec in tim.instances.items()
            if not rec.instance.host.down}


@pytest.fixture
def rpc_log(monkeypatch):
    """``(src, dst, method)`` of every RPC issued from here on, batch
    envelopes flattened to their entries' methods."""
    log: list = []
    original = RpcNode._call

    def spy(self, dst, method, args, *rest):
        methods = ([entry[0] for entry in args["entries"]]
                   if method == BATCH_METHOD else [method])
        log.extend((self.name, dst.name, m) for m in methods)
        return original(self, dst, method, args, *rest)
    monkeypatch.setattr(RpcNode, "_call", spy)
    return log


#: every RPC the repair plane can issue past probing and checking
REPAIR_TRAFFIC = {"reconstruct_fragment", "peer_get", "replica_update",
                  "manifest_remap"}


# -- behavioural golden -----------------------------------------------------

@pytest.fixture(scope="module")
def reference():
    """The W=8 outcome every width must land on (timing-free store
    digest, rebuild count, repair bytes moved) and its round time."""
    dep, _, _, repairer, _, _, repair = _scenario(8)
    return {"digest": dep.store_digest(detail=False),
            "rebuilt": repairer.fragments_rebuilt,
            "moved": dep.metric_total("ec.repair_bytes_moved"),
            "seconds": repair["seconds"]}


@WIDTHS
def test_round_restores_every_guarantee(concurrency, reference, rpc_log):
    """One holder lost for good: a single round re-establishes full
    redundancy, observably, at any window width."""
    dep, tim, _, repairer, payloads, manifest, repair = _scenario(concurrency)
    crashed = manifest["frags"][1]
    live = _live(tim)
    assert crashed not in live and len(live) == len(SITES) - 1

    # Exactly the lost fragments were rebuilt, with nothing given up on,
    # and the round was real work on the wire.
    assert repairer.fragments_rebuilt == OBJECTS
    assert dep.metric_total("ec.fragments_rebuilt") == OBJECTS
    assert _counters(dep) == {"unrepairable": 0, "push_failed": 0,
                              "errors": 0, "superseded": 0}
    assert repair["msgs"] > 50 and repair["bytes"] > OBJECTS * VALUE_SIZE

    leader = repairer.instance
    for key, value in payloads.items():
        # Every object decodes to its last-written payload, cleanly,
        # coordinated from every live instance.
        for iid, inst in live.items():
            res = dep.drive(inst.protocol.on_get(inst, key))
            assert res["data"] == value, (key, iid)
            assert not res["degraded"], (key, iid)
        # All live instances hold byte-identical manifests ...
        copies = {iid: dep.drive(inst.read_version(key, run_rules=False))[0]
                  for iid, inst in live.items()}
        assert len(set(copies.values())) == 1, (key, copies)
        doc = decode_manifest(copies[leader.instance_id])
        # ... naming n distinct live holders ...
        holders = doc["frags"]
        assert sorted(holders) == list(range(K + M)), key
        assert len(set(holders.values())) == K + M, (key, holders)
        assert set(holders.values()) <= set(live), (key, holders)
        # ... each of which really has its fragment's bytes.
        for idx, holder in holders.items():
            item = (fragment_key(key, idx), 1)
            if holder == leader.instance_id:
                assert leader.readable(*item), item
            else:
                res = dep.sim.run(until=leader.node.call(
                    live[holder].node, "check_readable", {"items": [item]}))
                assert res["missing"] == [], (item, holder)

    # Same outcome as the reference width: placement, bytes and counters
    # do not depend on how many objects were in flight.
    assert dep.store_digest(detail=False) == reference["digest"]
    assert repairer.fragments_rebuilt == reference["rebuilt"]
    assert dep.metric_total("ec.repair_bytes_moved") == reference["moved"] > 0

    # A second round finds nothing to fix and asks nobody to rebuild.
    del rpc_log[:]
    dep.drive(repairer.repair_round(), name="verify-round")
    assert REPAIR_TRAFFIC.isdisjoint(m for _, _, m in rpc_log)
    assert repairer.fragments_rebuilt == OBJECTS
    assert dep.store_digest(detail=False) == reference["digest"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a holder down through the round that re-homed its slot keeps the "
    "pre-repair manifest once it is back: a remap goes only to the peers "
    "alive in its round, and no later round sends it"))
def test_a_holder_back_after_the_round_is_quiescent():
    dep = _scenario(8)[0]
    assert settle(dep, dep.faults) == []


def test_wider_window_overlaps_repairs(reference):
    assert reference["seconds"] < _scenario(1)[-1]["seconds"] / 2


# -- the install paths ------------------------------------------------------

@WIDTHS
def test_remote_target_rebuilds_holder_locally(concurrency):
    """The spare pulls k fragments itself; the leader relays no fragment
    bytes and peers learn the new holder from a remap delta."""
    dep, tim, _, repairer, _, manifest, _ = _scenario(concurrency)
    spare = decode_manifest(dep.drive(repairer.instance.read_version(
        "obj0", run_rules=False))[0])["frags"][1]
    assert spare not in manifest["frags"].values()
    assert (dep.metric_total("ec.repair_bytes_moved")
            == OBJECTS * K * FRAGMENT_SIZE)
    frag = dep.drive(tim.instances[spare].instance.read_version(
        fragment_key("obj0", 1), run_rules=False))[0]
    assert len(frag) == FRAGMENT_SIZE


@WIDTHS
def test_leaders_own_fragment_rebuilt_in_place(concurrency, rpc_log):
    """The leader's host restarts with its memory tier wiped: its own
    fragment is rebuilt through the same reconstruct handler, in-process
    — no reconstruct RPC, no re-homing, no manifest broadcast."""
    dep, tim, client, payloads, manifest, repairer = _deploy(concurrency)
    leader = repairer.instance
    _crash(dep, tim, {leader.instance_id}, duration=0.1)
    assert not leader.host.down
    assert not leader.readable(fragment_key("obj0", 0), 1)

    # The wipe took the leader's manifests too; a read through it heals
    # them (get-path fallback), which is what lets it lead again.
    def read_phase():
        for key, value in payloads.items():
            res = yield from client.get(key)
            assert res["data"] == value and res["degraded"], key
    dep.drive(read_phase())

    del rpc_log[:]
    _drive_round(dep, repairer)
    assert repairer.fragments_rebuilt == OBJECTS
    assert _counters(dep) == {"unrepairable": 0, "push_failed": 0,
                              "errors": 0, "superseded": 0}
    assert (dep.metric_total("ec.repair_bytes_moved")
            == OBJECTS * K * FRAGMENT_SIZE)
    # k pulls per object by the leader itself and nothing else: no
    # reconstruct_fragment round trip, no remap, no push.
    assert ([(src, m) for src, _, m in rpc_log if m in REPAIR_TRAFFIC]
            == [(leader.node.name, "peer_get")] * (OBJECTS * K))
    for key in payloads:
        assert leader.readable(fragment_key(key, 0), 1), key
        doc = decode_manifest(dep.drive(
            leader.read_version(key, run_rules=False))[0])
        assert doc["frags"] == manifest["frags"], key
    assert settle(dep, dep.faults) == []


@WIDTHS
def test_failed_remote_reconstruct_falls_back_to_coordinator(concurrency):
    """A target that fails ``reconstruct_fragment`` for any reason other
    than ``superseded`` is still repaired this round: the leader gathers
    k fragments, rebuilds the row and pushes it."""
    dep, tim, _, payloads, manifest, repairer = _deploy(concurrency)
    _crash(dep, tim, {manifest["frags"][1]})
    protocol = repairer.protocol

    def refuse(instance, args):
        return {"ok": False, "reason": "unrepairable", "pulled": 0}
        yield  # pragma: no cover
    protocol.on_reconstruct_fragment = refuse
    _drive_round(dep, repairer)
    del protocol.on_reconstruct_fragment

    assert repairer.fragments_rebuilt == OBJECTS
    assert _counters(dep) == {"unrepairable": 0, "push_failed": 0,
                              "errors": 0, "superseded": 0}
    # per object: one remote pull (the leader holds fragment 0 itself)
    # plus the pushed rebuilt fragment — all on the leader's counter
    assert (dep.metric_total("ec.repair_bytes_moved")
            == OBJECTS * ((K - 1) + 1) * FRAGMENT_SIZE)
    for key, value in payloads.items():
        spare = decode_manifest(dep.drive(repairer.instance.read_version(
            key, run_rules=False))[0])["frags"][1]
        assert spare not in manifest["frags"].values()
        frag = dep.drive(tim.instances[spare].instance.read_version(
            fragment_key(key, 1), run_rules=False))[0]
        assert len(frag) == FRAGMENT_SIZE
        res = dep.drive(protocol.on_get(repairer.instance, key))
        assert res["data"] == value and not res["degraded"], key


def test_gather_pulls_nearest_first_and_stops_at_k(rpc_log):
    """2-of-4 gather with one local source: exactly one ``peer_get``
    round trip, to the nearest of the three remote holders."""
    dep, tim, _, _, manifest, repairer = _deploy(8)
    leader = repairer.instance
    nearest = next(iid for iid, _ in repairer.protocol.ring(leader)[1:]
                   if iid in manifest["frags"].values())
    nearest_idx = next(i for i, h in manifest["frags"].items()
                       if h == nearest)
    # hand the sources over farthest-first: the helper does the ordering
    sources = sorted(manifest["frags"].items(), reverse=True)

    del rpc_log[:]
    before = dep.metric_total("net.messages")
    available, pulled, _ = dep.drive(repairer.protocol.gather_fragments(
        leader, "obj0", 1, K, VALUE_SIZE, sources))
    assert dep.metric_total("net.messages") - before == 2
    assert rpc_log == [(leader.node.name,
                        tim.instances[nearest].instance.node.name,
                        "peer_get")]
    assert pulled == FRAGMENT_SIZE
    assert sorted(available) == sorted([0, nearest_idx])


def test_gather_replaces_a_dead_source_inside_the_wave(rpc_log):
    """The nearest remote holder is down at send time: the next-nearest
    source joins the same wave — one round trip in all — and the
    drop-out is reported."""
    dep, tim, _, _, manifest, repairer = _deploy(8)
    leader = repairer.instance
    remote = [iid for iid, _ in repairer.protocol.ring(leader)[1:]
              if iid in manifest["frags"].values()]
    slot = {holder: idx for idx, holder in manifest["frags"].items()}
    _crash(dep, tim, {remote[0]})
    nodes = [tim.instances[iid].instance.node for iid in remote[:2]]

    del rpc_log[:]
    started = dep.sim.now
    sources = sorted(manifest["frags"].items())
    available, pulled, degraded = dep.drive(
        repairer.protocol.gather_fragments(
            leader, "obj0", 1, K, VALUE_SIZE, sources))
    assert degraded and pulled == FRAGMENT_SIZE
    assert sorted(available) == sorted([0, slot[remote[1]]])
    assert rpc_log == [(leader.node.name, node.name, "peer_get")
                       for node in nodes]
    assert dep.sim.now - started < dep.network.rtt(leader.host,
                                                   nodes[1].host) + 0.01


# -- attributable failure counters ------------------------------------------

@WIDTHS
def test_unrepairable_counted_distinctly(concurrency):
    """Losing m+1 fragments is unrepairable: counted as such, not as a
    generic skip, and nothing is rebuilt."""
    dep, _, _, repairer, _, _, _ = _scenario(
        concurrency, crash_slots=(1, 2, 3))
    counters = _counters(dep)
    assert counters["unrepairable"] == OBJECTS
    assert counters["push_failed"] == 0
    assert counters["errors"] == 0
    assert repairer.fragments_rebuilt == 0
    assert dep.metric_total("ec.fragments_rebuilt") == 0


@WIDTHS
def test_push_failed_counted_distinctly(concurrency):
    """A lost fragment with no live re-home target is a push failure,
    distinct from unrepairable (the data itself is recoverable)."""
    dep, _, _, repairer, _, manifest, _ = _scenario(
        concurrency, crash_slots=(1, "spares"))
    counters = _counters(dep)
    assert counters["push_failed"] == OBJECTS
    assert counters["unrepairable"] == 0
    assert counters["errors"] == 0
    assert repairer.fragments_rebuilt == 0


@pytest.mark.parametrize("raised, counted", [
    (CapacityExceededError("tier full"), True),
    (TypeError("a bug"), False)], ids=["storage", "bug"])
def test_a_failed_install_is_counted_and_a_bug_propagates(raised, counted):
    """The leader's own fragment is rebuilt in-process; when installing it
    fails with a storage error, the object counts in ``repair_errors``
    and the round goes on to the next one.  Any other exception is a bug,
    and fails the round instead of being counted."""
    dep, tim, client, payloads, _, repairer = _deploy(8)
    leader = repairer.instance
    _crash(dep, tim, {leader.instance_id}, duration=0.1)

    def read_phase():  # heals the leader's manifests (get-path fallback)
        for key in payloads:
            yield from client.get(key)
    dep.drive(read_phase())

    def install(key, *args, **kwargs):
        raise raised
        yield  # pragma: no cover
    leader.local_put = install
    if counted:
        _drive_round(dep, repairer)
        assert dep.metric_total("ec.repair_errors") == OBJECTS
        assert repairer.fragments_rebuilt == 0
    else:
        with pytest.raises(TypeError, match="a bug"):
            _drive_round(dep, repairer)
        assert dep.metric_total("ec.repair_errors") == 0


# -- stop() -----------------------------------------------------------------

@WIDTHS
@pytest.mark.parametrize("into_round", [0.1, 0.45])
def test_stop_halts_a_round_in_flight(concurrency, into_round):
    """``stop()`` mid-round (0.1 s: probes outstanding; 0.45 s: window
    workers waiting on reconstructs) kills the loop and every worker at
    that instant.  The interrupt is not a peer failure: nothing is
    counted, re-homed or rebuilt afterwards, and no further round runs."""
    interval = 20.0  # first round fires well after the writes and crash
    dep, tim, _, _, manifest, repairer = _deploy(concurrency,
                                                 repair_interval=interval)
    _crash(dep, tim, {manifest["frags"][1]})
    assert repairer.rounds == 0
    while repairer.rounds == 0:
        dep.sim.run(until=dep.sim.now + 0.01)
    dep.sim.run(until=dep.sim.now + into_round)
    loop, workers = repairer.loop._proc, list(repairer._workers)
    assert loop.is_alive
    if into_round > 0.4:
        assert workers and all(w.is_alive for w in workers)

    repairer.stop()
    dep.sim.run(until=dep.sim.now)  # deliver the interrupts, no time passes
    assert not loop.is_alive
    assert not any(w.is_alive for w in workers)
    rebuilt = repairer.fragments_rebuilt
    digest = {iid: dep.drive(inst.read_version("obj0", run_rules=False))[0]
              for iid, inst in _live(tim).items()}

    dep.sim.run(until=dep.sim.now + 3 * interval)
    assert repairer.rounds == 1
    assert repairer.fragments_rebuilt == rebuilt < OBJECTS
    assert dep.metric_total("ec.repair_errors") == 0
    # No live holder was re-homed: every manifest copy still names the
    # live holders it named when the round was stopped.
    live = _live(tim)
    for iid, inst in live.items():
        for key in (f"obj{i}" for i in range(OBJECTS)):
            doc = decode_manifest(dep.drive(
                inst.read_version(key, run_rules=False))[0])
            for idx, holder in manifest["frags"].items():
                if holder in live:
                    assert doc["frags"][idx] == holder, (iid, key, idx)
        assert dep.drive(inst.read_version(
            "obj0", run_rules=False))[0] == digest[iid]


# -- repair racing a concurrent write ---------------------------------------

@WIDTHS
def test_version_bump_mid_repair_is_not_resurrected(concurrency):
    """A write racing the repair round must win: the acked new version
    survives, and the repairer abandons the stale version instead of
    reinstalling its fragments."""
    dep, tim, client, _, manifest, repairer = _deploy(concurrency)
    _crash(dep, tim, {manifest["frags"][1]})

    # Fire the overwrite at the exact moment the repairer starts on the
    # raced object — the tightest possible interleaving, deterministic
    # at any window width.
    raced_key = f"obj{OBJECTS - 1}"
    new_value = b"\xEE" * VALUE_SIZE
    put_done: dict = {}

    def racing_put():
        res = yield from client.put(raced_key, new_value)
        put_done["version"] = res["version"]
        put_done["at"] = dep.sim.now

    original = repairer._repair_object

    def hooked(key, *args, **kwargs):
        if key == raced_key and "proc" not in put_done:
            put_done["proc"] = dep.sim.process(racing_put(),
                                               name="racing-put")
        result = yield from original(key, *args, **kwargs)
        return result
    repairer._repair_object = hooked

    round_proc = dep.sim.process(repairer.repair_round(), name="race-round")
    while round_proc.is_alive or ("proc" in put_done
                                  and put_done["proc"].is_alive):
        dep.sim.run(until=dep.sim.now + 0.5)
    assert put_done.get("version") == 2, "racing write was never acked"
    t_put_done = put_done["at"]

    # The acked write survives end-to-end.
    res = dep.drive(client.get(raced_key))
    assert res["data"] == new_value
    assert res["version"] == 2

    # The repairer noticed the bump and walked away from v1.
    assert dep.metric_total("ec.repair_superseded") > 0

    # No stale reinstall: nowhere did a v1 fragment of the raced key get
    # (re)installed after the new version was acknowledged.
    for iid, rec in tim.instances.items():
        inst = rec.instance
        for idx in range(4):
            frecord = inst.meta.get_record(fragment_key(raced_key, idx))
            if frecord is None or not frecord.has_version(1):
                continue
            meta = frecord.versions[1]
            assert meta.last_modified <= t_put_done, (
                f"{iid} resurrected {raced_key}#ecf{idx} v1 at "
                f"{meta.last_modified} (write acked at {t_put_done})")
        # The manifest's latest version is the new write everywhere the
        # record exists on a live host.
        if not inst.host.down:
            record = inst.meta.get_record(raced_key)
            if record is not None:
                assert record.latest_version == 2, iid


# -- the round's windows on an object store ---------------------------------
#
# On s3 every manifest read and rewrite costs tens of milliseconds, so a
# phase that walks the objects one at a time shows in the round's length.
# The scan and the remap apply each run W at a time, like the repairs.

S3_OBJECTS = 32
S3_WIDTH = 8


def _s3_policy():
    return disk_only_policy(profile="s3")


def _timed(instance, method: str, log: list) -> None:
    """Book ``(key, start, end)`` of every ``instance.method`` call of a
    manifest (not a fragment) from here on."""
    original = getattr(instance, method)

    def spy(key, *args, **kwargs):
        start = instance.sim.now
        result = yield from original(key, *args, **kwargs)
        if "#ecf" not in key:
            log.append((key, start, instance.sim.now))
        return result
    setattr(instance, method, spy)


def test_scan_reads_the_manifests_a_window_at_a_time():
    """The leader's scan takes about ceil(N/W) manifest reads, not N."""
    dep, tim, _, _, manifest, repairer = _deploy(
        S3_WIDTH, objects=S3_OBJECTS, policy=_s3_policy)
    reads: list = []
    _timed(repairer.instance, "read_version", reads)
    started = dep.sim.now
    found = dep.drive(repairer._scan_manifests())
    took = dep.sim.now - started

    assert sorted(key for key, _, _ in found) == sorted(
        f"obj{i}" for i in range(S3_OBJECTS))
    assert len(reads) == S3_OBJECTS
    slowest = max(end - start for _, start, end in reads)
    assert took <= (math.ceil(S3_OBJECTS / S3_WIDTH) + 1) * slowest, (
        took, slowest)


def _s3_flush(monkeypatch):
    """One holder crashed, one round on s3: the flush's duration, every
    live peer's manifest rewrites, and the wire's ``(src, dst, bytes,
    method)`` while the flush ran."""
    dep, tim, _, _, manifest, repairer = _deploy(
        S3_WIDTH, objects=S3_OBJECTS, policy=_s3_policy)
    _crash(dep, tim, {manifest["frags"][1]})
    leader = repairer.instance
    peers = [inst for iid, inst in _live(tim).items()
             if iid != leader.instance_id]
    applies: dict = {}
    for peer in peers:
        for method in ("read_version", "local_put"):
            _timed(peer, method, applies.setdefault(peer.instance_id, []))

    wire: list = []
    flush: dict = {}
    transmit, call = Network.transmit, RpcNode._call

    def on_wire(net, src, dst, nbytes):
        if "start" in flush and "end" not in flush:
            wire.append((src.name, dst.name, nbytes))
        return transmit(net, src, dst, nbytes)

    def calling(node, dst, method, *rest):
        if "start" in flush and "end" not in flush:
            flush.setdefault("methods", []).append(
                (node.name, dst.name, method))
        return call(node, dst, method, *rest)
    monkeypatch.setattr(Network, "transmit", on_wire)
    monkeypatch.setattr(RpcNode, "_call", calling)

    original = repairer._flush_remaps

    def timed_flush(*args):
        flush["start"] = dep.sim.now
        yield from original(*args)
        flush["end"] = dep.sim.now
    repairer._flush_remaps = timed_flush
    dep.drive(repairer.repair_round(), name="repair-round")
    assert repairer.fragments_rebuilt == S3_OBJECTS
    return dep, leader, peers, applies, wire, flush


def test_flush_applies_each_peers_deltas_a_window_at_a_time(monkeypatch):
    """Each peer rewrites its N manifests W at a time: the flush takes
    about ceil(N/W) rewrites past the farthest peer's round trip."""
    dep, leader, peers, applies, _, flush = _s3_flush(monkeypatch)
    # one delta's cost at a peer: its manifest's read and rewrite
    per_delta = []
    for peer in peers:
        spans: dict = {}
        for key, start, end in applies[peer.instance_id]:
            first, last = spans.get(key, (start, end))
            spans[key] = (min(first, start), max(last, end))
        assert len(spans) == S3_OBJECTS, peer.instance_id
        per_delta += [end - start for start, end in spans.values()]
    rtt = max(dep.network.rtt(leader.host, peer.host) for peer in peers)
    slowest = rtt + max(per_delta)
    took = flush["end"] - flush["start"]
    assert took <= (math.ceil(S3_OBJECTS / S3_WIDTH) + 1) * slowest, (
        took, slowest)


def test_flush_is_one_remap_request_per_live_peer(monkeypatch):
    """The round's deltas travel as one ``manifest_remap`` request per
    live peer — 256 B of envelope plus 64 B per delta — answered by one
    320 B reply, and nothing else crosses the wire for them."""
    dep, leader, peers, _, wire, flush = _s3_flush(monkeypatch)
    hosts = {peer.host.name: peer for peer in peers}
    # heartbeats share the wire: every call but the TSM's ping ...
    assert sorted(row for row in flush["methods"]
                  if row[2] != "ping") == sorted(
        (leader.node.name, peer.node.name, "manifest_remap")
        for peer in peers)
    # ... and the leader <-> peer messages
    mine = [(src, dst, n) for src, dst, n in wire
            if leader.host.name in (src, dst)
            and (src in hosts or dst in hosts)]
    assert sorted(mine) == sorted(
        [(leader.host.name, host, 256 + 64 * S3_OBJECTS) for host in hosts]
        + [(host, leader.host.name, 320) for host in hosts])


def test_stop_during_the_scan_leaves_no_reader_alive():
    """``stop()`` while the scan's readers wait on s3 ends every reader
    and the loop at that instant; nothing is rebuilt afterwards."""
    interval = 20.0
    dep, tim, _, _, manifest, repairer = _deploy(
        S3_WIDTH, repair_interval=interval, objects=S3_OBJECTS,
        policy=_s3_policy)
    _crash(dep, tim, {manifest["frags"][1]})
    while repairer.rounds == 0:
        dep.sim.run(until=dep.sim.now + 0.001)
    dep.sim.run(until=dep.sim.now + 0.01)  # one s3 read takes ~25 ms
    loop, readers = repairer.loop._proc, list(repairer._workers)
    assert len(readers) == S3_WIDTH
    assert all(r.is_alive and "-r" in r.name for r in readers)

    repairer.stop()
    dep.sim.run(until=dep.sim.now)
    assert not loop.is_alive
    assert not any(r.is_alive for r in readers)
    dep.sim.run(until=dep.sim.now + 3 * interval)
    assert repairer.rounds == 1 and repairer.fragments_rebuilt == 0
