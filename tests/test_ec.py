"""Integration tests for the erasure-coded redundancy plane (repro.ec)."""

from dataclasses import replace

import pytest

from repro import (GlobalPolicySpec, RedundancySpec, RegionPlacement,
                   build_deployment)
from repro.core.consistency.base import ProtocolError
from repro.ec.codec import Codec
from repro.ec import optimizer as ec_optimizer
from repro.ec.optimizer import RedundancyOptimizer
from repro.ec.protocol import ECProtocol, decode_manifest, fragment_key
from repro.ec.repair import ECRepairer
from repro.net import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.obs.check import check
from repro.sim.kernel import Interrupt
from repro.sim.rpc import BATCH_METHOD, RpcNode
from repro.storage.backend import StorageError
from repro.tiera.policy import disk_only_policy, memory_only_policy
from repro.workloads.ycsb import YcsbClient, YcsbWorkload
from tests.quiescence import settle

REGIONS = (US_EAST, US_WEST, EU_WEST, ASIA_EAST)


def deploy(redundancy, regions=REGIONS, seed=7, **build_kwargs):
    dep = build_deployment(list(regions), seed=seed, **build_kwargs)
    spec = GlobalPolicySpec(
        name="ec",
        placements=tuple(RegionPlacement(r, memory_only_policy())
                         for r in regions),
        consistency="eventual",
        redundancy=redundancy)
    instances = dep.start_wiera_instance("ec", spec)
    return dep, instances


class TestSpecValidation:
    def test_defaults_are_replication(self):
        spec = RedundancySpec()
        assert (spec.k, spec.m) == (1, 2)

    def test_invalid_schemes_rejected(self):
        with pytest.raises(ValueError):
            RedundancySpec(k=0)
        with pytest.raises(ValueError):
            RedundancySpec(m=-1)
        with pytest.raises(ValueError):
            RedundancySpec(k=200, m=100)
        with pytest.raises(ValueError):
            RedundancySpec(overrides=(("hot/", 0, 2),))
        with pytest.raises(ValueError):
            RedundancySpec(repair_interval=0.0)

    def test_needs_enough_placements(self):
        with pytest.raises(ValueError, match="needs 4 placements"):
            GlobalPolicySpec(
                name="x",
                placements=(RegionPlacement(US_EAST, memory_only_policy()),),
                redundancy=RedundancySpec(k=2, m=2))

    def test_incompatible_combinations(self):
        placements = tuple(RegionPlacement(r, memory_only_policy(),
                                           primary=(r == US_EAST))
                           for r in REGIONS)
        with pytest.raises(ValueError, match="primary_backup"):
            GlobalPolicySpec(name="x", placements=placements,
                             consistency="primary_backup",
                             redundancy=RedundancySpec())


class TestRedundancyNoneBitIdentical:
    def test_none_matches_default_run(self):
        """redundancy=None must construct nothing: a run with the explicit
        None and a run without the kwarg are event-for-event identical."""
        def one(explicit_none):
            regions = REGIONS[:2]
            spec_kwargs = {"redundancy": None} if explicit_none else {}
            dep = build_deployment(list(regions), seed=7)
            spec = GlobalPolicySpec(
                name="ec",
                placements=tuple(RegionPlacement(r, memory_only_policy())
                                 for r in regions),
                consistency="eventual", **spec_kwargs)
            instances = dep.start_wiera_instance("ec", spec)
            client = dep.add_client(US_EAST, instances=instances)

            def app():
                for i in range(10):
                    yield from client.put(f"k{i}", bytes([i]) * 64)
                    yield from client.get(f"k{i}")
            dep.drive(app())
            dep.sim.run(until=dep.sim.now + 5)
            return (dep.sim.now, dep.sim.events_processed,
                    dep.metric_total("net.messages"),
                    dep.metric_total("net.bytes"))

        assert one(False) == one(True)

    def test_no_ec_metrics_without_spec(self):
        dep, instances = deploy(None, regions=REGIONS[:2])
        client = dep.add_client(US_EAST, instances=instances)
        dep.drive(client.put("k", b"v"))
        assert dep.metric_total("ec.puts") == 0
        assert dep.metric_total("ec.fragments_written") == 0


class TestECDataPath:
    def test_round_trip_all_regions(self):
        dep, instances = deploy(RedundancySpec(k=2, m=2))
        payloads = {f"obj{i}": bytes([i]) * (50 + 31 * i) for i in range(6)}
        writer = dep.add_client(US_EAST, instances=instances)
        reader = dep.add_client(EU_WEST, instances=instances)

        def app():
            for key, value in payloads.items():
                yield from writer.put(key, value)
            for key, value in payloads.items():
                res = yield from reader.get(key)
                assert res["data"] == value
                assert not res["degraded"]
        dep.drive(app())
        assert dep.metric_total("ec.puts") == 6
        assert dep.metric_total("ec.fragments_written") == 24
        assert dep.metric_total("ec.degraded_reads") == 0

    def test_fragments_on_distinct_instances(self):
        dep, instances = deploy(RedundancySpec(k=2, m=2))
        client = dep.add_client(US_EAST, instances=instances)
        dep.drive(client.put("obj", b"z" * 400))
        tim = dep.tim("ec")
        inst = dep.instance("ec", US_EAST, "aws")
        data = dep.drive(inst.read_version("obj", run_rules=False))[0]
        manifest = decode_manifest(data)
        assert manifest["k"] == 2 and manifest["m"] == 2
        holders = list(manifest["frags"].values())
        assert len(holders) == 4 and len(set(holders)) == 4
        # each holder actually stores its fragment bytes
        for idx, iid in manifest["frags"].items():
            holder = tim.instances[iid].instance
            frag, _, _ = dep.drive(holder.read_version(
                fragment_key("obj", idx), run_rules=False))
            assert len(frag) == 200  # ceil(400 / k=2)

    def test_stored_bytes_shrink_vs_replication(self):
        """EC(2,2) stores n/k = 2x the payload; EC(1,2) (3x replication)
        stores 3x — the whole point of the plane."""
        def stored(spec):
            dep, instances = deploy(spec, seed=3)
            client = dep.add_client(US_EAST, instances=instances)

            def app():
                for i in range(8):
                    yield from client.put(f"k{i}", b"x" * 4096)
            dep.drive(app())
            tim = dep.tim("ec")
            total = 0
            for rec in tim.instances.values():
                for backend in rec.instance.tiers.values():
                    total += backend.used_bytes
            return total

        rep = stored(RedundancySpec(k=1, m=2))
        ec = stored(RedundancySpec(k=2, m=2))
        # manifests add a small constant per object; fragment payloads
        # dominate: 3x vs 2x within a 10% manifest allowance
        assert ec < rep * 0.75

    def test_scheme_override_per_prefix(self):
        dep, instances = deploy(
            RedundancySpec(k=2, m=2, overrides=(("hot/", 1, 2),)))
        client = dep.add_client(US_EAST, instances=instances)

        def app():
            r1 = yield from client.put("hot/a", b"h" * 300)
            r2 = yield from client.put("cold/a", b"c" * 300)
            assert tuple(r1["scheme"]) == (1, 2)
            assert tuple(r2["scheme"]) == (2, 2)
            res = yield from client.get("hot/a")
            assert res["data"] == b"h" * 300
        dep.drive(app())

    def test_remove_cleans_fragments(self):
        dep, instances = deploy(RedundancySpec(k=2, m=2))
        client = dep.add_client(US_EAST, instances=instances)

        def app():
            yield from client.put("victim", b"v" * 256)
            yield from client.remove("victim")
        dep.drive(app())
        dep.sim.run(until=dep.sim.now + 2)  # let oneway removes land
        tim = dep.tim("ec")
        for rec in tim.instances.values():
            meta = rec.instance.meta
            assert meta.get_record("victim") is None
            for idx in range(4):
                assert meta.get_record(fragment_key("victim", idx)) is None

    def test_manifest_replicated_to_all_instances(self):
        """Every instance gets a manifest copy, so any of them can
        coordinate a read even if it holds no fragment itself."""
        dep, instances = deploy(RedundancySpec(k=2, m=2))
        client = dep.add_client(US_EAST, instances=instances)
        dep.drive(client.put("obj", b"q" * 128))
        # every instance got the manifest
        tim = dep.tim("ec")
        for rec in tim.instances.values():
            data = dep.drive(rec.instance.read_version(
                "obj", run_rules=False))[0]
            assert decode_manifest(data) is not None


class TestChaos:
    def test_single_host_crash_zero_acked_loss(self):
        """Acceptance: crash any single fragment host mid-run — every
        acked write stays readable (degraded), and repair re-establishes
        all n fragments afterwards."""
        dep, instances = deploy(
            RedundancySpec(k=2, m=2, repair_interval=2.0), seed=13)
        tim = dep.tim("ec")
        writer = dep.add_client(US_EAST, instances=instances)
        reader = dep.add_client(US_WEST, instances=instances)

        # background YCSB noise so the crash lands mid-traffic
        workload = YcsbWorkload.workload_a(record_count=20, value_size=128)
        noise = YcsbClient(dep.sim, dep.add_client(EU_WEST,
                                                   instances=instances),
                           workload, dep.rng.stream("noise"),
                           think_time=0.05)
        dep.drive(noise.load())
        noise.start()

        acked = {}

        def write(tag, count):
            def app():
                for i in range(count):
                    key, value = f"{tag}-{i}", bytes([i % 256]) * 200
                    yield from writer.put(key, value)
                    acked[key] = value
            dep.drive(app())

        write("pre", 5)

        # crash the holder of fragment 1 of the first object
        inst = dep.instance("ec", US_EAST, "aws")
        manifest = decode_manifest(dep.drive(
            inst.read_version("pre-0", run_rules=False))[0])
        victim_id = manifest["frags"][1]
        victim_host = tim.instances[victim_id].instance.host
        faults = dep.fault_schedule("chaos")
        faults.crash(at=dep.sim.now + 0.5, host=victim_host.name,
                     duration=6.0)
        faults.start()
        dep.sim.run(until=dep.sim.now + 1.0)  # inside the crash window

        # degraded writes succeed and degraded reads return correct bytes
        write("during", 3)

        def read_all(expect_clean=False):
            def app():
                for key, value in sorted(acked.items()):
                    res = yield from reader.get(key)
                    assert res["data"] == value, key
                    if expect_clean:
                        assert not res["degraded"], key
            dep.drive(app())

        read_all()
        assert dep.metric_total("ec.degraded_reads") > 0

        # restart + repair: converge, then verify full redundancy is back
        dep.sim.run(until=dep.sim.now + 20.0)
        noise.stop()
        assert dep.metric_total("ec.fragments_rebuilt") > 0
        read_all(expect_clean=True)
        for key in acked:
            data = dep.drive(inst.read_version(key, run_rules=False))[0]
            manifest = decode_manifest(data)
            n = manifest["k"] + manifest["m"]
            assert len(manifest["frags"]) == n, key
            for idx, iid in manifest["frags"].items():
                holder = tim.instances[iid].instance
                frag, _, _ = dep.drive(holder.read_version(
                    fragment_key(key, idx), run_rules=False))
                assert frag is not None
        assert settle(dep, faults) == []


# -- the overlapped wave ----------------------------------------------------

#: six s3-backed sites under EC(3,2): the coordinator (slot 0), four remote
#: holders (slots 1-4, nearest first) and one spare
WAVE_SITES = ((US_EAST, "aws"), (US_EAST, "gcp"), (US_WEST, "aws"),
              (US_WEST, "gcp"), (EU_WEST, "aws"), (ASIA_EAST, "aws"))
WAVE_K, WAVE_M = 3, 2
WAVE_N = WAVE_K + WAVE_M
WAVE_VALUE = bytes(range(256)) * 96          # 24 KB -> 8 KB fragments
#: with storage jitter off what is left is microseconds of envelope
#: serialization on shared egress links
TOL = 0.001


class Wave:
    """A fixed-latency EC deployment (storage jitter off; WAN latency has
    none) coordinated from us-east/aws, with every RPC logged as
    ``{start, end, dst, method, key, entries, ok}`` in launch order (a
    batch logs its first entry's method and key)."""

    def __init__(self, monkeypatch, written: bool = True,
                 keep_versions=None):
        self.dep = dep = build_deployment(
            list(REGIONS), seed=17,
            providers={US_EAST: ("aws", "gcp"), US_WEST: ("aws", "gcp"),
                       EU_WEST: ("aws",), ASIA_EAST: ("aws",)})
        spec = GlobalPolicySpec(
            name="ec",
            placements=tuple(
                RegionPlacement(region,
                                replace(disk_only_policy(profile="s3"),
                                        keep_versions=keep_versions),
                                provider=provider)
                for region, provider in WAVE_SITES),
            consistency="eventual",
            redundancy=RedundancySpec(k=WAVE_K, m=WAVE_M))
        dep.start_wiera_instance("ec", spec)
        self.tim = dep.tim("ec")
        for rec in self.tim.instances.values():
            for backend in rec.instance.tiers.values():
                backend._rng = None          # jitter off
        self.coordinator = dep.instance("ec", US_EAST, "aws")
        self.protocol = self.coordinator.protocol
        #: instance ids nearest-first, self at rank 0: slot i of a fresh
        #: put lives on ring[i], ring[WAVE_N:] are the spares
        self.ring = [iid for iid, _ in self.protocol.ring(self.coordinator)]
        self.log: list[dict] = []
        #: the fault schedules :meth:`crash` started
        self.schedules: list = []
        original, log = RpcNode._call, self.log

        def spy(node, dst, method, args, *rest):
            entry = args["entries"][0] if method == BATCH_METHOD else None
            row = {"start": node.sim.now, "end": None, "dst": dst.name,
                   "method": entry[0] if entry else method,
                   "key": (entry[1] if entry else args).get("key"),
                   "entries": len(args["entries"]) if entry else 1,
                   "ok": False}
            log.append(row)
            try:
                result = yield from original(node, dst, method, args, *rest)
                row["ok"] = True
                return result
            finally:
                row["end"] = node.sim.now
        monkeypatch.setattr(RpcNode, "_call", spy)
        if written:
            dep.drive(self.protocol.on_put(self.coordinator, "obj",
                                           WAVE_VALUE))
            del log[:]

    def instance(self, iid):
        return self.tim.instances[iid].instance

    def client(self, slot):
        """A client whose every op is coordinated at ring member ``slot``."""
        return self.dep.add_client(US_EAST, instances=[
            info for info in self.tim.members()
            if info["instance_id"] == self.ring[slot]])

    def pending(self, slot, version, key="obj") -> bool:
        return self.instance(self.ring[slot]).meta.get_record(
            key).versions[version].pending

    def timed(self, gen):
        start = self.dep.sim.now
        result = self.dep.drive(gen)
        return result, self.dep.sim.now - start

    def local_read(self, key) -> float:
        return self.timed(self.coordinator.read_version(
            key, 1, run_rules=False))[1]

    def pull(self, slot) -> float:
        """One ``peer_get`` round trip for fragment ``slot`` of "obj"."""
        fraglen = Codec.fragment_length(len(WAVE_VALUE), WAVE_K)

        def pull_one():
            return (yield self.coordinator.node.call(
                self.instance(self.ring[slot]).node, "peer_get",
                {"key": fragment_key("obj", slot), "version": 1},
                reply_size=fraglen + 512))
        return self.timed(pull_one())[1]

    def crash(self, *slots) -> None:
        """Down the hosts of ring members ``slots`` for good, from now."""
        faults = self.dep.fault_schedule("wave")
        for slot in slots:
            faults.crash(at=self.dep.sim.now,
                         host=self.instance(self.ring[slot]).host.name,
                         duration=1e9)
        faults.start()
        self.schedules.append(faults)
        self.dep.sim.run(until=self.dep.sim.now + 0.01)

    def settle(self, *schedules) -> list[str]:
        """:func:`tests.quiescence.settle` over :meth:`crash`'s schedules
        and ``schedules``."""
        return settle(self.dep, *self.schedules, *schedules)

    def calls(self, method, fragments=None):
        """Logged calls of ``method``; ``fragments`` narrows to fragment
        keys (True) or logical keys (False)."""
        return [row for row in self.log if row["method"] == method
                and fragments in (None, "#ecf" in row["key"])]

    def node_name(self, slot):
        return self.instance(self.ring[slot]).node.name

    def get(self):
        return self.timed(self.protocol.on_get(self.coordinator, "obj"))

    def manifest_at(self, iid, key="obj"):
        return decode_manifest(self.dep.drive(self.instance(iid).read_version(
            key, run_rules=False))[0])


@pytest.fixture
def wave(monkeypatch):
    return Wave(monkeypatch)


#: the ring slot of the one site that holds no fragment of a clean put
SPARE = WAVE_N
NEW_VALUE = WAVE_VALUE[::-1]


def held_back_put(wave):
    """Put NEW_VALUE under "obj" with the spare's manifest push held back
    0.5 s, and run to the ack.  The spare holds no fragment, so the push,
    which leaves with the finalise wave at the ack, is the only message a
    put sends it: a delay on its host for the put's first 0.3 s delays
    that push alone.  Returns the put's result and the push's log row."""
    sim = wave.dep.sim
    sim.run(until=sim.now + 1.0)             # earlier puts have settled
    start = sim.now
    wave.dep.network.inject_host_delay(
        wave.instance(wave.ring[SPARE]).host, 0.5, duration=0.3)
    res = sim.run(until=sim.process(wave.protocol.on_put(
        wave.coordinator, "obj", NEW_VALUE)))
    push = [row for row in wave.calls("replica_update", fragments=False)
            if row["dst"] == wave.node_name(SPARE)][-1]
    assert push["start"] == sim.now < start + 0.3 and push["end"] is None
    return res, push


class TestReadWave:
    def test_clean_get_reads_local_fragment_under_the_pulls(self, wave):
        t_manifest = wave.local_read("obj")
        t_local = wave.local_read(fragment_key("obj", 0))
        slowest = max(wave.pull(slot) for slot in range(1, WAVE_K))
        assert t_local > 0.02 and slowest > t_local
        del wave.log[:]

        res, latency = wave.get()
        assert res["data"] == WAVE_VALUE and not res["degraded"]
        # which fragments a clean read pulls: the k-1 nearest remote ones
        assert ([row["dst"] for row in wave.calls("peer_get")]
                == [wave.node_name(slot) for slot in range(1, WAVE_K)])
        assert latency < t_manifest + t_local + slowest - 0.02
        assert latency == pytest.approx(t_manifest + max(t_local, slowest),
                                        abs=TOL)

    def test_degraded_get_costs_no_second_round_trip(self, wave):
        """The nearest remote holder is down before the read: its pull is
        dead at send time and the (k+1)-th nearest source joins the same
        wave."""
        t_manifest = wave.local_read("obj")
        t_local = wave.local_read(fragment_key("obj", 0))
        replacement = wave.pull(WAVE_K)
        wave.crash(1)
        del wave.log[:]

        res, latency = wave.get()
        assert res["data"] == WAVE_VALUE and res["degraded"]
        assert wave.dep.metric_total("ec.degraded_reads") == 1
        pulls = wave.calls("peer_get")
        # one dead call, then exactly k-1 successful pulls (+ 1 local read)
        assert ([(row["dst"], row["ok"]) for row in pulls]
                == [(wave.node_name(1), False)]
                + [(wave.node_name(slot), True)
                   for slot in range(2, WAVE_K + 1)])
        assert len({row["start"] for row in pulls}) == 1     # one wave
        assert pulls[0]["end"] == pulls[0]["start"]          # dead on return
        assert latency == pytest.approx(
            t_manifest + max(t_local, replacement), abs=TOL)
        assert wave.settle() == []

    def test_holder_answering_with_an_error_is_replaced_on_discovery(
            self, wave):
        """The nearest remote holder is up but its fragment version is
        gone: the pull comes back failed and the next-nearest source is
        launched when the coordinator finds out ..."""
        t_local = wave.local_read(fragment_key("obj", 0))
        holder = wave.instance(wave.ring[1])
        wave.dep.drive(holder.purge_version(fragment_key("obj", 1), 1))
        del wave.log[:]

        res, _ = wave.get()
        assert res["data"] == WAVE_VALUE and res["degraded"]
        pulls = wave.calls("peer_get")
        assert ([(row["dst"], row["ok"]) for row in pulls]
                == [(wave.node_name(1), False), (wave.node_name(2), True),
                    (wave.node_name(3), True)])
        assert pulls[0]["end"] > pulls[0]["start"] == pulls[1]["start"]
        # ... the first wait after the in-line local read
        assert pulls[2]["start"] == pytest.approx(
            max(pulls[0]["end"], pulls[0]["start"] + t_local), abs=TOL)

    def test_fewer_than_k_reachable_still_raises(self, wave):
        wave.crash(1, 2, 3)
        with pytest.raises(ProtocolError,
                           match="only 2 of 3 required fragments reachable"):
            wave.get()
        assert wave.settle() == []

    def test_interrupt_inside_the_wave_reaches_the_reader(self, wave):
        """An ``Interrupt`` of a process waiting on a pull is the waiter
        being stopped, not a failed fragment: it surfaces at that wait,
        and the pulls left behind finish (one of them failing late)
        without stopping the simulation."""
        sim = wave.dep.sim
        t_io = wave.local_read("obj") + wave.local_read(fragment_key("obj", 0))
        del wave.log[:]
        outcome = []

        def reader():
            try:
                outcome.append((yield from wave.protocol.on_get(
                    wave.coordinator, "obj")))
            except Interrupt as exc:
                outcome.append(exc)
        proc = sim.process(reader())
        sim.run(until=sim.now + t_io + 0.005)
        pulls = wave.calls("peer_get")
        assert len(pulls) == WAVE_K - 1 and proc.is_alive
        assert any(row["end"] is None for row in pulls)      # still in flight

        proc.interrupt("stop")
        wave.crash(WAVE_K - 1)       # the slowest pull now fails mid-flight
        sim.run(until=sim.now + 2.0)
        assert len(outcome) == 1 and isinstance(outcome[0], Interrupt)
        assert all(row["end"] is not None for row in pulls)
        assert not pulls[-1]["ok"]
        assert wave.dep.metric_total("ec.gets") == 0
        assert wave.dep.metric_total("ec.degraded_reads") == 0
        assert wave.settle() == []


class TestWriteWave:
    def test_put_overlaps_local_writes_with_the_fragment_wave(
            self, monkeypatch):
        wave = Wave(monkeypatch, written=False)
        sim, coordinator = wave.dep.sim, wave.coordinator
        fraglen = Codec.fragment_length(len(WAVE_VALUE), WAVE_K)
        t_manifest = wave.timed(coordinator.local_put("m", bytes(200)))[1]
        t_fragment = wave.timed(coordinator.local_put("f", bytes(fraglen)))[1]

        start = sim.now
        proc = sim.process(wave.protocol.on_put(coordinator, "obj",
                                                WAVE_VALUE))
        # the pending manifest is visible, and the whole wave is out,
        # before any time has passed: one ec_prewrite entry per holder,
        # carrying its fragment and the manifest
        assert sim.now == start
        assert wave.pending(0, 1)
        frags = wave.calls("ec_prewrite")
        assert ([row["dst"] for row in frags]
                == [wave.node_name(slot) for slot in range(1, WAVE_N)])
        assert {row["entries"] for row in frags} == {1}
        res = sim.run(until=proc)
        latency = sim.now - start
        assert res["fragments"] == WAVE_N and not res["degraded"]
        # one wave: the put acks once every envelope is back, its own
        # manifest final from that instant
        assert not wave.pending(0, 1)
        assert all(wave.pending(slot, 1) for slot in range(1, WAVE_N))
        t_wave = max(row["end"] for row in frags) - start
        assert t_manifest + t_fragment > 0.1 and t_wave > 0.1
        assert latency < t_manifest + t_fragment + t_wave - 0.1
        assert latency == pytest.approx(
            max(t_manifest + t_fragment, t_wave), abs=TOL)

        # the finalise wave leaves at the ack, one message per peer: a
        # data-free finalise to each holder, the manifest to the spare
        finals = wave.calls("finalise")
        behind = wave.calls("replica_update", fragments=False)
        assert ([row["dst"] for row in finals]
                == [wave.node_name(slot) for slot in range(1, WAVE_N)])
        assert [row["dst"] for row in behind] == [wave.node_name(SPARE)]
        assert {row["start"] for row in finals + behind} == {sim.now}
        assert all(row["end"] is None for row in finals + behind)
        assert wave.manifest_at(wave.ring[0])["frags"] == dict(
            enumerate(wave.ring[:WAVE_N]))
        sim.run(until=sim.now + 1.0)
        assert all(row["ok"] for row in finals + behind)
        for slot in range(len(WAVE_SITES)):
            assert not wave.pending(slot, 1), slot
            assert wave.manifest_at(wave.ring[slot]) == wave.manifest_at(
                wave.ring[0])
        assert wave.dep.metric_total("ec.manifest_push_failures") == 0

        # a holder stores its two halves side by side: its pre-write costs
        # a fragment pull's round trip with the later of the two writes
        # in place of the fragment's read
        t_read = wave.local_read(fragment_key("obj", 0))
        for row, slot in zip(frags, range(1, WAVE_N)):
            assert row["end"] - row["start"] == pytest.approx(
                wave.pull(slot) - t_read + max(t_manifest, t_fragment),
                abs=TOL), slot
        assert t_fragment > t_manifest

    def test_a_holder_crash_between_its_two_halves(self, monkeypatch):
        """Slot 1's host dies for 20 ms once its pending manifest is
        stored and while its fragment is still being written: the reply
        is lost, so the slot goes to the spare and the ack rewrites the
        map; the holder, back before the finalise wave, takes the
        rewritten manifest final."""
        wave = Wave(monkeypatch, written=False)
        sim = wave.dep.sim
        holder = wave.instance(wave.ring[1])
        merge = holder.apply_replica_update
        faults = wave.dep.fault_schedule("halves")
        done, crashed = [], []

        def crash_after_the_manifest(key, *args, **kwargs):
            result = yield from merge(key, *args, **kwargs)
            done.append(key)
            if done == ["obj"]:         # the fragment is still on its way
                faults.crash(at=sim.now, host=holder.host.name,
                             duration=0.02)
                faults.start()
                crashed.append(sim.now)
            return result
        monkeypatch.setattr(holder, "apply_replica_update",
                            crash_after_the_manifest)
        writer = wave.client(0)
        res = wave.dep.drive(writer.put("obj", WAVE_VALUE))
        assert done == ["obj", fragment_key("obj", 1)]
        assert crashed and res["fragments"] == WAVE_N and res["degraded"]
        assert wave.calls("ec_prewrite")[0]["ok"] is False
        sim.run(until=sim.now + 1.0)
        expected = dict(enumerate(wave.ring[:WAVE_N]))
        expected[1] = wave.ring[SPARE]
        for iid in wave.ring:
            assert wave.manifest_at(iid)["frags"] == expected, iid
        assert not wave.pending(1, 1)
        reader = wave.client(1)
        res = wave.dep.drive(reader.get("obj"))
        assert (res["version"], res["data"]) == (1, WAVE_VALUE)
        check([writer.history, reader.history],
              faults=[faults]).assert_holds()
        assert settle(wave.dep, faults) == []

    @pytest.mark.parametrize("half", ["manifest", "fragment"])
    def test_a_half_that_raises_is_joined_and_reported(self, monkeypatch,
                                                       half):
        """Slot 1's merge of one half raises 10 ms in, while the other is
        still being written.  The reply leaves only once both are done,
        and the error reaches the entry's result, never ``sim.run``: a
        failed manifest is reported beside the landed fragment (the
        finalise wave then ships that holder the whole manifest), a
        failed fragment fails the entry (the spare takes its slot)."""
        wave = Wave(monkeypatch, written=False)
        sim = wave.dep.sim
        holder = wave.instance(wave.ring[1])
        merge = holder.apply_replica_update
        target = "obj" if half == "manifest" else fragment_key("obj", 1)
        raised = []

        def failing(key, *args, **kwargs):
            if key != target or raised:
                return (yield from merge(key, *args, **kwargs))
            yield sim.timeout(0.01)
            raised.append(sim.now)
            raise StorageError(f"{half} write failed")
        monkeypatch.setattr(holder, "apply_replica_update", failing)
        entries = []
        prewrite = ECProtocol.on_prewrite

        def recorded(protocol, instance, args):
            try:
                result = yield from prewrite(protocol, instance, args)
            except StorageError as exc:
                entries.append((instance.instance_id, exc))
                raise
            entries.append((instance.instance_id, result))
            return result
        monkeypatch.setattr(ECProtocol, "on_prewrite", recorded)

        t_fragment = wave.timed(wave.coordinator.local_put(
            "f", bytes(Codec.fragment_length(len(WAVE_VALUE), WAVE_K))))[1]
        wave.dep.drive(wave.coordinator.local_remove("f"))
        writer = wave.client(0)
        res = wave.dep.drive(writer.put("obj", WAVE_VALUE))
        row = wave.calls("ec_prewrite")[0]
        # the reply waited for the half still being written
        assert row["end"] - raised[0] > t_fragment - 0.02
        outcome = dict(entries)[wave.ring[1]]
        if half == "manifest":
            assert row["ok"] and not res["degraded"]
            assert outcome["applied"]
            assert "manifest write failed" in outcome["manifest_error"]
        else:
            assert isinstance(outcome, StorageError) and res["degraded"]
        sim.run(until=sim.now + 1.0)
        expected = dict(enumerate(wave.ring[:WAVE_N]))
        if half == "fragment":
            expected[1] = wave.ring[SPARE]
        for iid in wave.ring:
            assert wave.manifest_at(iid)["frags"] == expected, iid
        assert not wave.pending(1, 1)
        check([writer.history]).assert_holds()
        monkeypatch.setattr(holder, "apply_replica_update", merge)
        assert settle(wave.dep) == []

    def test_a_get_at_a_holder_between_the_ack_and_the_finalise(self, wave):
        """The holder's finalise is held back 1 s: a get there after the
        ack meets the pending manifest, finds k fragments in place,
        finalises it itself and returns the acked version."""
        sim = wave.dep.sim
        slot = WAVE_N - 1
        holder = wave.instance(wave.ring[slot])
        finalise = holder.node._handlers["finalise"]

        def held_back(msg):
            yield sim.timeout(1.0)
            return (yield from finalise(msg))
        holder.node.register("finalise", held_back)
        writer, reader = wave.client(0), wave.client(slot)
        sim.run(until=sim.now + 1.0)
        put = wave.dep.drive(writer.put("obj", NEW_VALUE))
        assert put["version"] == 2 and wave.pending(slot, 2)
        res = wave.dep.drive(reader.get("obj"))
        assert (res["version"], res["data"]) == (2, NEW_VALUE)
        assert not wave.pending(slot, 2)
        check([writer.history, reader.history],
              preloaded=[("obj", 1)]).assert_holds()

    @pytest.mark.parametrize("slot", [0, 1, WAVE_N - 1, SPARE])
    def test_a_get_racing_the_wave_never_raises(self, wave, slot):
        """Gets back to back at one site from before the put to after its
        finalise wave: each returns a whole version, old or new.  Reads
        at a holder are linearizable; at the spare rule 2 is reported."""
        sim = wave.dep.sim
        writer, reader = wave.client(0), wave.client(slot)
        sim.run(until=sim.now + 1.0)
        put = sim.process(writer.put("obj", NEW_VALUE))
        seen = []

        def read_through():
            end = sim.now + 1.0
            while sim.now < end:
                res = yield from reader.get("obj")
                seen.append((res["version"], res["data"]))
        sim.run(until=sim.all_of([put, sim.process(read_through())]))
        assert set(seen) <= {(1, WAVE_VALUE), (2, NEW_VALUE)}
        assert seen[-1] == (2, NEW_VALUE) and len(seen) >= 3
        report = check([writer.history, reader.history],
                       preloaded=[("obj", 1)])
        report.assert_holds(*((1, 3, 4, 5) if slot == SPARE else ()))

    def test_a_holder_crash_between_the_ack_and_the_finalise(self, wave):
        """The nearest holder dies at the ack, before its finalise lands:
        the finalise is counted failed, reads elsewhere return the acked
        version, and once the holder is back its own pending manifest
        passes the reader rule."""
        sim = wave.dep.sim
        writer = wave.client(0)
        readers = [wave.client(slot) for slot in range(1, WAVE_N)]
        sim.run(until=sim.now + 1.0)
        put = wave.dep.drive(writer.put("obj", NEW_VALUE))
        faults = wave.dep.fault_schedule("ack")
        faults.crash(at=sim.now, host=wave.instance(wave.ring[1]).host.name,
                     duration=2.0)
        faults.start()
        gets = [sim.process(reader.get("obj")) for reader in readers[1:]]
        sim.run(until=sim.all_of(gets))
        assert [get.value["version"] for get in gets] == [2] * (WAVE_N - 2)
        assert wave.dep.metric_total("ec.manifest_push_failures") == 1
        sim.run(until=sim.now + 3.0)
        assert wave.pending(1, 2)
        res = wave.dep.drive(readers[0].get("obj"))
        assert (res["version"], res["data"]) == (put["version"], NEW_VALUE)
        assert not wave.pending(1, 2)
        check([writer.history] + [reader.history for reader in readers],
              preloaded=[("obj", 1)], faults=[faults]).assert_holds()
        assert wave.settle(faults) == []

    def test_a_holder_that_missed_the_rewritten_manifest_reads_the_ack(
            self, wave):
        """Slot 2 is down at send time, so the spare takes its fragment
        and the ack rewrites the map; slot 1 dies at the ack and misses
        that manifest, keeping v2 pending under the old map.  Once slots
        3 and 4 are down too, v2 is short of k from slot 1 by that map
        while v1 is whole: the get asks the coordinator, installs its
        final v2 and reads it, not v1 behind an acked put."""
        sim = wave.dep.sim
        writer, reader = wave.client(0), wave.client(1)
        sim.run(until=sim.now + 1.0)

        def down(slot):
            """Down ring member ``slot`` for 1 s from now."""
            faults = wave.dep.fault_schedule(f"down-{slot}")
            faults.crash(at=sim.now,
                         host=wave.instance(wave.ring[slot]).host.name,
                         duration=1.0)
            faults.start()
            return faults
        faults = [down(2)]
        sim.run(until=sim.now + 0.01)
        assert wave.dep.drive(writer.put("obj", NEW_VALUE))["degraded"]
        faults.append(down(1))
        sim.run(until=sim.now + 1.5)            # slots 1 and 2 are back
        assert wave.pending(1, 2)
        assert wave.manifest_at(wave.ring[1])["frags"][2] == wave.ring[2]
        wave.crash(3, 4)
        res = wave.dep.drive(reader.get("obj"))
        assert (res["version"], res["data"]) == (2, NEW_VALUE)
        assert not wave.pending(1, 2)
        assert wave.manifest_at(wave.ring[1])["frags"][2] == wave.ring[SPARE]
        check([writer.history, reader.history], preloaded=[("obj", 1)],
              faults=faults).assert_holds()

    def test_the_repairer_does_not_rebuild_a_pending_version(
            self, monkeypatch):
        """Slots 1, 2 and the spare are down through a put, which lands
        only slots 0, 3 and 4 (k of them) and is refused.  Once every
        host is back, v2 is the coordinator's latest manifest and k of its
        fragments are readable, yet the repair round leaves it alone: a
        rebuild would establish a put its client was told failed."""
        wave = Wave(monkeypatch)
        sim = wave.dep.sim
        faults = wave.dep.fault_schedule("refuse")
        for slot in (1, 2, SPARE):
            faults.crash(at=sim.now + 0.001,
                         host=wave.instance(wave.ring[slot]).host.name,
                         duration=2.0)
        faults.start()
        with pytest.raises(ProtocolError, match="landed 3/5"):
            wave.dep.drive(wave.protocol.on_put(wave.coordinator, "obj",
                                                NEW_VALUE))
        sim.run(until=sim.now + 3.0)
        assert wave.pending(0, 2)
        repairer = ECRepairer(wave.coordinator, wave.protocol, 1e9, 1)
        wave.dep.drive(repairer.repair_round())
        assert repairer.fragments_rebuilt == 0
        for slot in (1, 2):
            record = wave.instance(wave.ring[slot]).meta.get_record(
                fragment_key("obj", slot))
            assert record.version_list() == [1]

    def test_a_get_at_a_non_holder_inside_the_window_reads_the_last_version(
            self, wave):
        held_back_put(wave)
        spare = wave.instance(wave.ring[SPARE])
        res = wave.dep.drive(wave.protocol.on_get(spare, "obj"))
        assert (res["version"], res["data"]) == (1, WAVE_VALUE)
        wave.dep.sim.run(until=wave.dep.sim.now + 1.0)
        res = wave.dep.drive(wave.protocol.on_get(spare, "obj"))
        assert (res["version"], res["data"]) == (2, NEW_VALUE)

    def test_an_overwrite_at_the_ack_waits_for_the_non_holder_push(
            self, wave):
        """Versions alone would order the two manifests at the spare; the
        check is that the overwrite does not leave before the push."""
        _, push = held_back_put(wave)
        del wave.log[:]
        res = wave.dep.drive(wave.protocol.on_put(wave.coordinator, "obj",
                                                  WAVE_VALUE))
        assert res["version"] == 3
        frags = wave.calls("ec_prewrite")
        assert push["ok"] and min(row["start"] for row in frags) == push["end"]
        wave.dep.sim.run(until=wave.dep.sim.now + 1.0)
        spare = wave.instance(wave.ring[SPARE])
        assert spare.meta.get_record("obj").latest_version == 3
        res = wave.dep.drive(wave.protocol.on_get(spare, "obj"))
        assert (res["version"], res["data"]) == (3, WAVE_VALUE)

    def test_a_remove_at_the_ack_is_not_overtaken_by_the_non_holder_push(
            self, wave):
        """Unordered, the remove reaches the spare before the held-back
        manifest, which then resurrects the removed key there."""
        held_back_put(wave)
        wave.dep.drive(wave.protocol.on_remove(wave.coordinator, "obj"))
        wave.dep.sim.run(until=wave.dep.sim.now + 1.0)
        for iid in wave.ring:
            assert wave.instance(iid).meta.get_record("obj") is None, iid
        assert wave.protocol._unsettled == {}

    def test_a_non_holder_push_failing_after_the_ack_is_counted(self, wave):
        _, push = held_back_put(wave)
        assert wave.dep.metric_total("ec.manifest_push_failures") == 0
        wave.crash(SPARE)
        wave.dep.sim.run(until=wave.dep.sim.now + 1.0)
        assert push["end"] is not None and not push["ok"]
        assert wave.dep.metric_total("ec.manifest_push_failures") == 1
        assert wave.protocol._unsettled == {}

    def test_a_coordinator_crash_at_the_ack_leaves_every_holder_readable(
            self, wave):
        """Every holder has the manifest at the ack, so a get there — all
        launched at once, before a push still on its way could land —
        returns the acked value."""
        sim = wave.dep.sim
        sim.run(until=sim.now + 1.0)
        res = sim.run(until=sim.process(wave.protocol.on_put(
            wave.coordinator, "obj", NEW_VALUE)))
        wave.crash(0)
        gets = [sim.process(wave.protocol.on_get(wave.instance(iid), "obj"))
                for iid in wave.ring[1:WAVE_N]]
        sim.run(until=sim.all_of(gets))
        assert [(get.value["version"], get.value["data"]) for get in gets] \
            == [(res["version"], NEW_VALUE)] * (WAVE_N - 1)
        assert wave.settle() == []

    def test_holder_down_at_send_time_is_replaced_inside_the_wave(
            self, monkeypatch):
        wave = Wave(monkeypatch, written=False)
        spare = wave.ring[WAVE_N]
        wave.crash(2)
        del wave.log[:]

        start = wave.dep.sim.now
        res, _ = wave.timed(wave.protocol.on_put(wave.coordinator, "obj",
                                                 WAVE_VALUE))
        assert res["fragments"] == WAVE_N and res["degraded"]
        assert wave.dep.metric_total("ec.degraded_writes") == 1
        assert wave.dep.metric_total("ec.fragments_written") == WAVE_N
        # n fragments in one wave: the dead call and its replacement to
        # the first spare left at the same instant as every other one
        frags = wave.calls("ec_prewrite")
        assert ([(row["dst"], row["ok"]) for row in frags]
                == [(wave.node_name(1), True), (wave.node_name(2), False),
                    (wave.node_name(WAVE_N), True), (wave.node_name(3), True),
                    (wave.node_name(4), True)])
        assert {row["start"] for row in frags} == {start}
        # the rewritten manifest is on the coordinator and, once the
        # finalise wave lands, on every live peer
        wave.dep.sim.run(until=wave.dep.sim.now + 1.0)
        expected = dict(enumerate(wave.ring[:WAVE_N]))
        expected[2] = spare
        for iid in wave.ring:
            if iid != wave.ring[2]:
                assert wave.manifest_at(iid)["frags"] == expected, iid
        frag = wave.dep.drive(wave.instance(spare).read_version(
            fragment_key("obj", 2), run_rules=False))[0]
        assert len(frag) == Codec.fragment_length(len(WAVE_VALUE), WAVE_K)
        res, _ = wave.get()
        assert res["data"] == WAVE_VALUE and not res["degraded"]

    def test_ack_floor_is_k_plus_one(self, monkeypatch):
        """Two holders down, one spare: k+1 = 4 of 5 land and the put is
        acknowledged with the unreachable slot dropped from the manifest;
        with a third holder down only k land and it is refused."""
        wave = Wave(monkeypatch, written=False)
        wave.crash(1, 2)
        res = wave.dep.drive(wave.protocol.on_put(wave.coordinator, "a",
                                                  WAVE_VALUE))
        assert res["fragments"] == WAVE_K + 1 and res["degraded"]
        frags = wave.manifest_at(wave.ring[0], "a")["frags"]
        assert frags == {0: wave.ring[0], 1: wave.ring[WAVE_N],
                         3: wave.ring[3], 4: wave.ring[4]}
        wave.crash(3)
        with pytest.raises(ProtocolError, match="landed 3/5 fragments"):
            wave.dep.drive(wave.protocol.on_put(wave.coordinator, "b",
                                                WAVE_VALUE))

    def test_interrupt_inside_the_wave_reaches_the_writer(self, monkeypatch):
        """As for the reader: not booked as failed fragments (no degraded
        or ``ProtocolError`` outcome), and the fragment calls left behind
        finish defused — one of them failing late.  (1 MB fragments, so
        the wave is still serializing when the local writes are done.)"""
        wave = Wave(monkeypatch, written=False)
        sim, coordinator = wave.dep.sim, wave.coordinator
        value = bytes(3 << 20)
        t_io = (wave.timed(coordinator.local_put("m", bytes(200)))[1]
                + wave.timed(coordinator.local_put("f", bytes(1 << 20)))[1])
        outcome = []

        def writer():
            try:
                outcome.append((yield from wave.protocol.on_put(
                    coordinator, "obj", value)))
            except (Interrupt, ProtocolError) as exc:
                outcome.append(exc)
        proc = sim.process(writer())
        sim.run(until=sim.now + t_io + 0.005)
        frags = wave.calls("ec_prewrite")
        assert len(frags) == WAVE_N - 1 and proc.is_alive
        assert frags[-1]["end"] is None      # the farthest: still on its way

        proc.interrupt("stop")
        wave.crash(WAVE_N - 1)       # the farthest holder dies mid-transfer
        sim.run(until=sim.now + 5.0)
        assert len(outcome) == 1 and isinstance(outcome[0], Interrupt)
        assert [row["ok"] for row in frags] == [True, True, True, False]
        assert frags[-1]["end"] > frags[-1]["start"] + t_io
        assert not wave.calls("replica_update", fragments=False)
        assert wave.dep.metric_total("ec.puts") == 0
        assert wave.dep.metric_total("ec.degraded_writes") == 0


class TestStaleManifest:
    """The holders keep one version, so a put purges the old fragments as
    it lands; the spare's manifest still names them while its push has
    not arrived: missed (a partition during the put) or still on its way."""

    @pytest.mark.parametrize("push", ["missed", "in-flight"])
    def test_get_at_a_non_holder_reads_a_holders_manifest_once(
            self, monkeypatch, push):
        wave = Wave(monkeypatch, keep_versions=1)
        dep, sim = wave.dep, wave.dep.sim
        if push == "missed":
            sim.run(until=sim.now + 1.0)
            dep.network.partition(US_EAST, ASIA_EAST)
            dep.drive(wave.protocol.on_put(wave.coordinator, "obj",
                                           NEW_VALUE))
            dep.network.heal_partition(US_EAST, ASIA_EAST)
            assert dep.metric_total("ec.manifest_push_failures") == 1
        else:
            held_back_put(wave)
        spare = wave.instance(wave.ring[SPARE])
        assert spare.meta.get_record("obj").latest_version == 1
        del wave.log[:]

        res = dep.drive(wave.protocol.on_get(spare, "obj"))
        assert (res["version"], res["data"]) == (2, NEW_VALUE)
        # one fallback, to the nearest holder the stale manifest names
        fetched = wave.calls("peer_get", fragments=False)
        assert ([row["dst"] for row in fetched]
                == [wave.instance(wave.protocol.ring(spare)[1][0]).node.name])
        assert dep.metric_total("ec.manifest_fallbacks") == 1
        assert spare.meta.get_record("obj").latest_version == 2

    def test_a_manifest_no_holder_can_improve_on_still_raises(
            self, monkeypatch):
        """Fewer than k fragments of the latest version and the holders'
        manifest is the same: one fallback, then the error."""
        wave = Wave(monkeypatch)
        wave.crash(1, 2, 3)
        with pytest.raises(ProtocolError, match="only 2 of 3"):
            wave.get()
        assert wave.dep.metric_total("ec.manifest_fallbacks") == 1
        assert wave.settle() == []


class TestRefusedPut:
    """A put that misses the ack floor publishes nothing: its manifest
    stays pending at the coordinator, and a get there reads the last
    whole version."""

    @pytest.mark.parametrize("keep_versions", [None, 1])
    def test_a_refused_put_leaves_the_last_version_readable(
            self, monkeypatch, keep_versions):
        wave = Wave(monkeypatch, keep_versions=keep_versions)
        dep = wave.dep
        client = wave.client(0)
        faults = refuse_a_put(wave, client)
        res = dep.drive(client.get("obj"))
        assert (res["version"], res["data"]) == (1, WAVE_VALUE)
        check([client.history], preloaded=[("obj", 1)],
              faults=[faults]).assert_holds()

    def test_an_instance_without_a_manifest_reads_the_last_version(
            self, monkeypatch):
        """Slot 4 drops its manifests of "obj" after the refused put, so
        its get installs a peer's: the newest there is the refused v2,
        which it takes pending, cannot decode, and passes by for the
        coordinator's newest final version."""
        wave = Wave(monkeypatch)
        writer, reader = wave.client(0), wave.client(WAVE_N - 1)
        faults = refuse_a_put(wave, writer)
        holder = wave.instance(wave.ring[WAVE_N - 1])
        wave.dep.drive(holder.local_remove("obj"))
        res = wave.dep.drive(reader.get("obj"))
        assert (res["version"], res["data"]) == (1, WAVE_VALUE)
        assert holder.meta.get_record("obj").versions[2].pending
        check([writer.history, reader.history], preloaded=[("obj", 1)],
              faults=[faults]).assert_holds()


def refuse_a_put(wave, client):
    """Down slots 1-3 for 2 s from 1 ms into a put of NEW_VALUE under
    "obj" by ``client``, which is refused, and run until every host is
    back.  Returns the fault schedule."""
    sim = wave.dep.sim
    faults = wave.dep.fault_schedule("refuse")
    start = sim.now
    for slot in (1, 2, 3):
        faults.crash(at=start + 0.001,
                     host=wave.instance(wave.ring[slot]).host.name,
                     duration=2.0)
    faults.start()
    with pytest.raises(ProtocolError, match="landed 3/5 fragments, needs 4"):
        wave.dep.drive(client.put("obj", NEW_VALUE))
    sim.run(until=start + 3.0)          # every host is back up
    return faults


#: why the worlds below are not quiescent yet (ROADMAP item 3)
NOT_SETTLED = ("item 3: a put refused or stopped before its ack leaves its "
               "manifest pending where it landed, and nothing settles it")
NOT_RESENT = ("item 3: a peer down through a put's finalise wave keeps the "
              "previous manifest; nothing sends it the final one again")


class TestNotYetQuiescent:
    """Worlds that :func:`~repro.obs.check.check_quiescent` fails today,
    one per cause and shape, each expected to fail until item 3 lands."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=NOT_SETTLED)
    def test_a_refused_put(self, monkeypatch):
        wave = Wave(monkeypatch)
        faults = refuse_a_put(wave, wave.client(0))
        assert wave.settle(faults) == []

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=NOT_SETTLED)
    def test_a_put_refused_at_send_time(self, monkeypatch):
        wave = Wave(monkeypatch, written=False)
        wave.crash(1, 2, 3)
        with pytest.raises(ProtocolError, match="landed 3/5"):
            wave.dep.drive(wave.protocol.on_put(wave.coordinator, "b",
                                                WAVE_VALUE))
        assert wave.settle() == []

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=NOT_SETTLED)
    def test_a_put_stopped_inside_its_wave(self, monkeypatch):
        wave = Wave(monkeypatch)
        sim = wave.dep.sim
        sim.run(until=sim.now + 1.0)         # the first put has settled
        proc = sim.process(wave.protocol.on_put(wave.coordinator, "obj",
                                                NEW_VALUE))
        sim.run(until=sim.now + 0.01)
        assert wave.pending(0, 2)
        proc.interrupt("stop")
        sim.run(until=sim.now + 1.0)
        assert wave.settle() == []

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=NOT_RESENT)
    def test_a_holder_down_at_send_time(self, monkeypatch):
        wave = Wave(monkeypatch, written=False)
        wave.crash(2)
        wave.dep.drive(wave.protocol.on_put(wave.coordinator, "obj",
                                            WAVE_VALUE))
        assert wave.settle() == []

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=NOT_RESENT)
    def test_a_non_holder_down_at_the_ack(self, wave):
        held_back_put(wave)
        wave.crash(SPARE)
        wave.dep.sim.run(until=wave.dep.sim.now + 1.0)
        assert wave.settle() == []


class TestOptimizer:
    RTT = {
        frozenset((US_EAST, US_WEST)): 0.08,
        frozenset((US_EAST, EU_WEST)): 0.09,
        frozenset((US_EAST, ASIA_EAST)): 0.23,
        frozenset((US_WEST, EU_WEST)): 0.15,
        frozenset((US_WEST, ASIA_EAST)): 0.12,
        frozenset((EU_WEST, ASIA_EAST)): 0.28,
    }

    def rtt(self, a, b):
        if a == b:
            return 0.0
        return self.RTT[frozenset((a, b))]

    def optimizer(self, **spec_kwargs):
        spec = RedundancySpec(**spec_kwargs)
        return RedundancyOptimizer(spec, REGIONS, self.rtt, tier="s3")

    def test_ec_beats_replication_on_storage(self):
        opt = self.optimizer()
        rep = opt.evaluate(1, 2, 1 << 20, 1000, 100, US_EAST)
        ec = opt.evaluate(2, 2, 1 << 20, 1000, 100, US_EAST)
        assert ec.durability == rep.durability == 2
        assert ec.storage_dollars < rep.storage_dollars
        assert ec.storage_dollars == pytest.approx(
            rep.storage_dollars * (4 / 2) / 3)

    def test_choose_prefers_cheap_ec_for_cold_data(self):
        """Rarely-read data: storage dominates, so EC's lower overhead
        beats replication despite remote fragment reads."""
        opt = self.optimizer(durability_floor=2)
        plan = opt.choose(size=1 << 20, reads_per_month=1,
                          writes_per_month=1, reader_region=US_EAST)
        assert not plan.is_replication
        assert plan.chosen.durability >= 2

    def test_tight_read_budget_forces_replication(self, monkeypatch):
        """With a budget below every inter-region RTT, only schemes whose
        k fragments sit in the reader region fit — i.e. k=1 replication
        with the data shard local."""
        monkeypatch.setattr(ec_optimizer, "READ_BUDGET", 0.01)
        opt = self.optimizer(durability_floor=1)
        plan = opt.choose(size=4096, reads_per_month=1e6,
                          writes_per_month=10, reader_region=US_EAST)
        assert plan.is_replication
        assert plan.chosen.read_latency <= 0.01

    def test_durability_floor_filters(self):
        opt = self.optimizer(durability_floor=2)
        plan = opt.choose(size=4096, reads_per_month=100,
                          writes_per_month=10, reader_region=US_EAST)
        assert plan.chosen.durability >= 2
        assert all(e.durability >= 2 or e in plan.rejected
                   for e in (plan.chosen,) + plan.rejected)
