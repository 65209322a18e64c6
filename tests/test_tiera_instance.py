"""Tests for the Tiera instance: policies, versions, transforms, tiers."""

from dataclasses import replace

import pytest

from repro.bench.harness import preload_object
from repro.net import Network, US_EAST
from repro.sim import Simulator
from repro.storage.backend import ObjectMissingError
from repro.tiera import (
    ColdDataEvent,
    CompressResponse,
    CopyResponse,
    DeleteResponse,
    EncryptResponse,
    FilledEvent,
    GrowResponse,
    InsertEvent,
    LocalPolicy,
    MoveResponse,
    ObjectSelector,
    Rule,
    StoreResponse,
    TieraError,
    TieraInstance,
    TierSpec,
)
from repro.policydsl.builtin_policies import builtin_policy
from repro.tiera.policy import (
    memory_only_policy,
    write_back_policy,
)
from repro.util.rng import RngRegistry
from repro.util.units import GB, HOUR, KB, MS


def new_world():
    sim = Simulator()
    net = Network(sim)
    host = net.add_host("h", US_EAST, vm="aws.t2_micro")
    return sim, net, host


@pytest.fixture
def world():
    return new_world()


def make_instance(world, policy, iid="i1"):
    sim, net, host = world
    inst = TieraInstance(sim, net, host, iid, US_EAST, policy,
                         rng=RngRegistry(1))
    inst.start()
    return inst


def run(sim, gen):
    proc = sim.process(gen)
    return sim.run(until=proc)


class TestWriteBack:
    def test_put_lands_in_memory_dirty(self, world):
        sim, *_ = world
        inst = make_instance(world, write_back_policy(flush_period=10.0))
        run(sim, inst.local_put("k", b"v" * 100))
        m = inst.meta.get_record("k").latest()
        assert m.locations == {"tier1"}
        assert m.dirty is True

    def test_timer_flush_copies_and_cleans(self, world):
        sim, *_ = world
        inst = make_instance(world, write_back_policy(flush_period=2.0))
        run(sim, inst.local_put("k", b"v" * 100))
        sim.run(until=5.0)
        m = inst.meta.get_record("k").latest()
        assert m.locations == {"tier1", "tier2"}
        assert m.dirty is False
        assert inst.tier("tier2")._data["k#v1"] == b"v" * 100

    def test_put_latency_is_memory_speed(self, world):
        sim, *_ = world
        inst = make_instance(world, write_back_policy())
        t0 = sim.now
        run(sim, inst.local_put("k", b"v" * (4 * KB)))
        assert sim.now - t0 < 2 * MS

    @pytest.mark.parametrize("race", ["remove", "overwrite"])
    def test_flush_skips_a_target_gone_before_its_turn(self, world, race):
        """The tick at t=1 resolves 50 dirty keys, then copies them one by
        one (~2 ms each).  At t=1.0005 k025 is removed — or overwritten,
        and its v1 GC-purged — before its turn: the flush skips and counts
        it, copies the other 49, and an overwrite's v2 goes at the next
        tick."""
        sim, *_ = world
        policy = write_back_policy(flush_period=1.0)
        if race == "overwrite":
            policy = replace(policy, keep_versions=1)
        inst = make_instance(world, policy)
        keys = [f"k{i:03d}" for i in range(50)]
        gone = inst._obs.metrics.counter("tiera.rule_targets_gone",
                                         instance="i1")

        def load():
            for key in keys:
                yield from inst.local_put(key, bytes(64 * KB))
        run(sim, load())

        def racer():
            yield sim.timeout(1.0005 - sim.now)
            if race == "remove":
                yield from inst.local_remove("k025")
            else:
                yield from inst.local_put("k025", b"new")
        sim.process(racer())
        sim.run(until=1.9)
        tier2 = inst.tier("tier2")
        assert sorted(tier2._data) == [f"{k}#v1" for k in keys if k != "k025"]
        assert gone.value == 1

        sim.run(until=2.9)
        record = inst.meta.get_record("k025")
        if race == "remove":
            assert record is None
        else:
            assert record.version_list() == [2]
            assert tier2._data["k025#v2"] == b"new"
            assert record.latest().dirty is False
        assert gone.value == 1

    def test_flush_work_does_not_grow_with_the_namespace(self, monkeypatch):
        """A flush visits the dirty keys only: the same dirty keys on top
        of 100 or 10 000 clean records cost the same selector calls and
        move the same bytes (a full scan costs one call per version)."""
        dirty, size = 20, 1024
        calls = []
        matches = ObjectSelector.matches

        def counting(self, record, meta, now):
            calls.append(record.key)
            return matches(self, record, meta, now)
        monkeypatch.setattr(ObjectSelector, "matches", counting)

        def flush_work(clean):
            sim, net, host = new_world()
            inst = TieraInstance(sim, net, host, "i1", US_EAST,
                                 write_back_policy(), rng=RngRegistry(1))
            for i in range(clean):
                preload_object([inst], f"clean{i:05d}", bytes(size))

            def puts():
                for i in range(dirty):
                    yield from inst.local_put(f"dirty{i:02d}", bytes(size))
            run(sim, puts())
            calls.clear()
            flush = inst.policy.timer_rules()[0]
            run(sim, inst._run_rule(flush, _ctx()))
            return len(calls), inst.tier("tier2").used_bytes

        assert flush_work(100) == flush_work(10_000) == (dirty, dirty * size)


class TestWriteThrough:
    def test_put_synchronously_persists(self, world):
        sim, *_ = world
        inst = make_instance(world, builtin_policy("PersistentInstance"))
        run(sim, inst.local_put("k", b"v" * 100))
        m = inst.meta.get_record("k").latest()
        assert m.locations == {"tier1", "tier2"}

    def test_put_latency_includes_durable_tier(self, world):
        sim, *_ = world
        inst = make_instance(world, builtin_policy("PersistentInstance"))
        t0 = sim.now
        run(sim, inst.local_put("k", b"v" * (4 * KB)))
        assert sim.now - t0 > 1 * MS  # EBS write on the critical path


class TestFilledBackup:
    def policy(self):
        return LocalPolicy(
            name="backup",
            tiers=(TierSpec("tier1", "memcached", 10 * KB),
                   TierSpec("tier2", "s3", None)),
            rules=(
                Rule(InsertEvent(None), (StoreResponse(to="tier1"),)),
                Rule(FilledEvent(tier="tier1", fraction=0.5),
                     (CopyResponse(what=ObjectSelector(location="tier1"),
                                   to="tier2"),)),
            ))

    def test_fill_triggers_backup_once(self, world):
        sim, *_ = world
        inst = make_instance(world, self.policy())
        for i in range(3):
            run(sim, inst.local_put(f"k{i}", b"z" * (2 * KB)))
        assert len(inst.tier("tier2")) >= 3  # crossed 50% -> backed up
        # The rule is edge-triggered: it fired exactly when crossing.
        first_count = inst.tier("tier2").writes
        run(sim, inst.local_put("k9", b"z" * 100))
        assert inst.tier("tier2").writes >= first_count  # new object only


class TestColdData:
    def policy(self):
        return LocalPolicy(
            name="cold",
            tiers=(TierSpec("tier1", "ebs_ssd", 1 * GB),
                   TierSpec("tier2", "s3_ia", None)),
            rules=(
                Rule(InsertEvent(None), (StoreResponse(to="tier1"),)),
                Rule(ColdDataEvent(age=2 * HOUR, check_interval=600.0),
                     (MoveResponse(
                         what=ObjectSelector(location="tier1",
                                             min_idle=2 * HOUR),
                         to="tier2", from_tier="tier1"),)),
            ))

    def test_idle_objects_move_hot_stay(self, world):
        sim, *_ = world
        inst = make_instance(world, self.policy())
        run(sim, inst.local_put("cold", b"c" * 100))
        run(sim, inst.local_put("hot", b"h" * 100))

        def keep_hot():
            for _ in range(5):
                yield sim.timeout(30 * 60)
                yield from inst.read_version("hot")
        run(sim, keep_hot())
        sim.run(until=4 * HOUR)
        cold_meta = inst.meta.get_record("cold").latest()
        hot_meta = inst.meta.get_record("hot").latest()
        assert cold_meta.locations == {"tier2"}
        assert "tier1" in hot_meta.locations


class TestVersioning:
    def test_put_creates_increasing_versions(self, world):
        sim, *_ = world
        inst = make_instance(world, memory_only_policy())
        v1 = run(sim, inst.local_put("k", b"one"))
        v2 = run(sim, inst.local_put("k", b"two"))
        assert (v1, v2) == (1, 2)
        data, m, rec = run(sim, inst.read_version("k"))
        assert data == b"two"
        data, m, rec = run(sim, inst.read_version("k", version=1))
        assert data == b"one"

    def test_duplicate_version_rejected(self, world):
        sim, *_ = world
        inst = make_instance(world, memory_only_policy())
        run(sim, inst.local_put("k", b"one", version=4))
        with pytest.raises(TieraError):
            run(sim, inst.local_put("k", b"again", version=4))

    def test_gc_keeps_last_n(self, world):
        sim, *_ = world
        policy = memory_only_policy()
        from dataclasses import replace
        policy = replace(policy, keep_versions=2)
        inst = make_instance(world, policy)
        for i in range(5):
            run(sim, inst.local_put("k", f"v{i}".encode()))
        rec = inst.meta.get_record("k")
        assert rec.version_list() == [4, 5]

    def test_remove_all_and_specific(self, world):
        sim, *_ = world
        inst = make_instance(world, memory_only_policy())
        run(sim, inst.local_put("k", b"one"))
        run(sim, inst.local_put("k", b"two"))
        removed = run(sim, inst.local_remove("k", version=1))
        assert removed == 1
        assert inst.meta.get_record("k").version_list() == [2]
        removed = run(sim, inst.local_remove("k"))
        assert removed == 1
        assert inst.meta.get_record("k") is None

    def test_read_missing_raises(self, world):
        sim, *_ = world
        inst = make_instance(world, memory_only_policy())
        with pytest.raises(ObjectMissingError):
            run(sim, inst.read_version("ghost"))


class TestConflictResolution:
    def test_newer_version_applies(self, world):
        sim, *_ = world
        inst = make_instance(world, memory_only_policy())
        run(sim, inst.local_put("k", b"local"))
        result = run(sim, inst.apply_replica_update(
            "k", version=2, last_modified=sim.now + 1, data=b"remote",
            origin="peer"))
        assert result["applied"]
        data, *_ = run(sim, inst.read_version("k"))
        assert data == b"remote"

    def test_same_version_lww_by_mtime(self, world):
        sim, *_ = world
        inst = make_instance(world, memory_only_policy())
        run(sim, inst.local_put("k", b"local"))
        rec = inst.meta.get_record("k")
        local_mtime = rec.latest().last_modified
        # older write loses
        result = run(sim, inst.apply_replica_update(
            "k", version=1, last_modified=local_mtime - 5, data=b"old",
            origin="peer"))
        assert not result["applied"]
        # newer write wins and replaces the contents
        result = run(sim, inst.apply_replica_update(
            "k", version=1, last_modified=local_mtime + 5, data=b"new",
            origin="peer"))
        assert result["applied"]
        data, *_ = run(sim, inst.read_version("k"))
        assert data == b"new"
        assert inst.conflicts_resolved == 1


class TestTransformsViaPolicy:
    def test_compress_and_read_back(self, world):
        sim, *_ = world
        inst = make_instance(world, memory_only_policy())
        payload = b"A" * 10_000
        run(sim, inst.local_put("k", payload))
        run(sim, CompressResponse(what=ObjectSelector(location="tier1"))
            .execute(inst, _ctx()))
        m = inst.meta.get_record("k").latest()
        assert m.encodings == ("zlib",)
        assert m.stored_size < len(payload) / 10
        data, *_ = run(sim, inst.read_version("k"))
        assert data == payload

    def test_encrypt_then_compress_chain(self, world):
        sim, *_ = world
        inst = make_instance(world, memory_only_policy())
        payload = b"secret" * 100
        run(sim, inst.local_put("k", payload))
        run(sim, EncryptResponse(what=ObjectSelector(location="tier1"))
            .execute(inst, _ctx()))
        run(sim, CompressResponse(what=ObjectSelector(location="tier1"))
            .execute(inst, _ctx()))
        m = inst.meta.get_record("k").latest()
        assert m.encodings == ("xor:default", "zlib")
        stored = inst.tier("tier1")._data["k#v1"]
        assert payload not in stored
        data, *_ = run(sim, inst.read_version("k"))
        assert data == payload

    def test_grow_response(self, world):
        sim, *_ = world
        inst = make_instance(world, memory_only_policy(size="1K"))
        run(sim, GrowResponse(tier="tier1", amount=10 * KB)
            .execute(inst, _ctx()))
        run(sim, inst.local_put("k", b"z" * (5 * KB)))
        assert inst.tier("tier1").used_bytes == 5 * KB


class TestMisc:
    def test_unknown_tier_raises(self, world):
        sim, *_ = world
        inst = make_instance(world, memory_only_policy())
        with pytest.raises(TieraError):
            inst.tier("tier99")

    def test_request_window_counts(self, world):
        sim, *_ = world
        inst = make_instance(world, memory_only_policy())
        inst.note_request("app")
        inst.note_request("app")
        inst.note_request("peer-1")
        counts = inst.requests_in_window(60.0)
        assert counts == {"app": 2, "peer-1": 1}

    def test_read_preference_fastest_first(self, world):
        sim, *_ = world
        policy = LocalPolicy(
            name="two",
            tiers=(TierSpec("slow", "s3", None),
                   TierSpec("fast", "memcached", 1 * GB)),
            rules=(Rule(InsertEvent(None), (StoreResponse(to="slow"),)),))
        inst = make_instance(world, policy)
        assert inst.read_preference(["slow", "fast"]) == ["fast", "slow"]

    def test_host_crash_wipes_volatile_only(self, world):
        sim, *_ = world
        inst = make_instance(world, builtin_policy("PersistentInstance"))
        run(sim, inst.local_put("k", b"v"))
        inst.on_host_crash()
        m = inst.meta.get_record("k").latest()
        assert m.locations == {"tier2"}  # memcached copy gone, EBS kept
        data, *_ = run(sim, inst.read_version("k"))
        assert data == b"v"

    def test_delete_response_purges(self, world):
        sim, *_ = world
        inst = make_instance(world, memory_only_policy())
        run(sim, inst.local_put("k", b"v"))
        run(sim, DeleteResponse(what=ObjectSelector(location="tier1"))
            .execute(inst, _ctx()))
        assert inst.meta.get_record("k") is None

    def test_tags_stored(self, world):
        sim, *_ = world
        inst = make_instance(world, memory_only_policy())
        run(sim, inst.local_put("k", b"v", tags=("tmp",)))
        assert inst.meta.get_record("k").tags == {"tmp"}

    def test_selector_by_tag(self, world):
        sim, *_ = world
        inst = make_instance(world, memory_only_policy())
        run(sim, inst.local_put("a", b"v", tags=("tmp",)))
        run(sim, inst.local_put("b", b"v"))
        sel = ObjectSelector(tags=frozenset({"tmp"}))
        hits = DeleteResponse(what=sel)._targets(inst, sel, _ctx())
        assert [r.key for r, _ in hits] == ["a"]


def _ctx():
    from repro.tiera.responses import ResponseContext
    return ResponseContext()
