"""Tests for the storage-tier substrate."""

from dataclasses import replace

import numpy as np
import pytest

from repro.sim import Simulator
from repro.storage import (
    ArchivalTier,
    BlockTier,
    CapacityExceededError,
    MemoryTier,
    ObjectMissingError,
    ObjectStoreTier,
    StorageBackend,
    TIER_PROFILES,
    get_tier_profile,
    make_tier,
)
from repro.storage.archival import RESTORE_WINDOW
from repro.util.units import GB, HOUR, MB


@pytest.fixture
def sim():
    return Simulator()


def run(sim, gen):
    proc = sim.process(gen)
    return sim.run(until=proc)


def timed(sim, gen):
    proc = sim.process(gen)
    start = sim.now
    sim.run(until=proc)
    return sim.now - start


class TestProfiles:
    def test_aliases(self):
        assert get_tier_profile("Memcached").name == "memcached"
        assert get_tier_profile("LocalDisk").name == "ebs_ssd"
        assert get_tier_profile("S3-IA").name == "s3_ia"
        assert get_tier_profile("CheapestArchival").name == "glacier"

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_tier_profile("floppy")

    def test_fig9_ordering(self):
        """Cheaper tiers are slower — the premise of Fig. 9 / Table 4."""
        ssd = TIER_PROFILES["ebs_ssd"]
        hdd = TIER_PROFILES["ebs_hdd"]
        s3 = TIER_PROFILES["s3"]
        ia = TIER_PROFILES["s3_ia"]
        assert ssd.read_latency < hdd.read_latency < s3.read_latency
        assert s3.read_latency <= ia.read_latency
        assert ssd.storage_price > hdd.storage_price > s3.storage_price
        assert s3.storage_price > ia.storage_price


class TestBackendBasics:
    def test_write_read_roundtrip(self, sim):
        tier = make_tier(sim, "ebs_ssd", 1 * GB)
        run(sim, tier.write("k", b"hello"))
        assert run(sim, tier.read("k")) == b"hello"
        assert tier.used_bytes == 5
        assert "k" in tier and len(tier) == 1

    def test_overwrite_updates_usage(self, sim):
        tier = make_tier(sim, "ebs_ssd", 1 * GB)
        run(sim, tier.write("k", b"x" * 100))
        run(sim, tier.write("k", b"y" * 40))
        assert tier.used_bytes == 40
        assert run(sim, tier.read("k")) == b"y" * 40

    def test_capacity_enforced(self, sim):
        tier = make_tier(sim, "ebs_ssd", 100)
        with pytest.raises(CapacityExceededError):
            run(sim, tier.write("k", b"z" * 101))
        assert "k" not in tier

    def test_missing_key(self, sim):
        tier = make_tier(sim, "ebs_ssd", 1 * GB)
        with pytest.raises(ObjectMissingError):
            run(sim, tier.read("nope"))
        with pytest.raises(ObjectMissingError):
            run(sim, tier.delete("nope"))

    def test_delete_frees_space(self, sim):
        tier = make_tier(sim, "ebs_ssd", 1 * GB)
        run(sim, tier.write("k", b"d" * 10))
        run(sim, tier.delete("k"))
        assert tier.used_bytes == 0 and "k" not in tier

    def test_grow(self, sim):
        tier = make_tier(sim, "ebs_ssd", 100)
        tier.grow(100)
        run(sim, tier.write("k", b"z" * 150))
        assert tier.used_bytes == 150

    def test_write_latency_size_dependent(self, sim):
        tier = make_tier(sim, "s3", None)
        small = timed(sim, tier.write("a", b"x" * 1024))
        large = timed(sim, tier.write("b", b"x" * (8 * MB)))
        assert large > small + 0.1

    def test_jitter_deterministic(self):
        def one_run():
            sim = Simulator()
            tier = make_tier(sim, "ebs_ssd", 1 * GB,
                             rng=np.random.default_rng(42))
            times = []
            for i in range(5):
                times.append(timed(sim, tier.write(f"k{i}", b"x" * 4096)))
            return times

        assert one_run() == one_run()

    @pytest.mark.parametrize("sigma", sorted({
        profile.jitter_sigma for profile in TIER_PROFILES.values()}))
    def test_block_jitter_is_one_draw_per_access(self, sim, sigma):
        """A tier draws its service-time jitter a block at a time; the
        sequence must be the per-access scalar draw it replaced, value for
        value (a numpy property this pins)."""
        rng = np.random.default_rng(11)
        reference = [float(rng.lognormal(mean=0.0, sigma=sigma))
                     for _ in range(1500)]
        profile = replace(TIER_PROFILES["ebs_ssd"], jitter_sigma=sigma)
        tier = StorageBackend(sim, profile, 1 * GB,
                              rng=np.random.default_rng(11))
        assert [tier._jitter() for _ in range(1500)] == reference

    def test_preload_is_instant_and_counted(self, sim):
        tier = make_tier(sim, "ebs_ssd", 1 * GB)
        tier.preload("k", b"fast" * 100)
        assert sim.now == 0.0
        assert tier.used_bytes == 400
        assert run(sim, tier.read("k")) == b"fast" * 100

    def test_non_bytes_rejected(self, sim):
        tier = make_tier(sim, "ebs_ssd", 1 * GB)
        with pytest.raises(TypeError):
            run(sim, tier.write("k", "a string"))


class TestIopsCap:
    def test_completion_rate_capped(self, sim):
        tier = make_tier(sim, "azure_disk", 10 * GB)
        tier.preload("k", b"x" * 4096)
        ops = 200

        def reader():
            for _ in range(ops):
                yield from tier.read("k")

        elapsed = timed(sim, reader())
        iops = ops / elapsed
        assert 450 <= iops <= 505

    def test_concurrency_does_not_exceed_cap(self, sim):
        tier = make_tier(sim, "azure_disk", 10 * GB)
        tier.preload("k", b"x" * 4096)
        done = []

        def reader(n):
            for _ in range(n):
                yield from tier.read("k")
            done.append(sim.now)

        for _ in range(8):
            sim.process(reader(50))
        sim.run()
        iops = 400 / max(done)
        assert iops <= 505


class TestMemoryTier:
    def test_requires_volatile_profile(self, sim):
        with pytest.raises(ValueError):
            MemoryTier(sim, get_tier_profile("ebs_ssd"), 1 * GB)

    def test_crash_wipes(self, sim):
        tier = make_tier(sim, "memcached", 1 * GB)
        run(sim, tier.write("k", b"gone"))
        tier.on_host_crash()
        assert "k" not in tier and tier.used_bytes == 0

    def test_oversized_object_rejected(self, sim):
        tier = make_tier(sim, "memcached", 1000)
        with pytest.raises(CapacityExceededError):
            run(sim, tier.write("k", b"x" * 2000))


class TestBlockTier:
    def test_direct_io_never_caches(self, sim):
        tier = BlockTier(sim, get_tier_profile("ebs_hdd"), 1 * GB)
        run(sim, tier.write("k", b"x" * 4096))
        t1 = timed(sim, tier.read("k"))
        t2 = timed(sim, tier.read("k"))
        assert t2 > t1 / 10  # both reads hit the device


class TestObjectStore:
    def test_unbounded_by_default(self, sim):
        tier = ObjectStoreTier(sim, get_tier_profile("s3"))
        run(sim, tier.write("k", b"x" * (64 * MB)))
        assert tier.fill_fraction < 1e-6

    def test_wrong_profile_kind(self, sim):
        with pytest.raises(ValueError):
            ObjectStoreTier(sim, get_tier_profile("ebs_ssd"), 1 * GB)


class TestArchival:
    def test_blocking_read_waits_for_restore(self, sim):
        tier = make_tier(sim, "glacier", None)
        tier.preload("k", b"frozen")
        elapsed = timed(sim, tier.read("k"))
        assert elapsed >= tier.profile.retrieval_delay

    def test_restored_window_allows_fast_reads(self, sim):
        tier = make_tier(sim, "glacier", None)
        tier.preload("k", b"frozen")
        run(sim, tier.read("k"))      # waits out the restore
        fast = timed(sim, tier.read("k"))
        assert fast < 1.0             # already restored
        assert tier.restores_started == 1

    def test_restore_window_expires(self, sim):
        tier = ArchivalTier(sim, get_tier_profile("glacier"))
        tier.preload("k", b"frozen")
        run(sim, tier.read("k"))
        sim.run(until=sim.now + RESTORE_WINDOW - 1 * HOUR)
        assert tier.is_restored("k")
        sim.run(until=sim.now + 2 * HOUR)
        assert not tier.is_restored("k")
