"""Integration: the Figure 6(a) ReducedCostPolicy with a Glacier tier.

Unlike S3-IA, Glacier reads require a restore job (hours).  The paper
notes an application "may want to move data to Glacier instead of S3 not
only for durable storage but also to reduce the price of cold data" — at
the cost of the retrieval asymmetry this test exercises end to end.
"""

import pytest

from repro import build_deployment
from repro.net import US_WEST
from repro.policydsl import builtin_policy
from repro.util.units import HOUR, KB


@pytest.fixture
def world():
    dep = build_deployment([US_WEST], seed=37)
    # ReducedCostPolicy: LocalDisk tier1 + CheapestArchival (Glacier) tier2,
    # cold after 120 hours (Figure 6(a)); hourly scans for test speed.
    spec = builtin_policy("ReducedCostPolicy",
                          params={"cold_check_interval": 1 * HOUR})
    dep.start_wiera_instance("rc", spec)
    return dep, dep.instance("rc", US_WEST)


def test_policy_compiled_with_archival_tier(world):
    dep, inst = world
    assert inst.tier("tier2").profile.name == "glacier"
    assert inst.tier("tier2").profile.kind == "archival"


def test_cold_object_moves_to_glacier(world):
    dep, inst = world

    def seed():
        yield from inst.local_put("cold-doc", b"\x07" * (16 * KB))
        yield from inst.local_put("hot-doc", b"\x08" * (16 * KB))
    dep.drive(seed())

    def keep_hot():
        for _ in range(6):
            yield dep.sim.timeout(24 * HOUR)
            yield from inst.read_version("hot-doc")
    dep.drive(keep_hot())

    cold_meta = inst.meta.get_record("cold-doc").latest()
    hot_meta = inst.meta.get_record("hot-doc").latest()
    assert cold_meta.locations == {"tier2"}
    assert "tier1" in hot_meta.locations
    # the bandwidth-capped move really throttled (100KB/s for 16KB ~= 0.16s
    # per object is charged by the policy engine; just assert the data
    # survives on glacier)
    assert inst.tier("tier2")._data[
        f"cold-doc#v{cold_meta.version}"] == b"\x07" * (16 * KB)


def test_archived_read_requires_restore(world):
    dep, inst = world

    def seed_and_freeze():
        yield from inst.local_put("doc", b"payload")
        yield from inst.move_version("doc", 1, "tier2", from_tier="tier1")
    dep.drive(seed_and_freeze())

    glacier = inst.tier("tier2")
    skey = "doc#v1"

    # archived, not restored, and no restore job running yet
    assert not glacier.is_restored(skey)
    assert not glacier.restore_pending(skey)

    # the instance-level read path starts and blocks through the restore job
    t0 = dep.sim.now

    def full_read():
        data, meta, _ = yield from inst.read_version("doc")
        return data
    data = dep.drive(full_read())
    assert data == b"payload"
    assert dep.sim.now - t0 >= 3 * HOUR


def test_restored_object_reads_fast(world):
    dep, inst = world

    def seed_and_freeze():
        yield from inst.local_put("doc", b"payload")
        yield from inst.move_version("doc", 1, "tier2", from_tier="tier1")
        yield from inst.read_version("doc")  # waits out the restore
        t0 = dep.sim.now
        yield from inst.read_version("doc")  # restored copy: fast
        return dep.sim.now - t0
    elapsed = dep.drive(seed_and_freeze())
    assert elapsed < 1.0
