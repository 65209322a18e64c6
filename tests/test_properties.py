"""Property-based tests (hypothesis) on core invariants.

Covered invariants:
* simulation determinism and causal ordering of the kernel;
* last-write-wins convergence: any interleaving of the same update set
  converges every replica to the same winner;
* transform chains always decode to the original bytes;
* the storage backend never exceeds capacity nor loses committed bytes;
* the DSL round-trips structural content for generated policies.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import Simulator
from repro.storage import make_tier
from repro.tiera import transforms
from repro.tiera.objects import ObjectRecord, VersionMeta


# ---------------------------------------------------------------------------
# kernel determinism & ordering
# ---------------------------------------------------------------------------

@st.composite
def schedules(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    return [
        (draw(st.floats(min_value=0, max_value=100, allow_nan=False)),
         draw(st.integers(min_value=0, max_value=5)))
        for _ in range(n)
    ]


class TestKernelProperties:
    @given(schedules())
    @settings(max_examples=60)
    def test_events_fire_in_time_order(self, plan):
        sim = Simulator()
        fired = []

        def proc(delay, tag):
            yield sim.timeout(delay)
            fired.append((sim.now, tag))

        for i, (delay, _) in enumerate(plan):
            sim.process(proc(delay, i))
        sim.run()
        times = [t for t, _ in fired]
        assert times == sorted(times)
        assert len(fired) == len(plan)

    @given(schedules())
    @settings(max_examples=30)
    def test_same_plan_same_trace(self, plan):
        def run_once():
            sim = Simulator()
            trace = []

            def proc(delay, tag):
                yield sim.timeout(delay)
                trace.append((sim.now, tag))

            for i, (delay, _) in enumerate(plan):
                sim.process(proc(delay, i))
            sim.run()
            return trace
        assert run_once() == run_once()

    @given(st.lists(st.floats(min_value=0.001, max_value=10,
                              allow_nan=False),
                    min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_sequential_timeouts_accumulate(self, delays):
        sim = Simulator()

        def proc():
            for d in delays:
                yield sim.timeout(d)
            return sim.now
        p = sim.process(proc())
        assert sim.run(until=p) == pytest.approx(sum(delays))


# ---------------------------------------------------------------------------
# last-write-wins convergence
# ---------------------------------------------------------------------------

@st.composite
def update_sets(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    updates = []
    for i in range(n):
        updates.append({
            "version": draw(st.integers(min_value=1, max_value=4)),
            "last_modified": draw(st.floats(min_value=0, max_value=100,
                                            allow_nan=False)),
            "data": bytes([i]),
            "origin": f"o{i}",
        })
    return updates


def lww_apply(state, update):
    """Reference LWW merge on a single-slot state dict."""
    current = state.get(update["version"])
    if current is None or (update["last_modified"]
                           > current["last_modified"]):
        state[update["version"]] = update


class TestLwwProperties:
    @given(update_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    def test_order_independent_convergence(self, updates, rnd):
        """Applying the same updates in any order yields the same visible
        latest version on a real instance, same-instant ties included (the
        stamp ranks them by origin)."""
        from repro.net import Network, US_EAST
        from repro.tiera import TieraInstance
        from repro.tiera.policy import memory_only_policy
        from repro.util.rng import RngRegistry

        def final_state(order):
            sim = Simulator()
            net = Network(sim)
            host = net.add_host("h", US_EAST)
            inst = TieraInstance(sim, net, host, "i", US_EAST,
                                 memory_only_policy(), rng=RngRegistry(0))

            def apply_all():
                for u in order:
                    yield from inst.apply_replica_update(
                        "k", u["version"], u["last_modified"], u["data"],
                        u["origin"])
            proc = sim.process(apply_all())
            sim.run(until=proc)
            record = inst.meta.get_record("k")
            meta = record.latest()
            data = inst.tier("tier1")._data[f"k#v{meta.version}"]
            return meta.version, data

        shuffled = list(updates)
        rnd.shuffle(shuffled)
        assert final_state(updates) == final_state(shuffled)

    @given(update_sets())
    @settings(max_examples=60)
    def test_reference_model_winner(self, updates):
        """The winner per version slot is always the max-mtime update."""
        state = {}
        for u in updates:
            lww_apply(state, u)
        for version, winner in state.items():
            candidates = [u for u in updates if u["version"] == version]
            assert winner["last_modified"] == max(
                u["last_modified"] for u in candidates)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

class TestTransformProperties:
    KEYRING = {"default": "secret", "alt": "other"}

    @given(st.binary(max_size=4096),
           st.lists(st.sampled_from(["zlib", "xor:default", "xor:alt"]),
                    max_size=4))
    @settings(max_examples=100)
    def test_chain_roundtrip(self, payload, chain):
        data = payload
        for name in chain:
            data = transforms.encode(name, data, self.KEYRING)
        assert transforms.decode_chain(tuple(chain), data,
                                       self.KEYRING) == payload

    @given(st.binary(min_size=1, max_size=1024))
    @settings(max_examples=50)
    def test_xor_changes_bytes(self, payload):
        encoded = transforms.encode("xor:default", payload, self.KEYRING)
        assert len(encoded) == len(payload)
        if len(payload) >= 8:  # overwhelmingly likely to differ
            assert encoded != payload

    def test_unknown_transform(self):
        with pytest.raises(transforms.TransformError):
            transforms.encode("rot13", b"x", self.KEYRING)
        with pytest.raises(transforms.TransformError):
            transforms.decode("zlib", b"not zlib data", self.KEYRING)

    def test_missing_key(self):
        with pytest.raises(transforms.TransformError):
            transforms.encode("xor:nope", b"x", self.KEYRING)


# ---------------------------------------------------------------------------
# storage safety
# ---------------------------------------------------------------------------

@st.composite
def storage_ops(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["write", "overwrite", "delete"]))
        key = f"k{draw(st.integers(min_value=0, max_value=5))}"
        size = draw(st.integers(min_value=0, max_value=3000))
        ops.append((kind, key, size))
    return ops


class TestStorageProperties:
    @given(storage_ops())
    @settings(max_examples=60)
    def test_usage_accounting_exact(self, ops):
        sim = Simulator()
        tier = make_tier(sim, "memcached", 10_000,
                         rng=np.random.default_rng(0))
        shadow = {}

        def apply_all():
            for kind, key, size in ops:
                try:
                    if kind in ("write", "overwrite"):
                        yield from tier.write(key, b"x" * size)
                        shadow[key] = size
                    else:
                        if key in shadow:
                            yield from tier.delete(key)
                            del shadow[key]
                except Exception:
                    continue  # capacity refusals leave state unchanged
        proc = sim.process(apply_all())
        sim.run(until=proc)
        assert tier.used_bytes == sum(shadow.values())
        assert tier.used_bytes <= tier.capacity
        for key, size in shadow.items():
            assert len(tier._data[key]) == size


# ---------------------------------------------------------------------------
# object records
# ---------------------------------------------------------------------------

class TestRecordProperties:
    @given(st.lists(st.integers(min_value=1, max_value=50),
                    min_size=1, max_size=20, unique=True))
    @settings(max_examples=60)
    def test_latest_is_max(self, versions):
        record = ObjectRecord(key="k")
        for v in versions:
            record.add_version(VersionMeta(
                version=v, size=1, created_at=0, last_modified=0,
                last_accessed=0))
        assert record.latest_version == max(versions)
        assert record.version_list() == sorted(versions)

    @given(st.lists(st.integers(min_value=1, max_value=20),
                    min_size=2, max_size=10, unique=True))
    @settings(max_examples=60)
    def test_drop_preserves_max_invariant(self, versions):
        record = ObjectRecord(key="k")
        for v in versions:
            record.add_version(VersionMeta(
                version=v, size=1, created_at=0, last_modified=0,
                last_accessed=0))
        record.drop_version(max(versions))
        remaining = sorted(versions)[:-1]
        assert record.latest_version == max(remaining)
