"""End-to-end integration scenarios straight from the paper's sections."""

import numpy as np
import pytest

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.net import US_EAST, US_WEST
from repro.net.topology import Topology
from repro.policydsl import builtin_policy
from repro.tiera import InstanceTier
from repro.tiera.policy import memory_only_policy
from repro.util.units import KB, MS
from repro.workloads import YcsbClient, YcsbWorkload
from repro.workloads.sysbench import SysbenchFileIO


class TestSimplerConsistency:
    """Figure 6(b): several DCs in one region, one fast primary (§3.3.3)."""

    def _topology(self):
        metro = ("us-west-1", "us-west-2", "us-west-3")
        # 4 ms one-way within a metro
        return Topology({frozenset((a, b)): 4.0
                         for i, a in enumerate(metro) for b in metro[i + 1:]})

    def test_nearby_dc_forwarding(self):
        spec = builtin_policy("SimplerConsistency")
        dep = build_deployment(spec.regions(), topology=self._topology(),
                               wiera_region="us-west-1", seed=4)
        instances = dep.start_wiera_instance("simpler", spec)
        client = dep.add_client("us-west-2", instances=instances)

        def app():
            put = yield from client.put("k", b"v" * (4 * KB))
            got = yield from client.get("k")
            return put, got
        put, got = dep.drive(app())
        # The put was forwarded to the us-west-1 primary: ~one metro RTT.
        assert put["primary"].endswith("us-west-1")
        assert 8 * MS <= put["latency"] <= 40 * MS
        assert got["data"] == b"v" * (4 * KB)
        # No global lock was involved: far cheaper than MultiPrimaries.
        assert dep.wiera.lock_service.grants == 0


class TestModularInstances:
    """§3.2.2: a Tiera instance as a (read-only) tier of another."""

    def test_intermediate_over_raw(self):
        dep = build_deployment([US_EAST], seed=5)
        raw_spec = GlobalPolicySpec(
            name="RAW-BIG-DATA-INSTANCES",
            placements=(RegionPlacement(
                US_EAST, builtin_policy("SsdWithIaInstance")),),
            consistency="local")
        dep.start_wiera_instance("raw", raw_spec)
        raw = dep.instance("raw", US_EAST)

        inter_spec = GlobalPolicySpec(
            name="INTERMEDIATE-DATA",
            placements=(RegionPlacement(US_EAST, memory_only_policy()),),
            consistency="local")
        dep.start_wiera_instance("inter", inter_spec)
        inter = dep.instance("inter", US_EAST)

        # attach the raw instance as a read-only tier of the intermediate
        raw_tier = InstanceTier(
            dep.sim, inter.node, raw.node, "tier1", name="raw_data",
            remote_profile=raw.tier("tier1").profile, read_only=True,
            estimated_oneway=0.0003)

        def wire():
            yield inter.node.call(inter.node, "ctl_add_tier",
                                  {"name": "raw_data", "backend": raw_tier})
        dep.drive(wire())
        assert "raw_data" in inter.tiers

        # raw data written to the RAW instance is readable through the
        # intermediate instance's tier view
        raw.tier("tier1").preload("dataset/part-0", b"raw-bytes" * 100)
        raw_tier.mark_known("dataset/part-0")

        def use():
            data = yield from inter.tier("raw_data").read("dataset/part-0")
            # intermediate results go to the local memory tier as usual
            version = yield from inter.local_put("result-0", data[:64])
            return data, version
        data, version = dep.drive(use())
        assert data == b"raw-bytes" * 100
        assert version == 1

        # the read-only contract is enforced
        from repro.storage.backend import StorageError
        with pytest.raises(StorageError):
            dep.drive(inter.tier("raw_data").write("nope", b"x"))


class TestYcsbOnWiera:
    def test_load_and_run_with_oracle(self):
        from repro.obs.check import check
        dep = build_deployment([US_EAST, US_WEST], seed=6)
        spec = GlobalPolicySpec(
            name="y",
            placements=(RegionPlacement(US_EAST, memory_only_policy()),
                        RegionPlacement(US_WEST, memory_only_policy())),
            consistency="eventual", queue_interval=5.0)
        instances = dep.start_wiera_instance("y", spec)
        workload = YcsbWorkload.workload_a(record_count=20, value_size=256)
        east = dep.add_client(US_EAST, instances=instances)
        west = dep.add_client(US_WEST, instances=instances)
        yc_east = YcsbClient(dep.sim, east, workload,
                             np.random.default_rng(1), think_time=0.2)
        yc_west = YcsbClient(dep.sim, west, workload,
                             np.random.default_rng(2), think_time=0.2)

        def load():
            yield from yc_east.load()
        dep.drive(load())
        yc_east.start()
        yc_west.start()
        dep.sim.run(until=dep.sim.now + 60.0)
        yc_east.stop()
        yc_west.stop()
        total = yc_east.stats.ops + yc_west.stats.ops
        assert total > 400
        # the west client may race replication for freshly-loaded keys,
        # but errors must stay rare
        assert yc_east.stats.errors == 0
        assert yc_west.stats.errors < total * 0.05
        reads = check([east.history, west.history]).staleness
        assert reads.latest + reads.outdated == sum(
            len(yc.stats.latencies["get"]) for yc in (yc_east, yc_west))
        # eventual consistency with a 5 s flush produces some staleness
        assert reads.outdated > 0


class TestSysbenchSmoke:
    def test_iops_measurement_against_tier(self):
        from repro.fs import TierBlockFile
        from repro.sim import Simulator
        from repro.storage import make_tier
        from repro.util.units import GB
        sim = Simulator()
        tier = make_tier(sim, "azure_disk", 1 * GB,
                         rng=np.random.default_rng(0))
        bf = TierBlockFile(tier, "f", nblocks=64, block_size=16 * KB)
        bf.prepare()
        bench = SysbenchFileIO(sim, bf, threads=2, read_prop=0.8,
                               duration=10.0,
                               rng=np.random.default_rng(1))
        proc = sim.process(bench.run())
        sim.run(until=proc)
        result = bench.result
        assert result.ops == result.reads + result.writes
        assert result.reads > result.writes  # 80/20 mix
        assert 400 <= result.iops <= 510    # the 500-IOPS cap binds
        assert result.duration == pytest.approx(10.0, rel=0.05)


class TestRubisSmoke:
    def test_short_run_counts_only_measure_window(self):
        from repro.db import MiniDB
        from repro.fs import TierBlockFile
        from repro.net.vmprofiles import get_profile
        from repro.sim import Simulator
        from repro.storage import make_tier
        from repro.util.units import GB, MB
        from repro.workloads.rubis import RubisApp, RubisBenchmark
        sim = Simulator()
        tier = make_tier(sim, "azure_disk", 8 * GB,
                         rng=np.random.default_rng(0))
        bf = TierBlockFile(tier, "db", nblocks=16384, block_size=16 * KB)
        bf.prepare()
        db = MiniDB(sim, bf, buffer_pool_bytes=16 * MB)
        app = RubisApp(sim, db, get_profile("azure.standard_d2"),
                       np.random.default_rng(1))
        bench = RubisBenchmark(sim, app, clients=50, think_time=0.5,
                               duration=20, ramp_up=8, ramp_down=4,
                               rng=np.random.default_rng(2))
        proc = sim.process(bench.run())
        sim.run(until=proc)
        assert bench.stats.requests > 0
        assert bench.stats.total_requests > bench.stats.requests
        assert bench.stats.errors == 0
        assert 0 < bench.throughput <= 50 / 0.5 + 1
        assert set(bench.stats.per_txn) <= {
            t.name for t in __import__(
                "repro.workloads.rubis", fromlist=["RUBIS_MIX"]).RUBIS_MIX}


class TestRubisErrors:
    """A request the database's storage fails is an error; a bug is not."""

    def _stats(self, error):
        from repro.sim import Simulator
        from repro.workloads.rubis import RUBIS_MIX, RubisBenchmark
        sim = Simulator()

        class FailingApp:
            def pick_txn(self):
                return RUBIS_MIX[0]

            def handle(self, txn):
                yield sim.timeout(0.01)
                raise error
        bench = RubisBenchmark(sim, FailingApp(), clients=1, think_time=0.5,
                               duration=1, ramp_up=0.1, ramp_down=0.1,
                               rng=np.random.default_rng(0))
        sim.run(until=sim.process(bench.run()))
        return bench.stats

    def test_a_failed_storage_request_is_counted(self):
        from repro.storage.backend import StorageError
        stats = self._stats(StorageError("disk gone"))
        assert stats.errors > 0 and stats.total_requests == 0

    def test_a_bug_propagates(self):
        with pytest.raises(TypeError):
            self._stats(TypeError("a bug"))


class TestInstanceRpcSurface:
    def test_stats_and_list_keys(self):
        dep = build_deployment([US_EAST], seed=7)
        spec = GlobalPolicySpec(
            name="s",
            placements=(RegionPlacement(US_EAST, memory_only_policy()),),
            consistency="local")
        instances = dep.start_wiera_instance("s", spec)
        client = dep.add_client(US_EAST, instances=instances)
        node = instances[0]["node"]

        def app():
            yield from client.put("a", b"1")
            yield from client.put("b", b"2")
            stats = yield client.node.call(node, "stats")
            digest = yield client.node.call(node, "digest")
            return stats, digest
        stats, digest = dep.drive(app())
        assert stats["objects"] == 2
        assert stats["puts_from_app"] == 2
        assert [(key, stamp[0]) for key, stamp in
                sorted(digest["keys"].items())] == [("a", 1), ("b", 1)]
