"""Tests for the Table 4 cost model and runtime ledger.  Table 4's prices
live on the tier profiles (``TIER_PROFILES``); the arithmetic here reads
them from there."""

import pytest

from repro import (GlobalPolicySpec, RegionPlacement, build_deployment)
from repro.net import EU_WEST, US_EAST, US_WEST
from repro.sim import Simulator
from repro.storage import (TIER_PROFILES, CostLedger, make_tier,
                           monthly_storage_cost)
from repro.tiera.policy import disk_only_policy, memory_only_policy
from repro.storage.cost import (
    HOURS_PER_MONTH,
    migration_savings,
    network_cost,
    price_for,
    request_cost,
)
from repro.util.units import GB, HOUR


@pytest.fixture
def sim():
    return Simulator()


def run(sim, gen):
    proc = sim.process(gen)
    return sim.run(until=proc)


COLD_8TB = 8000 * GB  # the paper's arithmetic uses decimal terabytes


class TestStaticArithmetic:
    def test_paper_sec53_ssd_saving(self):
        """8 TB from EBS SSD to S3-IA saves $700/month (the paper's number)."""
        ssd, ia = TIER_PROFILES["ebs_ssd"], TIER_PROFILES["s3_ia"]
        assert migration_savings(COLD_8TB, "ebs_ssd", "s3_ia") == pytest.approx(
            8000 * (ssd.storage_price - ia.storage_price))
        assert migration_savings(COLD_8TB, "ebs_ssd", "s3_ia") == pytest.approx(
            700.0, abs=1.0)

    def test_paper_sec53_hdd_saving(self):
        assert migration_savings(COLD_8TB, "ebs_hdd", "s3_ia") == pytest.approx(
            300.0, abs=1.0)

    def test_centralization_saving(self):
        """Dropping 3 of 4 cold replicas saves ~$100/region (paper §5.3)."""
        per_region = monthly_storage_cost("s3_ia", COLD_8TB)
        assert per_region == pytest.approx(
            8000 * TIER_PROFILES["s3_ia"].storage_price)
        assert per_region == pytest.approx(100.0, abs=0.5)

    def test_request_cost(self):
        ia = TIER_PROFILES["s3_ia"]
        assert request_cost("s3_ia", puts=20_000) == pytest.approx(
            2 * ia.put_price)
        assert request_cost("s3_ia", puts=20_000) == pytest.approx(0.2)
        assert request_cost("s3_ia", gets=30_000) == pytest.approx(
            3 * ia.get_price)
        assert request_cost("ebs_ssd", puts=10**6, gets=10**6) == 0.0

    def test_network_cost_scopes(self):
        assert network_cost(10 * GB, "intra_dc") == 0.0
        assert network_cost(10 * GB, "inter_region") == pytest.approx(0.2)
        assert network_cost(10 * GB, "internet") == pytest.approx(0.9)
        with pytest.raises(KeyError):
            network_cost(1, "interplanetary")

    def test_unknown_tier(self):
        assert price_for("s3") is TIER_PROFILES["s3"]
        with pytest.raises(KeyError):
            price_for("tape")
        with pytest.raises(KeyError):
            monthly_storage_cost("tape", GB)
        with pytest.raises(KeyError):
            request_cost("tape", puts=1)


class TestLedger:
    def test_storage_integration(self, sim):
        ledger = CostLedger(sim)
        tier = make_tier(sim, "ebs_ssd", 10 * GB, ledger=ledger,
                         region="us-east")
        tier.preload("k", b"x" * GB)
        sim.run(until=HOURS_PER_MONTH * HOUR)  # one billing month
        ledger.finalize([tier])
        # 1 GB on SSD for one month = $0.10
        assert ledger.storage_dollars() == pytest.approx(0.10, rel=0.01)

    def test_requests_billed(self, sim):
        ledger = CostLedger(sim)
        tier = make_tier(sim, "s3", None, ledger=ledger)
        for i in range(100):
            run(sim, tier.write(f"k{i}", b"x"))
        for i in range(100):
            run(sim, tier.read(f"k{i}"))
        expected = 0.05 * 100 / 10_000 + 0.004 * 100 / 10_000
        assert ledger.request_dollars() == pytest.approx(expected)

    def test_request_dollars_independent_of_insertion_order(self, sim):
        # Float addition is not associative: per-tier terms must be added
        # in one fixed order or identical runs differ in the last bit.
        tiers = [make_tier(sim, name, GB, region=f"r{i}") for i, name in
                 enumerate(["s3", "s3_ia", "glacier", "ebs_hdd"] * 6)]

        def fill(order):
            ledger = CostLedger(sim)
            for tier in order:
                weight = 1 + 7 * tiers.index(tier)
                for _ in range(weight):
                    ledger.record_put(tier)
                for _ in range(3 * weight):
                    ledger.record_get(tier)
            return ledger.request_dollars()

        assert fill(tiers) == fill(tiers[::-1]) == fill(tiers[1::2]
                                                        + tiers[::2])

    def test_network_accounting(self, sim):
        ledger = CostLedger(sim)
        ledger.record_network(5 * GB, "inter_region")
        ledger.record_network(1 * GB, "internet")
        assert ledger.network_dollars() == pytest.approx(0.02 * 5 + 0.09)

    def test_breakdown_totals(self, sim):
        ledger = CostLedger(sim)
        ledger.record_network(1 * GB, "internet")
        assert ledger.total_dollars() == pytest.approx(
            ledger.storage_dollars() + ledger.request_dollars()
            + ledger.network_dollars())

    def test_network_egress_billed_by_deployment(self):
        """Replication fan-out across regions shows up as inter-region
        egress dollars on the deployment ledger."""
        dep = build_deployment([US_EAST, US_WEST], with_ledger=True, seed=5)
        spec = GlobalPolicySpec(
            name="bill",
            placements=(RegionPlacement(US_EAST, memory_only_policy()),
                        RegionPlacement(US_WEST, memory_only_policy())),
            consistency="eventual")
        instances = dep.start_wiera_instance("bill", spec)
        client = dep.add_client(US_EAST, instances=instances)

        def app():
            for i in range(4):
                yield from client.put(f"k{i}", b"x" * 65536)
        dep.drive(app())
        dep.sim.run(until=dep.sim.now + 5)
        assert dep.ledger.network_dollars() > 0

    def test_bill_and_registry_count_the_same_requests(self):
        """Every backend's billed puts and gets are its ``storage.ops``
        writes and reads: the bill and the metrics registry never drift,
        on a memory, a block and an object tier alike."""
        regions = (US_EAST, US_WEST, EU_WEST)
        dep = build_deployment(regions, with_ledger=True, seed=5)
        spec = GlobalPolicySpec(
            name="bill",
            placements=(
                RegionPlacement(US_EAST, memory_only_policy()),
                RegionPlacement(US_WEST, disk_only_policy(profile="ebs_ssd")),
                RegionPlacement(EU_WEST, disk_only_policy(profile="s3"))),
            consistency="eventual")
        instances = dep.start_wiera_instance("bill", spec)
        clients = [dep.add_client(r, instances=instances) for r in regions]

        def app():
            for i in range(3):
                for n, client in enumerate(clients):
                    yield from client.put(f"k{i}-{n}", b"x" * 4096)
                    yield from client.get(f"k{i}-{n}")
        dep.drive(app())
        dep.sim.run(until=dep.sim.now + 5)   # replication lands
        kinds = []
        for region in regions:
            for backend in dep.instance("bill", region).tiers.values():
                kinds.append(backend.profile.kind)
                billed = f"{backend.region}/{backend.name}"
                writes = dep.metric_total("storage.ops", tier=backend.name,
                                          op="write")
                reads = dep.metric_total("storage.ops", tier=backend.name,
                                         op="read")
                assert writes > 0 and reads > 0
                assert dep.ledger._puts[billed] == writes
                assert dep.ledger._gets[billed] == reads
        assert sorted(kinds) == ["block", "memory", "object"]

    def test_chunked_egress_parity(self, monkeypatch):
        """Segmentation schedules bytes, it does not bill them: a transfer
        is billed once, the same dollars however many segments carry it."""
        def egress(segment_bytes):
            monkeypatch.setattr("repro.net.network.SEGMENT_BYTES",
                                segment_bytes)
            dep = build_deployment([US_EAST, US_WEST], with_ledger=True,
                                   seed=5)
            spec = GlobalPolicySpec(
                name="bill",
                placements=(RegionPlacement(US_EAST, memory_only_policy()),
                            RegionPlacement(US_WEST, memory_only_policy())),
                consistency="eventual")
            instances = dep.start_wiera_instance("bill", spec)
            client = dep.add_client(US_EAST, instances=instances)

            def app():
                for i in range(4):
                    yield from client.put(f"k{i}", b"x" * 65536)
                    yield from client.get(f"k{i}")
            dep.drive(app())
            dep.sim.run(until=dep.sim.now + 5)
            return (dep.ledger.network_dollars(),
                    dep.metric_total("net.chunks"))

        whole, no_segments = egress(1 << 30)
        split, segments = egress(8192)
        # 4 puts + 4 get replies of 64 KB (+ envelope): 9 segments each,
        # before the replication flush.
        assert no_segments == 0 and segments >= (4 + 4) * 9
        assert whole > 0
        assert split == pytest.approx(whole, rel=1e-12)

    def test_migration_lowers_bill(self, sim):
        """Moving bytes SSD -> S3-IA mid-period reduces the ongoing rate."""
        ledger = CostLedger(sim)
        ssd = make_tier(sim, "ebs_ssd", 10 * GB, ledger=ledger)
        ia = make_tier(sim, "s3_ia", None, ledger=ledger)
        ssd.preload("k", b"x" * GB)
        sim.run(until=100 * HOUR)
        ledger.record_usage(ssd)
        first_period = ledger.storage_dollars()

        def migrate():
            data = yield from ssd.read("k")
            yield from ia.write("k", data)
            yield from ssd.delete("k")
        run(sim, migrate())
        sim.run(until=200 * HOUR)
        ledger.finalize([ssd, ia])
        second_period = ledger.storage_dollars() - first_period
        assert second_period < first_period * 0.2
