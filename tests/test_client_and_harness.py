"""Tests for the client library, deployment harness, and reporting."""

import pytest

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.bench import reporting
from repro.bench.harness import preload_object
from repro.bench.reporting import (
    ExperimentReport,
    all_reports,
    dump_reports,
    register_report,
    render_all,
)
from repro.net import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST, EU_WEST)


@pytest.fixture
def dep():
    d = build_deployment(REGIONS, seed=2)
    spec = GlobalPolicySpec(
        name="cl",
        placements=tuple(RegionPlacement(r, memory_only_policy())
                         for r in REGIONS),
        consistency="multi_primaries")
    instances = d.start_wiera_instance("cl", spec)
    return d, instances


class TestClientProximity:
    def test_attach_orders_by_latency(self, dep):
        d, instances = dep
        client = d.add_client(EU_WEST, instances=instances)
        regions = [i["region"] for i in client.route("k")]
        assert regions[0] == EU_WEST
        assert regions[-1] == US_WEST  # farthest from EU West

    def test_client_from_unplaced_region_picks_nearest(self, dep):
        d, instances = dep
        client = d.add_client(ASIA_EAST, instances=instances)
        # Asia East has no instance; US West is the closest at 55 ms
        assert client.route("k")[0]["region"] == US_WEST

    def test_latency_recorded_with_region_label(self, dep):
        d, instances = dep
        client = d.add_client(US_EAST, instances=instances)

        def app():
            yield from client.put("k", b"v")
            yield from client.get("k")
        d.drive(app())
        history = client.history
        assert history.op == ["put", "get"] and history.outcome == [None] * 2
        assert history.latencies("put") and history.latencies("get")
        # the closest instance, in the client's own region, served both
        served = d.instance("cl", US_EAST)
        assert (served.puts_from_app, served.gets_from_app) == (1, 1)


class TestHarness:
    def test_deployment_shape(self, dep):
        d, _ = dep
        assert set(d.servers) == {(r, "aws") for r in REGIONS}
        assert d.wiera.host.region == US_EAST
        # heartbeats are running
        assert d.wiera.tsm.heartbeats.running

    def test_instance_lookup(self, dep):
        d, _ = dep
        inst = d.instance("cl", US_WEST)
        assert inst.region == US_WEST
        with pytest.raises(KeyError):
            d.instance("cl", ASIA_EAST)

    def test_drive_propagates_failures(self, dep):
        d, _ = dep

        def boom():
            yield d.sim.timeout(1.0)
            raise ValueError("inner")
        with pytest.raises(ValueError, match="inner"):
            d.drive(boom())

    def test_preload_object(self, dep):
        d, _ = dep
        targets = [d.instance("cl", r) for r in REGIONS]
        preload_object(targets, "seed", b"data" * 100)
        for inst in targets:
            record = inst.meta.get_record("seed")
            assert record.latest_version == 1
            assert inst.tier("tier1")._data["seed#v1"] == b"data" * 100

    def test_preload_duplicate_version_rejected(self, dep):
        d, _ = dep
        inst = d.instance("cl", US_EAST)
        preload_object([inst], "k", b"x")
        with pytest.raises(ValueError):
            preload_object([inst], "k", b"y")

    def test_providers_map(self):
        d = build_deployment([US_EAST],
                             providers={US_EAST: ("aws", "azure")})
        assert (US_EAST, "aws") in d.servers
        assert (US_EAST, "azure") in d.servers
        assert d.server(US_EAST, "azure").host.provider == "azure"

    def test_deterministic_deployments(self):
        def run_once():
            d = build_deployment(REGIONS, seed=33)
            spec = GlobalPolicySpec(
                name="det",
                placements=tuple(RegionPlacement(r, memory_only_policy())
                                 for r in REGIONS),
                consistency="multi_primaries")
            instances = d.start_wiera_instance("det", spec)
            client = d.add_client(US_WEST, instances=instances)

            def app():
                out = []
                for i in range(5):
                    result = yield from client.put(f"k{i}", b"v" * 64)
                    out.append(round(result["latency"], 9))
                return out
            return d.drive(app())
        assert run_once() == run_once()


class TestReporting:
    @pytest.fixture(autouse=True)
    def fresh_registry(self, monkeypatch):
        monkeypatch.setattr(reporting, "_REGISTRY", [])

    def test_report_render(self):
        report = ExperimentReport(
            exp_id="x", title="Demo", columns=["a", "b"],
            paper_claim="claim", notes="note")
        report.add_row("row", 1.2345)
        text = report.render()
        assert "Demo" in text and "claim" in text and "note" in text
        assert "1.23" in text

    def test_row_arity_checked(self):
        report = ExperimentReport(exp_id="x", title="t", columns=["a"])
        with pytest.raises(ValueError):
            report.add_row(1, 2)

    def test_registry_and_dump(self, tmp_path):
        report = ExperimentReport(exp_id="dumpme", title="t", columns=["a"])
        report.add_row(42)
        register_report(report)
        assert all_reports() == [report]
        assert "dumpme" in render_all()
        combined = dump_reports(tmp_path)
        assert combined.exists()
        assert (tmp_path / "dumpme.txt").read_text().startswith("== dumpme")

    def test_dump_empty_registry(self, tmp_path):
        assert dump_reports(tmp_path) is None
