"""Ablation: where should the global lock service live?

MultiPrimaries put latency is dominated by lock round trips plus the
widest replica RTT (§5.1 analysis).  The paper co-locates Zookeeper with
Wiera in US East; this ablation moves the lock region and measures the
put latency seen by a US West application, showing the placement tradeoff
a deployment owner faces.
"""

from repro.bench.harness import build_deployment
from repro.bench.reporting import ExperimentReport, register_report
from repro.net.topology import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.policydsl import builtin_policy
from repro.util.units import MS

REGIONS = (US_WEST, US_EAST, EU_WEST, ASIA_EAST)


def _put_latency_from_us_west(lock_region: str, ops: int = 40) -> float:
    dep = build_deployment(REGIONS, wiera_region=lock_region, seed=7)
    spec = builtin_policy("DynamicConsistency")
    from dataclasses import replace
    spec = replace(spec, dynamic=None)  # pure MultiPrimaries
    instances = dep.start_wiera_instance("ablock", spec)
    client = dep.add_client(US_WEST, instances=instances, name="app")

    def workload():
        for i in range(ops):
            yield from client.put(f"k{i}", b"x" * 1024)
    dep.drive(workload())
    return client.history.mean_latency("put") / MS


def _run():
    return {region: _put_latency_from_us_west(region)
            for region in (US_EAST, US_WEST, EU_WEST)}


def test_ablation_lock_placement(benchmark):
    latencies = benchmark.pedantic(_run, rounds=1, iterations=1)
    report = ExperimentReport(
        exp_id="ablation-lock",
        title="Ablation: MultiPrimaries put latency (US West app) vs lock "
              "service placement",
        columns=["lock region", "put latency (ms)"],
        paper_claim="(design choice; paper co-locates Zookeeper with Wiera "
                    "in US East)")
    for region, ms in latencies.items():
        report.add_row(region, ms)
    register_report(report)

    # Locks next to the writer are cheapest; EU adds two transatlantic
    # round trips over US East.
    assert latencies[US_WEST] < latencies[US_EAST] < latencies[EU_WEST]
    # But even the best placement cannot beat the widest replica RTT.
    assert latencies[US_WEST] > 100.0
