"""Figure 8 + Table 3: changing the primary instance with user location.

Setup (per §5.2): instances in Asia East (initial primary), EU West and
US West under PrimaryBackup with asynchronous (queued) replication; 10
clients per region whose activity follows a normal (Gaussian) curve over
time, peaking region after region (Asia -> EU -> US); read-mostly workload
(5% put / 95% get).  The ChangePrimary policy moves the primary to the
instance forwarding the most puts.

Expected shape (paper): 69% of gets see outdated data with a static
primary vs 39% when the primary changes; average put latency drops from
{EU 216.6, US 105.3, Asia <5, overall 105.2} ms to
{95.2, 72.2, 40.6, 68.1} ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.harness import build_deployment
from repro.bench.reporting import ExperimentReport
from repro.net.topology import ASIA_EAST, EU_WEST, US_WEST
from repro.policydsl import builtin_policy
from repro.util.units import MINUTE, MS
from repro.workloads.clients import GeoClientPopulation
from repro.obs.check import check
from repro.workloads.ycsb import YcsbClient, YcsbWorkload

REGIONS = (ASIA_EAST, EU_WEST, US_WEST)


@dataclass
class Fig8Result:
    outdated_fraction: float = 0.0
    total_reads: int = 0
    put_latency_ms: dict = field(default_factory=dict)   # region -> mean ms
    overall_put_ms: float = 0.0
    primary_history: list = field(default_factory=list)  # (t, instance_id)


def _run_one(changing: bool, seed: int, duration: float,
             clients_per_region: int, record_count: int) -> Fig8Result:
    dep = build_deployment(REGIONS, seed=seed)
    spec = builtin_policy("ChangePrimary")
    if not changing:
        # Same placements and replication mode, no ChangePrimary monitor.
        from dataclasses import replace
        spec = replace(spec, name="StaticPrimary", change_primary=None)
    instances = dep.start_wiera_instance("fig8", spec)

    workload = YcsbWorkload.workload_b(record_count=record_count,
                                       value_size=1024)
    population = GeoClientPopulation.staggered(
        list(REGIONS), first_peak=7.5 * MINUTE, stagger=7.5 * MINUTE,
        sigma=5 * MINUTE, max_clients=clients_per_region, min_clients=1)

    loader = dep.add_client(ASIA_EAST, instances=instances, name="loader")

    def load():
        yc = YcsbClient(dep.sim, loader, workload, dep.rng.stream("loader"))
        yield from yc.load(record_count)
    dep.drive(load())
    t0 = dep.sim.now

    by_region: dict[str, list] = {r: [] for r in REGIONS}
    ycsb_clients = []
    for region in REGIONS:
        for i in range(clients_per_region):
            client = dep.add_client(region, instances=instances,
                                    name=f"cl-{region}-{i}")
            yc = YcsbClient(
                dep.sim, client, workload,
                dep.rng.stream(f"ycsb-{region}-{i}"), think_time=0.5,
                is_active=population.activity_gate(dep.sim, region, i))
            by_region[region].append(client)
            ycsb_clients.append(yc)
            yc.start()
    dep.sim.run(until=t0 + duration)
    for yc in ycsb_clients:
        yc.stop()

    result = Fig8Result()
    reads = check(c.history for clients in by_region.values()
                  for c in clients).staleness
    result.outdated_fraction = reads.outdated_fraction
    result.total_reads = reads.latest + reads.outdated
    all_latencies = []
    for region in REGIONS:
        vals = [v for c in by_region[region]
                for v in c.history.latencies("put")]
        result.put_latency_ms[region] = (sum(vals) / len(vals) / MS
                                         if vals else 0.0)
        all_latencies.extend(vals)
    result.overall_put_ms = (sum(all_latencies) / len(all_latencies) / MS
                             if all_latencies else 0.0)
    tim = dep.tim("fig8")
    if hasattr(tim.protocol, "config"):
        result.primary_history = [(t - t0, iid)
                                  for (t, iid) in tim.protocol.config.history]
    return result


def run_fig8_table3(seed: int = 0, duration: float = 32 * MINUTE,
                    clients_per_region: int = 10,
                    record_count: int = 10) -> tuple:
    static = _run_one(False, seed, duration, clients_per_region, record_count)
    changing = _run_one(True, seed, duration, clients_per_region, record_count)

    fig8 = ExperimentReport(
        exp_id="fig8",
        title="Fraction of gets returning latest vs outdated data",
        columns=["configuration", "latest (%)", "outdated (%)", "reads"],
        paper_claim="static primary: 69% outdated; changing primary: 39%")
    fig8.add_row("static primary",
                 100 * (1 - static.outdated_fraction),
                 100 * static.outdated_fraction, static.total_reads)
    fig8.add_row("changing primary",
                 100 * (1 - changing.outdated_fraction),
                 100 * changing.outdated_fraction, changing.total_reads)
    fig8.notes = ("primary moves: "
                  + " -> ".join(iid.rsplit("-", 2)[-2] + "-"
                                + iid.rsplit("-", 2)[-1]
                                for _, iid in changing.primary_history))

    table3 = ExperimentReport(
        exp_id="table3",
        title="Average put operation latency (ms)",
        columns=["configuration", "EU West", "US West", "Asia East",
                 "overall"],
        paper_claim=("static {216.61, 105.26, <5, 105.18}; "
                     "changing {95.19, 72.20, 40.60, 68.13}"))
    for name, res in (("static", static), ("changing", changing)):
        table3.add_row(name,
                       res.put_latency_ms[EU_WEST],
                       res.put_latency_ms[US_WEST],
                       res.put_latency_ms[ASIA_EAST],
                       res.overall_put_ms)
    return (static, changing), fig8, table3
