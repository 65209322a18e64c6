"""Ablation: lazy-replication flush interval vs staleness and traffic.

§3.3.1: "Applications can specify how frequently queued updates need to be
distributed."  Sweeping the queue interval quantifies the tradeoff it
controls: short intervals keep replicas fresh but ship every version;
long intervals coalesce updates (less WAN traffic per §3.2.3's "reduce on
update traffic") at the price of stale reads.
"""

from dataclasses import replace

from repro.bench.harness import build_deployment
from repro.bench.reporting import ExperimentReport, register_report
from repro.net.topology import ASIA_EAST, EU_WEST, US_WEST
from repro.policydsl import builtin_policy
from repro.obs.check import check
from repro.workloads.ycsb import YcsbClient, YcsbWorkload

REGIONS = (US_WEST, EU_WEST, ASIA_EAST)


def _run_interval(queue_interval: float, duration: float = 300.0):
    dep = build_deployment(REGIONS, seed=47)
    spec = builtin_policy("EventualConsistency")
    placements = tuple(replace(p, region=r)
                       for p, r in zip(spec.placements, REGIONS))
    spec = replace(spec, placements=placements,
                   queue_interval=queue_interval)
    instances = dep.start_wiera_instance("abq", spec)
    workload = YcsbWorkload.workload_b(record_count=10, value_size=1024)
    clients = []
    loader = dep.add_client(US_WEST, instances=instances, name="loader")

    def load():
        yc = YcsbClient(dep.sim, loader, workload, dep.rng.stream("l"))
        yield from yc.load(10)
    dep.drive(load())
    for region in REGIONS:
        wc = dep.add_client(region, instances=instances, name=f"c-{region}")
        yc = YcsbClient(dep.sim, wc, workload,
                        dep.rng.stream(f"y-{region}"), think_time=0.4)
        clients.append(yc)
        yc.start()
    net_before = dep.metric_total("net.bytes")
    dep.sim.run(until=dep.sim.now + duration)
    for yc in clients:
        yc.stop()
    tim = dep.tim("abq")
    coalesced = sent = 0
    for rec in tim.instances.values():
        queue = tim.protocol._queues.get(rec.instance_id)
        if queue is not None:
            coalesced += queue.coalesced
            sent += queue.updates_sent
    return {
        "outdated": check(yc.client.history
                          for yc in clients).staleness.outdated_fraction,
        "updates_sent": sent,
        "coalesced": coalesced,
        "wan_mb": (dep.metric_total("net.bytes") - net_before) / (1 << 20),
    }


def _run():
    return {interval: _run_interval(interval)
            for interval in (1.0, 10.0, 60.0)}


def test_ablation_queue_interval(benchmark):
    sweep = benchmark.pedantic(_run, rounds=1, iterations=1)
    report = ExperimentReport(
        exp_id="ablation-queue",
        title="Ablation: eventual-consistency flush interval",
        columns=["interval (s)", "outdated reads (%)", "updates shipped",
                 "coalesced away", "WAN traffic (MB)"],
        paper_claim="(design knob, §3.3.1: 'how frequently queued updates "
                    "need to be distributed')")
    for interval, stats in sweep.items():
        report.add_row(interval, 100 * stats["outdated"],
                       stats["updates_sent"], stats["coalesced"],
                       stats["wan_mb"])
    register_report(report)

    # Staleness grows with the flush interval...
    assert sweep[1.0]["outdated"] < sweep[10.0]["outdated"]
    assert sweep[10.0]["outdated"] < sweep[60.0]["outdated"]
    # ...while coalescing reduces shipped updates and WAN bytes.
    assert sweep[60.0]["coalesced"] > sweep[1.0]["coalesced"]
    assert sweep[60.0]["updates_sent"] < sweep[1.0]["updates_sent"]
    assert sweep[60.0]["wan_mb"] < sweep[1.0]["wan_mb"]
