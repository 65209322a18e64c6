"""Open-loop scale-out measurement cell.

The ``load_engine`` gate of ``benchmarks/gates.py`` measures what a
sharded deployment *absorbs* under a configured offered load, one cell
per row: build a deployment with one Tiera host per shard per region
(``servers_per_region=shards``, so shards get real capacity instead of
stacking on one egress link), preload the record space in
zero sim-time, drive it with one open-loop cohort per region, and report
offered vs achieved rate with typed errors and tail latencies.

The cell uses eventual consistency and a uniform read-mostly workload:
reads are served by the local replica of the owning shard, so the
binding resource is per-host egress bandwidth and capacity genuinely
grows with the shard count — the property the scale-out gate checks.
(Closed-loop results against multi-primaries measured lock acquisition
instead, which no amount of sharding helps.)
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.bench.harness import Deployment, build_deployment, preload_object
from repro.core.global_policy import GlobalPolicySpec, RegionPlacement
from repro.load.arrivals import constant_rate
from repro.load.cohort import CohortSpec
from repro.net.topology import US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy
from repro.workloads.ycsb import YcsbWorkload

REGIONS = (US_EAST, US_WEST)


def scaleout_workload(record_count: int = 200,
                      value_size: int = 65536) -> YcsbWorkload:
    """Read-mostly (95/5), uniform keys, 64 KB values: big enough that
    per-host egress is the binding resource, uniform so every shard
    carries an equal slice."""
    return YcsbWorkload.workload_b(record_count=record_count,
                                   value_size=value_size,
                                   distribution="uniform")


def shard_instances(dep: Deployment, handle, key: str) -> list:
    """In-proc TieraInstance handles holding ``key`` (for preloading)."""
    tim = dep.tim(handle.map.owner(key))
    return [rec.instance for rec in tim.instances.values() if not rec.down]


def preload_records(dep: Deployment, handle, workload: YcsbWorkload) -> None:
    """Install the whole record space in zero sim-time (no load phase)."""
    data = bytes(workload.value_size)
    for i in range(workload.record_count):
        key = workload.key(i)
        preload_object(shard_instances(dep, handle, key), key, data)


def build_scaleout_deployment(shards: int, seed: int = 11,
                              regions: Sequence[str] = REGIONS,
                              workload: Optional[YcsbWorkload] = None):
    """Deployment + preloaded sharded namespace for one cell."""
    workload = workload or scaleout_workload()
    dep = build_deployment(list(regions), seed=seed, shards=shards,
                           servers_per_region=shards)
    spec = GlobalPolicySpec(
        name="scale",
        placements=tuple(RegionPlacement(region, memory_only_policy())
                         for region in regions),
        consistency="eventual")
    handle = dep.start_sharded_instance("scale", spec)
    preload_records(dep, handle, workload)
    return dep, handle, workload


def run_scaleout_cell(shards: int, offered_total: float, duration: float,
                      seed: int = 11, regions: Sequence[str] = REGIONS,
                      workload: Optional[YcsbWorkload] = None,
                      max_in_flight: int = 128, queue_limit: int = 512,
                      grace: float = 1.0) -> dict:
    """One (shard count, offered load) measurement.

    ``offered_total`` ops/sec are split evenly across one cohort per
    region; each cohort is bounded by ``max_in_flight`` pooled
    connections and a ``queue_limit``-deep wait queue, so saturation
    shows up as queueing delay and shed load, not as an unbounded
    simulation.
    """
    workload = workload or scaleout_workload()
    dep, handle, workload = build_scaleout_deployment(
        shards, seed=seed, regions=regions, workload=workload)
    per_region = offered_total / len(regions)
    for region in regions:
        rate_fn, peak = constant_rate(per_region)
        dep.add_cohort(
            CohortSpec(name=f"ol-{region}", region=region,
                       users=max(1, round(per_region * 10)),
                       rate_per_user=0.1, workload=workload,
                       rate_fn=rate_fn, peak_rate=peak,
                       max_in_flight=max_in_flight,
                       queue_limit=queue_limit),
            sharded=handle)

    started_wall = time.perf_counter()
    started_sim = dep.sim.now
    started_events = dep.sim.events_processed
    report = dep.load.run(duration, grace=grace)
    wall = time.perf_counter() - started_wall
    events = dep.sim.events_processed - started_events
    sim_elapsed = dep.sim.now - started_sim

    def tail(metric: str, stat: str) -> float:
        return max((c[metric][stat] if metric != "latency"
                    else c["latency"]["get"][stat])
                   for c in report["per_cohort"])

    achieved = report["achieved"]
    return {
        "shards": shards,
        "offered_per_sec": offered_total,
        "offered": report["offered"],
        "achieved": achieved,
        "offered_rate": round(report["offered_rate"], 3),
        "achieved_per_sim_sec": round(report["achieved_rate"], 3),
        "errors": report["errors"],
        "errors_by_type": report["errors_by_type"],
        "shed": report["shed"],
        "get_p50_ms": round(tail("latency", "p50") * 1000, 3),
        "get_p95_ms": round(tail("latency", "p95") * 1000, 3),
        "queue_delay_p95_ms": round(tail("queue_delay", "p95") * 1000, 3),
        "duration_sim_sec": duration,
        "sim_seconds": round(sim_elapsed, 6),
        "kernel_events": events,
        "events_per_achieved_op": round(events / achieved, 1) if achieved
        else None,
        "wall_seconds": round(wall, 4),
    }
