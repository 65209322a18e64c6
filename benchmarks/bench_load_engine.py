"""Open-loop load engine: cohort aggregation cost + the scale-out bend.

Two measurements, one CI gate (``benchmarks/gates.py load_engine``):

* **aggregation** — one million modeled users are run as a few hundred
  client cohorts (one kernel process per cohort, thousands of users
  each) against an unsaturated 1-shard deployment.  Bounds: the whole
  population fits in <= MAX_COHORT_PROCESSES standing processes, the
  realized offered rate lands within MAX_OFFERED_ERROR of the configured
  arrival rate, and the engine's bookkeeping stays cheap —
  <= MAX_EVENTS_PER_OFFERED_OP kernel events per offered operation.
* **scaleout** — an offered-load sweep over 1/2/4/8 shards (1 and 8 in
  a quick run), one :func:`repro.bench.openloop.run_scaleout_cell` per
  row; its bound is the headline: at the saturating offered level,
  achieved throughput at 8 shards must be >= MIN_SCALEOUT_RATIO x the
  1-shard figure.  This is the curve the closed-loop driver could never
  bend (it idled at ~52 ops/s regardless of shard count); the open-loop
  engine saturates per-host egress, so added shards on added hosts show
  up as added capacity.

``benchmarks/gates.py`` writes the result to
``results/BENCH_load_engine.json`` (committed from a ``--full`` run).
"""

from __future__ import annotations

import time

from repro.bench.openloop import (
    build_scaleout_deployment,
    run_scaleout_cell,
    scaleout_workload,
)
from repro.load.cohort import CohortSpec
from repro.net.topology import US_EAST, US_WEST

REGIONS = (US_EAST, US_WEST)

#: acceptance: a million modeled users in at most this many standing
#: kernel processes (one per cohort; operations are ephemeral)
MAX_COHORT_PROCESSES = 1000

#: acceptance: realized offered rate within this fraction of configured
#: when the deployment is unsaturated
MAX_OFFERED_ERROR = 0.05

#: gate: kernel events per *offered* operation (arrival bookkeeping +
#: the operation itself) — catches accidental per-arrival overhead.  The
#: cell measures 4.3 (the arrival timer plus the three wake-ups of a get;
#: a process costs no events of its own — 6.3 with a start and a finish
#: per cohort op, 8.6 with a process per call on top, 11.9 before one
#: kernel event per message), so 6 trips on a process pair creeping back
#: while leaving the cohort bookkeeping room to move.
MAX_EVENTS_PER_OFFERED_OP = 6.0

#: gate: achieved(8 shards) / achieved(1 shard) at the saturating
#: offered level — the scale-out curve must bend upward
MIN_SCALEOUT_RATIO = 3.0


# -- part 1: cohort aggregation ----------------------------------------------

def run_aggregation(quick: bool = False) -> dict:
    """A million modeled users, a few hundred cohort processes."""
    cohorts = 200 if quick else 1000
    users_per_cohort = 5000 if quick else 1000
    total_users = cohorts * users_per_cohort
    offered_total = 500.0          # ops/sec, well under 1-shard capacity
    duration = 8.0 if quick else 20.0
    rate_per_user = offered_total / total_users

    dep, handle, workload = build_scaleout_deployment(shards=1, seed=23)
    for i in range(cohorts):
        region = REGIONS[i % len(REGIONS)]
        dep.add_cohort(
            CohortSpec(name=f"c{i:04d}", region=region,
                       users=users_per_cohort, rate_per_user=rate_per_user,
                       workload=workload),
            sharded=handle)

    started_wall = time.perf_counter()
    started_events = dep.sim.events_processed
    report = dep.load.run(duration, grace=1.0)
    wall = time.perf_counter() - started_wall
    events = dep.sim.events_processed - started_events

    offered_error = abs(report["offered_rate"] - offered_total) / offered_total
    return {
        "cohorts": cohorts,
        "users_per_cohort": users_per_cohort,
        "modeled_users": report["modeled_users"],
        "configured_rate": offered_total,
        "duration_sim_sec": duration,
        "offered": report["offered"],
        "achieved": report["achieved"],
        "shed": report["shed"],
        "errors": report["errors"],
        "offered_rate": round(report["offered_rate"], 3),
        "offered_error": round(offered_error, 5),
        "cohort_processes": len(dep.load.cohorts),
        "kernel_events": events,
        "events_per_offered_op": round(events / report["offered"], 1),
        "wall_seconds": round(wall, 4),
    }


# -- part 2: the scale-out bend ----------------------------------------------

def run_scaleout(quick: bool = False) -> dict:
    shard_counts = (1, 8) if quick else (1, 2, 4, 8)
    offered_levels = (500.0, 2000.0, 4000.0) if quick else \
        (500.0, 1000.0, 2000.0, 4000.0, 8000.0)
    duration = 4.0 if quick else 10.0
    workload = scaleout_workload()
    rows = [run_scaleout_cell(shards, offered, duration, workload=workload)
            for shards in shard_counts for offered in offered_levels]
    top = offered_levels[-1]
    at_top = {row["shards"]: row for row in rows
              if row["offered_per_sec"] == top}
    ratio = (at_top[8]["achieved_per_sim_sec"]
             / at_top[1]["achieved_per_sim_sec"])
    return {
        "workload": "ycsb-b uniform 64KB values, eventual consistency",
        "shard_counts": list(shard_counts),
        "offered_levels": list(offered_levels),
        "duration_sim_sec": duration,
        "saturating_offered": top,
        "scaleout_ratio_8v1": round(ratio, 2),
        "rows": rows,
    }


def run(quick: bool = False) -> dict:
    return {
        "benchmark": "load_engine",
        "quick": quick,
        "aggregation": run_aggregation(quick),
        "scaleout": run_scaleout(quick),
    }


BOUNDS = (
    ("cohort processes for the modeled users",
     "aggregation.cohort_processes", "<=", MAX_COHORT_PROCESSES),
    ("offered-rate error", "aggregation.offered_error", "<=",
     MAX_OFFERED_ERROR),
    ("kernel events per offered op", "aggregation.events_per_offered_op",
     "<=", MAX_EVENTS_PER_OFFERED_OP),
    ("8-shard / 1-shard achieved at saturating offered load",
     "scaleout.scaleout_ratio_8v1", ">=", MIN_SCALEOUT_RATIO),
)


def summary(result: dict) -> str:
    agg, sc = result["aggregation"], result["scaleout"]
    lines = [f"aggregation: {agg['modeled_users']} users / "
             f"{agg['cohort_processes']} cohorts, offered "
             f"{agg['offered_rate']}/s (err {agg['offered_error']:.2%}), "
             f"{agg['events_per_offered_op']} events/op",
             f"{'shards':>6} {'offered/s':>10} {'achieved/s':>10} "
             f"{'shed':>8} {'p95 ms':>8} {'qd95 ms':>8}"]
    for row in sc["rows"]:
        lines.append(
            f"{row['shards']:>6} {row['offered_per_sec']:>10.0f} "
            f"{row['achieved_per_sim_sec']:>10.0f} {row['shed']:>8} "
            f"{row['get_p95_ms']:>8.1f} {row['queue_delay_p95_ms']:>8.1f}")
    lines.append(f"scale-out 8v1 at {sc['saturating_offered']:.0f} "
                 f"offered: {sc['scaleout_ratio_8v1']}x")
    return "\n".join(lines)
