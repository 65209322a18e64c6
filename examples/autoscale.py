#!/usr/bin/env python
"""Elastic autoscaler riding a flash crowd (repro.autoscale).

A two-region deployment starts at ONE shard with an autoscaler attached.
Thirty seconds in, US-East spikes 4x — about 1,200 ops/s of 64 KB reads,
three times what one Tiera host's egress link can carry.  The controller
watches offered rate, shed load, queue depth, and per-host egress
utilization every 5 sim-seconds and works the shard lever through the
live rebalancer: the timeline below shows it scaling 1 -> 4 shards as
the crowd hits (shed load is treated as an emergency, so it jumps
straight to the ceiling), absorbing the peak, then retiring shards one
cooldown at a time once the crowd passes.  The full decision audit —
every hold, skip, and action, with the signals that drove it — prints
at the end.

Run:  PYTHONPATH=src python examples/autoscale.py
"""

from repro.bench.harness import build_deployment
from repro.bench.openloop import preload_records, scaleout_workload
from repro.core import AutoscaleSpec, GlobalPolicySpec, RegionPlacement
from repro.load.arrivals import flash_crowd_rate
from repro.load.cohort import CohortSpec
from repro.net.topology import US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST)
BASE_RATE = 300.0          # ops/s per region, steady
CROWD_MULTIPLIER = 4.0     # US-East spike: ~3x one host's egress


def main() -> None:
    aspec = AutoscaleSpec(target_per_shard=800.0, decision_interval=5.0,
                          cooldown=5.0, scale_down_windows=2,
                          min_shards=1, max_shards=4)
    dep = build_deployment(list(REGIONS), seed=11, shards=1,
                           servers_per_region=4, autoscale=aspec)
    spec = GlobalPolicySpec(
        name="crowd",
        placements=tuple(RegionPlacement(r, memory_only_policy())
                         for r in REGIONS),
        consistency="eventual")
    handle = dep.start_sharded_instance("crowd", spec)
    workload = scaleout_workload(record_count=100, value_size=65536)
    preload_records(dep, handle, workload)
    scaler = dep.autoscalers["crowd"]

    for region in REGIONS:
        rate_fn, peak = flash_crowd_rate(
            BASE_RATE, CROWD_MULTIPLIER if region == REGIONS[0] else 1.0,
            at=30.0, rise=10.0, hold=60.0, fall=20.0)
        dep.add_cohort(
            CohortSpec(name=f"fc-{region}", region=region,
                       users=int(BASE_RATE * 10), rate_per_user=0.1,
                       workload=workload, rate_fn=rate_fn, peak_rate=peak,
                       max_in_flight=64, queue_limit=256),
            sharded=handle)

    print(f"flash crowd: {CROWD_MULTIPLIER:.0f}x in {REGIONS[0]} at t=30s, "
          f"autoscaler 1..{aspec.max_shards} shards\n")
    print(f"{'t (s)':>6} {'offered/s':>10} {'achieved/s':>11} "
          f"{'shed':>6} {'queued':>7} {'shards':>7}")
    dep.load.start()
    window = 10.0
    last = {"offered": 0, "achieved": 0, "shed": 0}
    for _ in range(17):
        dep.sim.run(until=dep.sim.now + window)
        totals = {
            "offered": sum(c.stats.offered for c in dep.load),
            "achieved": dep.metric_total("load.achieved"),
            "shed": sum(c.stats.shed for c in dep.load),
        }
        queued = sum(c.queued for c in dep.load)
        print(f"{dep.sim.now:>6.0f} "
              f"{(totals['offered'] - last['offered']) / window:>10.0f} "
              f"{(totals['achieved'] - last['achieved']) / window:>11.0f} "
              f"{totals['shed'] - last['shed']:>6} {queued:>7} "
              f"{scaler.shards:>7}")
        last = totals
    dep.load.stop()
    scaler.stop()
    report = dep.load.report()

    print(f"\noffered {report['offered']:,} ops; achieved "
          f"{report['achieved']:,}; shed {report['shed']:,}; "
          f"peak {max(d.shards for d in scaler.decisions)} shards, "
          f"final {scaler.shards}")
    print("\ndecision audit (holds elided):")
    for d in scaler.decisions:
        if d.action == "hold":
            continue
        print(f"  t={d.time:6.1f}  {d.action:<12} {d.shards} -> "
              f"{d.desired}  rate={d.offered_rate:6.0f}/s "
              f"shed={d.shed:<4} egress={d.egress_utilization:.2f}  "
              f"({d.reason})")


if __name__ == "__main__":
    main()
