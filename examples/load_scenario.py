#!/usr/bin/env python
"""Open-loop flash crowd against a sharded deployment (repro.load).

A two-region, 4-shard deployment (one Tiera host per shard per region)
serves 100,000 modeled users per region — two cohort processes, not
200,000 — at a steady offered rate.  Sixty seconds in, the US-East crowd
spikes 8x for a minute (Anna's flash-crowd shape).  The open-loop engine
keeps offering load at the configured rate whether or not the store
keeps up, so the printed timeline shows what a closed-loop driver never
can: achieved throughput hitting the capacity ceiling, queueing delay
growing, and excess arrivals being shed until the spike passes.

Run:  PYTHONPATH=src python examples/load_scenario.py
      PYTHONPATH=src python examples/load_scenario.py --scenario diurnal
"""

import argparse

from repro.bench.openloop import build_scaleout_deployment, scaleout_workload
from repro.load import SCENARIOS
from repro.net.topology import US_EAST, US_WEST

REGIONS = (US_EAST, US_WEST)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="flash_crowd",
                        choices=sorted(SCENARIOS),
                        help="named scenario from the repro.load library")
    args = parser.parse_args()

    workload = scaleout_workload(record_count=200, value_size=65536)
    dep, handle, workload = build_scaleout_deployment(
        shards=4, seed=42, regions=REGIONS, workload=workload)

    build = SCENARIOS[args.scenario]
    scenario = build(REGIONS, users_per_region=100_000,
                     rate_per_user=0.004,      # 400 ops/s per region steady
                     workload=workload, max_in_flight=256, queue_limit=1024)
    dep.add_scenario(scenario, sharded=handle)
    print(f"scenario: {scenario.name} — {scenario.notes}")
    print(f"{dep.load.modeled_users:,} modeled users in "
          f"{len(dep.load)} cohort processes\n")

    print(f"{'t (s)':>6} {'offered/s':>10} {'achieved/s':>11} "
          f"{'shed':>7} {'queued':>7} {'in-flight':>9}")
    dep.load.start()
    window = 10.0
    last = {"offered": 0, "achieved": 0, "shed": 0}
    for step in range(16):
        dep.sim.run(until=dep.sim.now + window)
        totals = {
            "offered": sum(c.stats.offered for c in dep.load),
            "achieved": dep.metric_total("load.achieved"),
            "shed": sum(c.stats.shed for c in dep.load),
        }
        queued = sum(c.queued for c in dep.load)
        in_flight = sum(c.in_flight for c in dep.load)
        print(f"{dep.sim.now:>6.0f} "
              f"{(totals['offered'] - last['offered']) / window:>10.0f} "
              f"{(totals['achieved'] - last['achieved']) / window:>11.0f} "
              f"{totals['shed'] - last['shed']:>7} {queued:>7} "
              f"{in_flight:>9}")
        last = totals
    dep.load.stop()
    report = dep.load.report()

    print(f"\noffered {report['offered']:,} ops at "
          f"{report['offered_rate']:.0f}/s; achieved "
          f"{report['achieved']:,} ({report['achieved_rate']:.0f}/s); "
          f"shed {report['shed']:,}; errors {report['errors_by_type'] or 0}")
    for cohort in report["per_cohort"]:
        latency = cohort["latency"]["get"]
        delay = cohort["queue_delay"]
        print(f"  {cohort['cohort']:>22}: get p50 "
              f"{latency['p50'] * 1000:6.1f} ms  p95 "
              f"{latency['p95'] * 1000:7.1f} ms  queue-delay p95 "
              f"{delay['p95'] * 1000:7.1f} ms  peak queue "
              f"{cohort['peak_queue']}")


if __name__ == "__main__":
    main()
