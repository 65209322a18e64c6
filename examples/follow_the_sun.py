#!/usr/bin/env python
"""Follow-the-sun primary migration (Figure 5(b) / §5.2, Tuba-style).

Three regions serve a read-mostly workload whose active-client population
moves around the planet (Asia East peaks first, then EU West, then US
West — each a Gaussian activity curve).  Under PrimaryBackup with lazy
replication, every put is forwarded to the primary; Wiera's
RequestsMonitoring notices when another instance forwards more puts than
the primary receives directly and migrates the primary toward the load.

Run:  python examples/follow_the_sun.py
"""

from repro import build_deployment
from repro.net import ASIA_EAST, EU_WEST, US_WEST
from repro.obs.check import check
from repro.policydsl import builtin_policy
from repro.util.units import MINUTE, MS
from repro.workloads import (
    GeoClientPopulation,
    YcsbClient,
    YcsbWorkload,
)

REGIONS = (ASIA_EAST, EU_WEST, US_WEST)


def main() -> None:
    dep = build_deployment(REGIONS, seed=21)
    spec = builtin_policy("ChangePrimary")   # Figure 5(b), from DSL text
    instances = dep.start_wiera_instance("sun", spec)
    tim = dep.tim("sun")
    print(f"initial primary: {tim.protocol.config.primary_id}")

    workload = YcsbWorkload.workload_b(record_count=10)
    population = GeoClientPopulation.staggered(
        list(REGIONS), first_peak=5 * MINUTE, stagger=5 * MINUTE,
        sigma=3 * MINUTE, max_clients=8, min_clients=1)

    loader = dep.add_client(ASIA_EAST, instances=instances, name="loader")

    def load():
        yc = YcsbClient(dep.sim, loader, workload, dep.rng.stream("load"))
        yield from yc.load(10)
    dep.drive(load())
    t0 = dep.sim.now

    ycsb = []
    for region in REGIONS:
        for i in range(8):
            wc = dep.add_client(region, instances=instances,
                                name=f"c-{region}-{i}")
            yc = YcsbClient(dep.sim, wc, workload,
                            dep.rng.stream(f"y-{region}-{i}"),
                            think_time=0.5,
                            is_active=population.activity_gate(
                                dep.sim, region, i))
            ycsb.append((region, wc, yc))
            yc.start()

    dep.sim.run(until=t0 + 20 * MINUTE)
    for _, _, yc in ycsb:
        yc.stop()

    print("\nprimary migrations (following the activity wave):")
    for t, iid in tim.protocol.config.history:
        print(f"  t={max(0.0, t - t0) / MINUTE:5.1f} min  -> {iid}")

    print("\nper-region average put latency:")
    for region in REGIONS:
        values = [v for r, wc, _ in ycsb if r == region
                  for v in wc.history.latencies("put")]
        if values:
            print(f"  {region:10s} {sum(values) / len(values) / MS:7.1f} ms "
                  f"({len(values)} puts)")
    reads = check(wc.history for _, wc, _ in ycsb).staleness
    print(f"\nfraction of reads that saw outdated data: "
          f"{100 * reads.outdated_fraction:.1f}% "
          f"(the paper cuts 69% to 39% by moving the primary)")


if __name__ == "__main__":
    main()
