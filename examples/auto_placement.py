#!/usr/bin/env python
"""Automated data placement: the paper's future work, implemented.

§3.1 sketches a data placement manager that consumes the network and
workload monitors to "generate a dynamic global policy automatically" and
defers it to future work.  This example closes that loop:

1. a 4-region PrimaryBackup deployment serves a workload whose demand is
   dominated by Asia East;
2. the WorkloadMonitor aggregates per-region demand over RPC;
3. the DataPlacementAdvisor recommends a primary (demand-weighted RTT), a
   2-replica set (greedy k-center), and a consistency model against an
   800 ms latency goal;
4. the recommendation is *applied* — the TIM migrates the primary — and
   the put latency improvement is measured.

Run:  python examples/auto_placement.py
"""

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.core import DataPlacementAdvisor, WorkloadMonitor
from repro.net import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import write_back_policy
from repro.util.units import MS

REGIONS = (US_EAST, US_WEST, EU_WEST, ASIA_EAST)


def main() -> None:
    dep = build_deployment(REGIONS, seed=31)
    spec = GlobalPolicySpec(
        name="auto",
        placements=tuple(
            RegionPlacement(r, write_back_policy(),
                            primary=(r == US_EAST)) for r in REGIONS),
        consistency="primary_backup", sync_replication=False,
        queue_interval=2.0)
    instances = dep.start_wiera_instance("auto", spec)
    tim = dep.tim("auto")
    print(f"initial primary: {tim.protocol.config.primary_id}")

    monitor = WorkloadMonitor(tim, poll_interval=5.0)
    monitor.loop.start()
    advisor = DataPlacementAdvisor(tim, monitor, latency_goal=0.8)

    # Asia-dominated demand: 5x the clients of anywhere else.
    clients = {r: dep.add_client(r, instances=instances, name=f"c-{r}")
               for r in REGIONS}

    def traffic(region, ops, spacing):
        client = clients[region]

        def run():
            for i in range(ops):
                result = yield from client.put(f"{region}-{i}", b"x" * 512)
                yield dep.sim.timeout(spacing)
        return dep.sim.process(run())

    procs = [traffic(ASIA_EAST, 150, 0.2)]
    for r in (US_EAST, US_WEST, EU_WEST):
        procs.append(traffic(r, 20, 1.5))
    dep.sim.run(until=dep.sim.all_of(procs))

    before = clients[ASIA_EAST].history.mean_latency("put")
    advice = advisor.advise(replicas=2)
    print("\nadvisor recommendation:")
    print(f"  demand by region: {advice.demand}")
    print(f"  primary:          {advice.primary_region} "
          f"({advice.primary_instance_id})")
    print(f"  replica set (2):  {advice.replica_regions}")
    print(f"  consistency:      {advice.suggested_consistency} "
          f"(vs the 800 ms goal)")
    print(f"  expected put:     {advice.expected_put_ms:.1f} ms "
          f"demand-weighted")

    result = dep.drive(advisor.apply(advice))
    print(f"\napplied: primary {result['previous']} -> {result['primary']}")

    # measure the improvement for the dominant population
    client = clients[ASIA_EAST]
    n_before = len(client.history.latencies("put"))

    def after_traffic():
        for i in range(60):
            yield from client.put(f"post-{i}", b"x" * 512)
            yield dep.sim.timeout(0.2)
    dep.drive(after_traffic())
    after_vals = client.history.latencies("put")[n_before:]
    after = sum(after_vals) / len(after_vals)
    print(f"\nAsia East put latency: {before / MS:.1f} ms before -> "
          f"{after / MS:.1f} ms after the migration")
    monitor.loop.stop()


if __name__ == "__main__":
    main()
