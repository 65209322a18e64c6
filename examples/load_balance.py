#!/usr/bin/env python
"""Get-load balancing under a hot spot (§3.2.3, ``load_balance=True``).

Three regions replicate one small data set.  For the first 60 sim-seconds
US-East's readers issue about 100 gets/s against their local instance,
twice the balancer's threshold, while US-West and EU-West see a trickle.
Every round the balancer (RequestsMonitoring + the ``forward`` response)
measures each instance's get rate; it installs a redirect that forwards
half of US-East's gets to the coolest peer, and clears it once US-East's
rate falls back below the hysteresis band.  The timeline prints, per
10-second window, the gets each instance served from its own tier and the
gets it forwarded away.

Run:  PYTHONPATH=src python examples/load_balance.py
"""

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.core import LoadBalancer
from repro.core.loadbalance import THRESHOLD_RPS
from repro.net import EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST, EU_WEST)
KEYS = [f"item{i}" for i in range(20)]
HOT_UNTIL = 60.0       # sim-seconds of hot spot after the seed
END = 100.0
WINDOW = 10.0

# region -> (readers, think time while hot, think time after)
READERS = {US_EAST: (4, 0.04, 0.4), US_WEST: (1, 0.2, 0.2),
           EU_WEST: (1, 0.5, 0.5)}


def main() -> None:
    dep = build_deployment(list(REGIONS), seed=3)
    spec = GlobalPolicySpec(
        name="hot",
        placements=tuple(RegionPlacement(r, memory_only_policy())
                         for r in REGIONS),
        consistency="eventual", load_balance=True)
    instances = dep.start_wiera_instance("hot", spec)
    tim = dep.tim("hot")
    balancer = next(m for m in tim.monitors if isinstance(m, LoadBalancer))
    seeder = dep.add_client(US_EAST, instances=instances, name="seeder")

    def seed():
        for key in KEYS:
            yield from seeder.put(key, key.encode() * 64)
        yield dep.sim.timeout(5.0)   # replication lands everywhere
    dep.drive(seed())

    start = dep.sim.now
    rng = dep.rng.stream("load-balance-example")

    def reader(client, hot_think, calm_think):
        while dep.sim.now < start + END:
            yield from client.get(KEYS[int(rng.integers(len(KEYS)))])
            hot = dep.sim.now < start + HOT_UNTIL
            yield dep.sim.timeout(hot_think if hot else calm_think)

    for region, (count, hot_think, calm_think) in READERS.items():
        for i in range(count):
            client = dep.add_client(region, instances=instances,
                                    name=f"reader-{region}-{i}")
            dep.sim.process(reader(client, hot_think, calm_think),
                            name=f"reader-{region}-{i}")

    insts = {r: dep.instance("hot", r) for r in REGIONS}

    def counts():
        return {r: (inst.tier("tier1").reads, inst.redirected_gets)
                for r, inst in insts.items()}

    print(f"hot spot: {READERS[US_EAST][0]} US-East readers until "
          f"t={HOT_UNTIL:.0f}s; redirect when an instance serves more "
          f"than {THRESHOLD_RPS:.0f} gets/s\n")
    print(f"{'t (s)':>6}" + "".join(f"{r + ' served/fwd':>24}"
                                    for r in REGIONS) + "  redirect")
    last = counts()
    while dep.sim.now < start + END:
        dep.sim.run(until=dep.sim.now + WINDOW)
        now = counts()
        cells = "".join(
            f"{now[r][0] - last[r][0]:>17}/{now[r][1] - last[r][1]:<6}"
            for r in REGIONS)
        redirect = insts[US_EAST].get_redirect
        target = tim.instances[redirect[0]].region if redirect else "-"
        print(f"{dep.sim.now - start:>6.0f}{cells}  {target}")
        last = now

    print(f"\nredirects installed {balancer.redirects_installed}, "
          f"cleared {balancer.redirects_cleared}")
    for region, inst in insts.items():
        print(f"  {region:10s} gets from clients {inst.gets_from_app:5d}, "
              f"forwarded {inst.redirected_gets:5d}, served from its tier "
              f"{inst.tier('tier1').reads:5d}")


if __name__ == "__main__":
    main()
