#!/usr/bin/env python
"""Minimum-replica failure handling (§4.4, ``FailureSpec(min_replicas=3)``).

Three regions keep one replica each on EBS SSD, and the policy asks for at
least three live replicas.  A US-West application reads its local replica
ten times a second.  Twenty seconds in, the host under the US-West
instance crashes: the application's reads fail over to the next-closest
replica, the TSM's heartbeats declare the server dead, and the TIM spawns
a replacement on the region's second server; each live peer in turn
pushes it every key it lacks (``sync_to``, merged at the replacement).
Once it is caught up, the TIM publishes the namespace's next map epoch.
The next reply the application gets names that epoch, so its client
refreshes its cached map (Table 1's ``getInstances``) and reads from the
replacement, with no call by the application.

For each phase the run prints the gets each instance served and the
application's read latency, which is the EBS SSD read plus the network
trip, in microseconds.

Run:  PYTHONPATH=src python examples/failure.py
"""

import numpy as np

from repro import (FailureSpec, GlobalPolicySpec, RegionPlacement,
                   build_deployment)
from repro.net import EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import disk_only_policy

REGIONS = (US_WEST, US_EAST, EU_WEST)
KEYS = [f"row{i}" for i in range(20)]
# (phase, sim-seconds it lasts); the crash ends "before"
PHASES = (("before", 20.0), ("outage", 40.0), ("after", 20.0))


def main() -> None:
    dep = build_deployment(list(REGIONS), seed=4, servers_per_region=2)
    ssd = disk_only_policy(profile="ebs_ssd")
    spec = GlobalPolicySpec(
        name="ft",
        placements=tuple(RegionPlacement(r, ssd) for r in REGIONS),
        consistency="eventual",
        failure=FailureSpec(min_replicas=3))
    instances = dep.start_wiera_instance("ft", spec)
    tim = dep.tim("ft")
    app = dep.add_client(US_WEST, instances=instances, name="app")

    def seed():
        for key in KEYS:
            yield from app.put(key, key.encode() * 128)
        yield dep.sim.timeout(5.0)   # replication lands everywhere
    dep.drive(seed())

    print("replicas at launch:")
    for rec in tim.alive_records():
        print(f"  {rec.instance_id:16s} on {rec.server_id}")

    latencies: dict[str, list[float]] = {}
    refreshes = []

    def reader(phase: str, seconds: float):
        end = dep.sim.now + seconds
        i = 0
        while dep.sim.now < end:
            epoch = app.map.epoch
            result = yield from app.get(KEYS[i % len(KEYS)])
            latencies[phase].append(result["latency"])
            if app.map.epoch != epoch:
                refreshes.append((dep.sim.now, app.map.epoch,
                                  app.route(KEYS[0])[0]["instance_id"]))
            i += 1
            yield dep.sim.timeout(0.1)

    def served() -> dict[str, int]:
        return {iid: rec.instance.gets_from_app
                for iid, rec in tim.instances.items()}

    rows = []
    for phase, seconds in PHASES:
        if phase == "outage":
            victim = tim.instances[instances[0]["instance_id"]]
            dep.wiera.tsm.servers[victim.server_id].server.crash()
            print(f"\nt={dep.sim.now:.0f}s: crash {victim.server_id} "
                  f"(hosting {victim.instance_id})")
        latencies[phase] = []
        before = served()
        dep.drive(reader(phase, seconds))
        after = served()
        rows.append((phase, {iid: n - before.get(iid, 0)
                             for iid, n in after.items()}))

    print(f"TSM deaths detected: {dep.wiera.tsm.deaths_detected}")
    for at, epoch, closest in refreshes:
        print(f"t={at:.2f}s: a reply named epoch {epoch}; the application's "
              f"client refreshed its map, closest now {closest}")
    for rec in tim.instances.values():
        if rec.instance_id not in {i["instance_id"] for i in instances}:
            keys = sum(1 for key in KEYS if rec.instance.meta.get_record(key))
            print(f"replacement: {rec.instance_id} on {rec.server_id}, "
                  f"{keys}/{len(KEYS)} keys resynced")

    ids = list(tim.instances)
    print("\ngets served per instance, and the application's read latency:")
    print(f"{'phase':8s}" + "".join(f"{iid:>18s}" for iid in ids)
          + f"{'p50 (us)':>12s}{'p99 (us)':>12s}")
    for phase, counts in rows:
        lat = np.array(latencies[phase]) * 1e6
        print(f"{phase:8s}" + "".join(f"{counts.get(iid, 0):>18d}"
                                      for iid in ids)
              + "".join(f"{np.percentile(lat, q):>12.1f}" for q in (50, 99)))


if __name__ == "__main__":
    main()
