#!/usr/bin/env python
"""Dynamic consistency switching under network turbulence (Figure 5(a)/7).

A four-region Wiera instance starts under MultiPrimaries (strong)
consistency.  Update-heavy YCSB clients run in every region.  Midway, we
degrade the US West instance's WAN paths; Wiera's LatencyMonitoring
detects the sustained 800 ms violation and switches the *whole* instance
to eventual consistency at run time — then switches back once the network
recovers.  Watch the put latency collapse from ~350 ms to ~1 ms and
return.

Run:  python examples/dynamic_consistency.py
"""

from repro import build_deployment
from repro.net import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.policydsl import builtin_policy
from repro.util.units import MS
from repro.workloads import YcsbClient, YcsbWorkload

REGIONS = (US_WEST, US_EAST, EU_WEST, ASIA_EAST)


def main() -> None:
    dep = build_deployment(REGIONS, seed=7)
    spec = builtin_policy("DynamicConsistency")
    print("DynamicConsistency policy (compiled from the Figure 5(a) DSL):")
    print(f"  threshold = {spec.dynamic.latency_threshold * 1000:.0f} ms "
          f"sustained for {spec.dynamic.period:.0f} s")
    print(f"  strong = {spec.dynamic.strong}, weak = {spec.dynamic.weak}\n")
    instances = dep.start_wiera_instance("dyn", spec)

    workload = YcsbWorkload.workload_a(record_count=40)
    clients = []
    for region in REGIONS:
        wc = dep.add_client(region, instances=instances,
                            name=f"app-{region}")
        yc = YcsbClient(dep.sim, wc, workload,
                        dep.rng.stream(f"ycsb-{region}"), think_time=0.5)
        clients.append((region, wc, yc))

    def load():
        yield from clients[0][2].load(40)
    dep.drive(load())
    t0 = dep.sim.now
    for _, _, yc in clients:
        yc.start()

    # degrade US West's WAN paths between t=40s and t=100s
    for other in REGIONS[1:]:
        dep.network.inject_pair_delay(US_WEST, other, 0.15,
                                      start=t0 + 40, duration=60)
    dep.sim.run(until=t0 + 180)
    for _, _, yc in clients:
        yc.stop()

    tim = dep.tim("dyn")
    print("consistency switches:")
    for (t, frm, to, done) in tim.switch_log:
        print(f"  t={t - t0:6.1f}s  {frm} -> {to} "
              f"(drain+swap took {(done - t) * 1000:.0f} ms)")

    print("\nUS West put latency, 20 s windows:")
    history = dict((r, c) for r, c, _ in clients)[US_WEST].history
    for w0 in range(0, 180, 20):
        window = history.latencies("put", t0 + w0, t0 + w0 + 20)
        if window:
            mean = sum(window) / len(window)
            bar = "#" * min(60, int(mean / (25 * MS)))
            print(f"  [{w0:3d}-{w0 + 20:3d}s] {mean / MS:8.1f} ms {bar}")


if __name__ == "__main__":
    main()
