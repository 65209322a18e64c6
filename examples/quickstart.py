#!/usr/bin/env python
"""Quickstart: launch a geo-distributed Wiera instance and use it.

Walks through the full lifecycle from §4.1 of the paper:

1. stand up a simulated multi-region testbed (Wiera + Zookeeper in US
   East, one Tiera server per region),
2. start a Wiera instance from the *DSL text* of the MultiPrimaries
   policy (Figure 3(a)),
3. connect a client to its closest instance and exercise the Table 2
   object-versioning API,
4. inspect where the bytes ended up on each region's tiers.

Run:  python examples/quickstart.py
      python examples/quickstart.py --trace   # also dump a Chrome trace

With ``--trace`` the run records every RPC hop, network transmit and
storage access as spans and writes ``results/quickstart_trace.json``,
loadable in chrome://tracing or https://ui.perfetto.dev.
"""

import sys

from repro import build_deployment
from repro.bench.reporting import dump_observability
from repro.net import EU_WEST, US_EAST, US_WEST
from repro.policydsl import builtin_policy
from repro.util.units import MS


def main(trace: bool = False) -> None:
    # 1. the testbed ------------------------------------------------------
    dep = build_deployment([US_WEST, US_EAST, EU_WEST], seed=42,
                           with_tracing=trace)

    # 2. a global policy, straight from the paper's Figure 3(a) -----------
    spec = builtin_policy("MultiPrimariesConsistency")
    print(f"policy {spec.name!r}: consistency={spec.consistency}, "
          f"regions={spec.regions()}")
    instances = dep.start_wiera_instance("quickstart", spec)
    print(f"launched {len(instances)} Tiera instances:")
    for info in instances:
        print(f"  {info['instance_id']:30s} @ {info['region']}")

    # 3. a client in US West ----------------------------------------------
    client = dep.add_client(US_WEST, instances=instances, name="app")
    print(f"client connects to closest instance: "
          f"{client.route('greeting')[0]['instance_id']}")

    def app():
        # puts are strongly consistent: global lock + sync broadcast
        result = yield from client.put("greeting", b"hello, wide area!")
        print(f"put v{result['version']} acknowledged in "
              f"{result['latency'] / MS:.1f} ms "
              f"(lock + broadcast to {len(instances) - 1} replicas)")

        # overwrites create new versions (§3.2.1)
        yield from client.put("greeting", b"hello again")
        versions = yield from client.get_version_list("greeting")
        print(f"versions of 'greeting': {versions}")

        old = yield from client.get_version("greeting", 1)
        latest = yield from client.get("greeting")
        print(f"v1 = {old['data']!r}")
        print(f"latest (v{latest['version']}) = {latest['data']!r}, "
              f"read in {latest['latency'] / MS:.2f} ms from the local "
              f"replica")
    dep.drive(app())

    # 4. where did the bytes go? -------------------------------------------
    print("\nreplica state:")
    for region in (US_WEST, US_EAST, EU_WEST):
        instance = dep.instance("quickstart", region)
        record = instance.meta.get_record("greeting")
        meta = record.latest()
        print(f"  {region:10s} latest=v{record.latest_version} "
              f"locations={sorted(meta.locations)}")

    if trace:
        written = dump_observability(dep.obs, "results", stem="quickstart")
        print("\nobservability dumped:")
        for path in written:
            print(f"  {path}")


if __name__ == "__main__":
    main(trace="--trace" in sys.argv[1:])
