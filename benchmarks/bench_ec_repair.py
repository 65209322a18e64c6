"""EC crash-recovery repair: one round at window widths 1 and 8 + CI gate.

Writes N EC(2,2) objects across a 6-site deployment, crashes the holder
of fragment 1 (wiping its memory tier) and leaves it down, then drives
exactly one repair round on the repair leader at
``repair_concurrency=1`` (one object in flight) and ``=8``.  Both go
through the repairer's single pipeline — a windowed manifest scan,
parallel probes, batched ``check_readable`` envelopes, holder-local
``reconstruct_fragment``, one ``manifest_remap`` request of deltas per
peer — and differ only in how many manifest reads, object repairs and
remap applies overlap.

Each cell reports repair completion time (simulated seconds for the
round), repair egress (``net.bytes`` delta across the round), message
count, bytes moved, fragments rebuilt, and the codec's decode-matrix
cache hits.  Correctness is asserted inside the cell: every object
decodes cleanly after the round and the second (verify) round is a
no-op.  Both cells must converge to the same timing-free store digest.

Two constants here are never recomputed: SEED_SERIAL_REFERENCE — what
the serial walk this pipeline replaced cost on the same scenario,
measured at the last commit that had it — and the W=8 pins per mode.
The gate (``benchmarks/gates.py ec_repair``) fails unless the live W=8
round is >= MIN_SPEEDUP faster and >= MIN_EGRESS_REDUCTION cheaper on
egress than that frozen reference *and* reproduces the pinned
sim-seconds and egress exactly (the simulator is deterministic; any
drift is a behaviour change).  ``benchmarks/gates.py`` writes the result
to ``results/BENCH_ec_repair.json`` (committed from a quick run).
"""

from __future__ import annotations

import time

from repro.bench.harness import build_deployment
from repro.core.global_policy import (GlobalPolicySpec, RedundancySpec,
                                      RegionPlacement)
from repro.ec import codec
from repro.ec.protocol import decode_manifest
from repro.net.topology import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST, EU_WEST, ASIA_EAST)
#: six (region, provider) sites: n=4 fragment holders + two spares the
#: lost fragments are re-homed onto
SITES = ((US_EAST, "aws"), (US_WEST, "aws"), (EU_WEST, "aws"),
         (ASIA_EAST, "aws"), (US_EAST, "gcp"), (US_WEST, "gcp"))
PROVIDERS = {US_EAST: ("aws", "gcp"), US_WEST: ("aws", "gcp"),
             EU_WEST: ("aws",), ASIA_EAST: ("aws",)}

K, M = 2, 2
VALUE_SIZE = 4096
WIDTHS = (1, 8)

#: gate: the W=8 round completes at least this many times faster
#: (simulated seconds) than the frozen seed-serial reference
MIN_SPEEDUP = 3.0
#: gate: the W=8 round moves at least this fraction fewer bytes than the
#: frozen seed-serial reference
MIN_EGRESS_REDUCTION = 0.40

#: gate: the W=8 round per mode, matched exactly.  ``repair_egress_bytes``
#: is ``net.bytes`` across the round, TSM heartbeats included.  Re-pin by
#: editing these values in the commit that moves them, with the evidence.
W8_REPAIR_SECONDS = {"quick": 0.858654, "full": 1.750634}
W8_REPAIR_EGRESS_BYTES = {"quick": 109824, "full": 317696}

#: the deleted serial walk on this scenario, frozen, never recomputed
SEED_SERIAL_REFERENCE = {
    "commit": "e977ef95f0886ce9205016a799c77cb3b1295351",
    "note": "repair_concurrency=1 as the serial seed walk (one object "
            "fully probed, gathered at the leader, decoded, re-encoded and "
            "pushed before the next), measured by this script at the last "
            "commit that had that path; frozen, never recomputed",
    "quick": {
        "objects": 16,
        "repair_seconds": 11.428732,
        "repair_egress_bytes": 200576,
        "repair_messages": 287,
        "repair_bytes_moved": 73856,
        "store_digest": "c9bd8740aecdaade7a14ce52f32b7138"
                        "bdb438e329b9640afe8243041a7c837e",
    },
    "full": {
        "objects": 48,
        "repair_seconds": 33.500815,
        "repair_egress_bytes": 594432,
        "repair_messages": 836,
        "repair_bytes_moved": 221568,
        "store_digest": "6f341611f185f07c62fc8d0dc35ab92b"
                        "ff39954e8be2242731926ab0945f25ff",
    },
}


def _cell(repair_concurrency: int, objects: int, seed: int) -> dict:
    dep = build_deployment(list(REGIONS), providers=PROVIDERS, seed=seed)
    spec = GlobalPolicySpec(
        name="ec",
        placements=tuple(
            RegionPlacement(region, memory_only_policy(), provider=provider)
            for region, provider in SITES),
        consistency="eventual",
        redundancy=RedundancySpec(k=K, m=M, repair_interval=100000.0,
                                  repair_concurrency=repair_concurrency))
    instances = dep.start_wiera_instance("ec", spec)
    tim = dep.tim("ec")
    client = dep.add_client(US_EAST, instances=instances)
    payloads = {f"obj{i}": bytes([(i % 255) + 1]) * VALUE_SIZE
                for i in range(objects)}

    def write_phase():
        for key, value in payloads.items():
            yield from client.put(key, value)
    dep.drive(write_phase())

    # Crash the holder of fragment 1 (never the put coordinator, which
    # holds fragment 0 and will lead the repair) and leave it down.
    coordinator = dep.instance("ec", US_EAST)
    manifest = decode_manifest(dep.drive(
        coordinator.read_version("obj0", run_rules=False))[0])
    victim = tim.instances[manifest["frags"][1]].instance.host
    faults = dep.fault_schedule("repair-bench")
    faults.crash(at=dep.sim.now + 0.25, host=victim.name, duration=1e9)
    faults.start()
    dep.sim.run(until=dep.sim.now + 0.5)

    leader_id = manifest["frags"][0]
    leader = tim.instances[leader_id].instance
    repairer = leader.protocol.repairer(leader_id)

    cache_before = dict(codec._inv_cache_stats)
    bytes_before = dep.metric_total("net.bytes")
    msgs_before = dep.metric_total("net.messages")
    clock_before = dep.sim.now
    wall_started = time.perf_counter()
    dep.drive(repairer.repair_round(), name="repair-round")
    wall = time.perf_counter() - wall_started
    repair_seconds = dep.sim.now - clock_before
    repair_bytes = dep.metric_total("net.bytes") - bytes_before
    repair_msgs = dep.metric_total("net.messages") - msgs_before

    # Correctness: the round rebuilt every lost fragment, a second round
    # finds nothing left to do, and every object decodes cleanly.
    assert repairer.fragments_rebuilt == objects, (
        f"rebuilt {repairer.fragments_rebuilt}/{objects}")
    dep.drive(repairer.repair_round(), name="verify-round")
    assert repairer.fragments_rebuilt == objects, "verify round re-repaired"

    def read_phase():
        for key, value in payloads.items():
            res = yield from client.get(key)
            assert res["data"] == value, key
            assert not res.get("degraded"), key
    dep.drive(read_phase())

    cache = {name: codec._inv_cache_stats[name] - cache_before[name]
             for name in ("hits", "misses")}
    looked_up = cache["hits"] + cache["misses"]
    return {
        "repair_concurrency": repair_concurrency,
        "objects": objects,
        "fragments_rebuilt": int(dep.metric_total("ec.fragments_rebuilt")),
        "repair_seconds": round(repair_seconds, 6),
        "repair_egress_bytes": int(repair_bytes),
        "repair_messages": int(repair_msgs),
        "repair_bytes_moved": int(dep.metric_total("ec.repair_bytes_moved")),
        "unrepairable": int(dep.metric_total("ec.repair_unrepairable")),
        "push_failed": int(dep.metric_total("ec.repair_push_failed")),
        "errors": int(dep.metric_total("ec.repair_errors")),
        "superseded": int(dep.metric_total("ec.repair_superseded")),
        "decode_matrix_cache": dict(
            cache, hit_rate=round(cache["hits"] / looked_up, 3)
            if looked_up else None),
        "store_digest": dep.store_digest(detail=False),
        "wall_seconds": round(wall, 4),
    }


def run(quick: bool = False) -> dict:
    objects = 16 if quick else 48
    cells = {f"window_{w}": _cell(w, objects, seed=17) for w in WIDTHS}
    narrow, wide = cells["window_1"], cells["window_8"]
    assert narrow["store_digest"] == wide["store_digest"], (
        "window widths diverged: W=1 and W=8 stores differ")
    serial = SEED_SERIAL_REFERENCE["quick" if quick else "full"]
    return {
        "benchmark": "ec_repair",
        "quick": quick,
        "scheme": f"EC({K},{M})",
        "value_size": VALUE_SIZE,
        "sites": [f"{r}/{p}" for r, p in SITES],
        **cells,
        "window_speedup": round(narrow["repair_seconds"]
                                / max(wide["repair_seconds"], 1e-9), 2),
        "speedup": round(serial["repair_seconds"]
                         / max(wide["repair_seconds"], 1e-9), 2),
        "egress_reduction": round(1.0 - wide["repair_egress_bytes"]
                                  / serial["repair_egress_bytes"], 3),
    }


BOUNDS = (
    ("W=8 speed-up vs the seed serial walk", "speedup", ">=", MIN_SPEEDUP),
    ("W=8 egress reduction vs the seed serial walk", "egress_reduction",
     ">=", MIN_EGRESS_REDUCTION),
    ("W=1 fragments rebuilt vs objects", "window_1.fragments_rebuilt", "==",
     "window_1.objects"),
    ("W=8 fragments rebuilt vs objects", "window_8.fragments_rebuilt", "==",
     "window_8.objects"),
    # net.bytes/messages also count the control plane's heartbeats over
    # the longer W=1 round, so the repair plane's own counter is compared
    ("W=1 bytes moved vs W=8", "window_1.repair_bytes_moved", "==",
     "window_8.repair_bytes_moved"),
    ("W=8 repair seconds (pinned)", "window_8.repair_seconds", "==",
     W8_REPAIR_SECONDS),
    ("W=8 repair egress bytes (pinned)", "window_8.repair_egress_bytes", "==",
     W8_REPAIR_EGRESS_BYTES),
)


def summary(result: dict) -> str:
    lines = []
    for width in WIDTHS:
        cell = result[f"window_{width}"]
        lines.append(f"W={width}    : {cell['repair_seconds']}s, "
                     f"{cell['repair_egress_bytes']}B egress "
                     f"({cell['repair_messages']} msgs), "
                     f"{cell['repair_bytes_moved']}B moved, decode-matrix "
                     f"cache {cell['decode_matrix_cache']}")
    serial = SEED_SERIAL_REFERENCE["quick" if result["quick"] else "full"]
    lines.append(f"history: seed serial walk {serial['repair_seconds']}s / "
                 f"{serial['repair_egress_bytes']}B -> W=8 is "
                 f"{result['speedup']}x faster, "
                 f"{result['egress_reduction']:.0%} less egress")
    return "\n".join(lines)
