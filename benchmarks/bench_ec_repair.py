"""EC crash-recovery repair: one round at window widths 1 and 8 + CI gate.

Writes N EC(2,2) objects across a 6-site deployment, crashes the holder
of fragment 1 (wiping its memory tier) and leaves it down, then drives
exactly one repair round on the repair leader at
``repair_concurrency=1`` (one object in flight) and ``=8``.  Both go
through the repairer's single pipeline — parallel probes, batched
``check_readable`` envelopes, holder-local ``reconstruct_fragment``,
batched ``manifest_remap`` deltas — and differ only in how many object
repairs overlap.

Each cell reports repair completion time (simulated seconds for the
round), repair egress (``net.bytes`` delta across the round), message
count, bytes moved, fragments rebuilt, and the codec's decode-matrix
cache hits.  Correctness is asserted inside the cell: every object
decodes cleanly after the round and the second (verify) round is a
no-op.  Both cells must converge to the same timing-free store digest.

Output goes to ``results/BENCH_ec_repair.json``.  The checked-in file
carries two blocks this script never recomputes: ``seed_serial_reference``
— what the serial walk this pipeline replaced cost on the same scenario,
measured at the last commit that had it — and ``baseline``, the W=8
figures per mode.  ``--check`` fails the run unless the live W=8 round
is >= MIN_SPEEDUP faster and >= MIN_EGRESS_REDUCTION cheaper on egress
than that frozen reference *and* reproduces the baseline's sim-seconds
and egress exactly (the simulator is deterministic; any drift is a
behaviour change).  ``--rebaseline`` re-pins the baseline for the mode
being run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench.harness import build_deployment
from repro.core.global_policy import (GlobalPolicySpec, RedundancySpec,
                                      RegionPlacement)
from repro.ec import codec
from repro.ec.protocol import decode_manifest
from repro.net.topology import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy

RESULTS = Path(__file__).resolve().parent.parent / "results"
OUT_PATH = RESULTS / "BENCH_ec_repair.json"

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

#: --check fails unless the W=8 round completes at least this many times
#: faster (simulated seconds) than the frozen seed-serial reference
MIN_SPEEDUP = 3.0
#: --check fails unless the W=8 round moves at least this fraction fewer
#: bytes than the frozen seed-serial reference
MIN_EGRESS_REDUCTION = 0.40


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


def _mode(quick: bool) -> str:
    return "quick" if quick else "full"


def run(quick: bool = False) -> dict:
    objects = 16 if quick else 48
    cells = {f"window_{w}": _cell(w, objects, seed=17) for w in WIDTHS}
    narrow, wide = cells["window_1"], cells["window_8"]
    assert narrow["store_digest"] == wide["store_digest"], (
        "window widths diverged: W=1 and W=8 stores differ")
    return {
        "benchmark": "ec_repair",
        "quick": quick,
        "scheme": f"EC({K},{M})",
        "value_size": VALUE_SIZE,
        "sites": [f"{r}/{p}" for r, p in SITES],
        **cells,
        "window_speedup": round(narrow["repair_seconds"]
                                / max(wide["repair_seconds"], 1e-9), 2),
    }


# -- frozen blocks ------------------------------------------------------------

def _load_existing() -> dict:
    if OUT_PATH.exists():
        try:
            return json.loads(OUT_PATH.read_text())
        except json.JSONDecodeError:
            return {}
    return {}


def emit(result: dict, rebaseline: bool = False) -> Path:
    """Write the run, carrying the frozen blocks over from the file on
    disk and deriving the headline ratios against the reference."""
    existing = _load_existing()
    mode, wide = _mode(result["quick"]), result["window_8"]
    baseline = dict(existing.get("baseline", {}))
    if rebaseline or mode not in baseline:
        baseline[mode] = {
            "repair_seconds": wide["repair_seconds"],
            "repair_egress_bytes": wide["repair_egress_bytes"]}
    result["baseline"] = baseline
    reference = existing.get("seed_serial_reference")
    if reference is not None:
        result["seed_serial_reference"] = reference
        serial = reference[mode]
        result["speedup"] = round(
            serial["repair_seconds"] / max(wide["repair_seconds"], 1e-9), 2)
        result["egress_reduction"] = round(
            1.0 - wide["repair_egress_bytes"]
            / serial["repair_egress_bytes"], 3)
    RESULTS.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    return OUT_PATH


def check_gate(result: dict) -> bool:
    ok = True
    if "seed_serial_reference" not in result:
        print("gate: results file has no seed_serial_reference block "
              "-> REGRESSION")
        return False
    for name, floor in (("speedup", MIN_SPEEDUP),
                        ("egress_reduction", MIN_EGRESS_REDUCTION)):
        verdict = "ok" if result[name] >= floor else "REGRESSION"
        print(f"gate: {name} vs seed serial {result[name]} "
              f"(floor {floor}) -> {verdict}")
        ok &= result[name] >= floor
    for width in WIDTHS:
        cell = result[f"window_{width}"]
        if cell["fragments_rebuilt"] != cell["objects"]:
            print(f"gate: W={width} rebuilt {cell['fragments_rebuilt']}/"
                  f"{cell['objects']} fragments -> REGRESSION")
            ok = False
    narrow, wide = result["window_1"], result["window_8"]
    # (net.bytes/messages also count the control plane's heartbeats over
    # the longer W=1 round, so the repair plane's own counter is compared)
    if narrow["repair_bytes_moved"] != wide["repair_bytes_moved"]:
        print(f"gate: bytes moved depend on the window width "
              f"({narrow['repair_bytes_moved']} vs "
              f"{wide['repair_bytes_moved']}) -> REGRESSION")
        ok = False
    pinned = result["baseline"][_mode(result["quick"])]
    for field, want in pinned.items():
        verdict = "ok" if wide[field] == want else "REGRESSION"
        print(f"gate: W=8 {field} {wide[field]} "
              f"(baseline {want}, must match exactly) -> {verdict}")
        ok &= wide[field] == want
    return ok


def test_ec_repair(benchmark):
    result = benchmark.pedantic(run, kwargs={"quick": True},
                                rounds=1, iterations=1)
    emit(result)
    assert check_gate(result)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short CI-smoke run")
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 unless the W=8 round stays "
                             f">= {MIN_SPEEDUP}x faster and "
                             f">= {MIN_EGRESS_REDUCTION:.0%} cheaper than "
                             f"the frozen seed-serial reference and "
                             f"reproduces the baseline exactly")
    parser.add_argument("--rebaseline", action="store_true",
                        help="pin this mode's baseline to this run")
    args = parser.parse_args()
    result = run(quick=args.quick)
    out = emit(result, rebaseline=args.rebaseline)
    for width in WIDTHS:
        cell = result[f"window_{width}"]
        print(f"W={width}    : {cell['repair_seconds']}s, "
              f"{cell['repair_egress_bytes']}B egress "
              f"({cell['repair_messages']} msgs), "
              f"{cell['repair_bytes_moved']}B moved, decode-matrix cache "
              f"{cell['decode_matrix_cache']}")
    if "seed_serial_reference" in result:
        serial = result["seed_serial_reference"][_mode(args.quick)]
        print(f"history: seed serial walk {serial['repair_seconds']}s / "
              f"{serial['repair_egress_bytes']}B -> W=8 is "
              f"{result['speedup']}x faster, "
              f"{result['egress_reduction']:.0%} less egress")
    print(f"wrote {out}")
    if args.check and not check_gate(result):
        sys.exit(1)


if __name__ == "__main__":
    main()
