"""Batched data plane: kernel events per replicated write + CI gate.

Measures what per-peer replication batching (``GlobalPolicySpec.
batch_bytes``) buys on the two axes the change targets:

* **micro (flush fan-out)** — a ReplicationQueue with N pending keys and
  P peers is flushed repeatedly and the *simulator events consumed per
  (key, peer) delivery* are counted, batching off vs on.  Unbatched,
  every delivery is its own RPC process (envelope transmit, dispatch,
  reply transmit); batched, one ``call_batch`` per peer carries the whole
  flush, so the per-delivery transport overhead amortizes away.  Kernel
  event counts are deterministic, which makes the off/on ratio an exact,
  machine-independent measurement — the ``--check`` gate requires it to
  stay >= 2.0.  (The ratio was 4.9x while every transmit cost three
  events — link grant, serialization, propagation; with one event per
  message the *unbatched* delivery fell from 10.5 to 6.5 events and the
  batched one, already amortised, stayed at 2.2, so the ratio is 3.0x.
  Batching saves the same RPCs as before; each of them is cheaper now.)
* **macro (eventual YCSB-A)** — the same closed-loop update-heavy
  workload against a 3-region eventual-consistency instance, batching
  off vs on: total kernel events, kernel events per acknowledged update,
  and wall-clock seconds.  The wall-clock speedup is reported (it tracks
  the event reduction but is machine-dependent); the gate only requires
  the *event* reduction, plus the bench_kernel-style throughput floor
  against the checked-in baseline.

Output goes to ``results/BENCH_replication_batch.json``; the checked-in
file carries a ``baseline`` block.  ``--check`` fails the run when the
micro events-per-delivery ratio drops below MIN_EVENT_RATIO or wall
throughput drops more than 30% below baseline; ``--rebaseline`` re-pins
the baseline to the current run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench.harness import build_deployment
from repro.core.consistency import ReplicationQueue
from repro.core.global_policy import GlobalPolicySpec, RegionPlacement
from repro.net.topology import EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy
from repro.workloads.ycsb import YcsbClient, YcsbWorkload

RESULTS = Path(__file__).resolve().parent.parent / "results"
OUT_PATH = RESULTS / "BENCH_replication_batch.json"

REGIONS = (US_EAST, US_WEST, EU_WEST)

#: --check fails if batching saves less than this factor in kernel
#: events per (key, peer) delivery on the micro flush fan-out
MIN_EVENT_RATIO = 2.0

#: --check fails when macro wall throughput (batched ops/sec) drops below
#: this fraction of the checked-in baseline
GATE_FRACTION = 0.7


# -- micro: flush fan-out ----------------------------------------------------

def _micro_one(batch_bytes: float, keys: int, rounds: int,
               payload: int) -> dict:
    dep = build_deployment(REGIONS, seed=5)
    spec = GlobalPolicySpec(
        name="m",
        placements=tuple(RegionPlacement(r, memory_only_policy())
                         for r in REGIONS),
        consistency="eventual", queue_interval=1000.0)  # manual flushing
    dep.start_wiera_instance("m", spec)
    east = dep.instance("m", US_EAST)
    queue = ReplicationQueue(east, interval=1000.0, batch_bytes=batch_bytes)
    data = b"x" * payload

    def make_update(key):
        def put():
            version = yield from east.local_put(key, data)
            meta = east.meta.get_record(key).versions[version]
            return {"key": key, "version": version,
                    "last_modified": meta.last_modified,
                    "origin": east.instance_id, "data": data}
        return dep.drive(put())

    def flush():
        yield from queue.flush()

    deliveries = 0
    flush_events = 0
    started_wall = time.perf_counter()
    for r in range(rounds):
        for i in range(keys):
            queue.enqueue(make_update(f"r{r}k{i}"))
        before = dep.sim.events_processed
        dep.drive(flush())
        flush_events += dep.sim.events_processed - before
        deliveries += keys * len(east.peers)
    wall = time.perf_counter() - started_wall
    assert queue.backlog_size() == 0 and queue.outstanding_failures == 0
    return {
        "batch_bytes": batch_bytes,
        "deliveries": deliveries,
        "flush_events": flush_events,
        "events_per_delivery": round(flush_events / deliveries, 3),
        "wall_seconds": round(wall, 4),
    }


def run_micro(quick: bool = False) -> dict:
    keys = 32 if quick else 64
    rounds = 8 if quick else 32
    off = _micro_one(0.0, keys, rounds, payload=256)
    on = _micro_one(1.0, keys, rounds, payload=256)
    return {
        "keys_per_flush": keys,
        "rounds": rounds,
        "peers": 2,
        "unbatched": off,
        "batched": on,
        # the headline: how many kernel events one delivery costs
        "events_per_delivery_ratio": round(
            off["events_per_delivery"] / on["events_per_delivery"], 2),
    }


# -- macro: eventual-consistency YCSB-A --------------------------------------

def _macro_one(batch_bytes: float, duration: float, clients: int,
               record_count: int) -> dict:
    dep = build_deployment(REGIONS, seed=11)
    spec = GlobalPolicySpec(
        name="mac",
        placements=tuple(RegionPlacement(r, memory_only_policy())
                         for r in REGIONS),
        consistency="eventual", queue_interval=0.25,
        batch_bytes=batch_bytes)
    instances = dep.start_wiera_instance("mac", spec)
    workload = YcsbWorkload.workload_a(record_count=record_count,
                                       value_size=256)
    drivers = []
    for i in range(clients):
        region = REGIONS[i % len(REGIONS)]
        client = dep.add_client(region, instances=instances)
        rng = dep.rng.stream(f"ycsb{i}")
        drivers.append(YcsbClient(dep.sim, client, workload, rng,
                                  think_time=0.01))
    dep.drive(drivers[0].load())

    started_wall = time.perf_counter()
    started_events = dep.sim.events_processed
    for driver in drivers:
        driver.start()
    dep.sim.run(until=dep.sim.now + duration)
    for driver in drivers:
        driver.stop()
    dep.sim.run(until=dep.sim.now + 2.0)    # let the queues drain
    wall = time.perf_counter() - started_wall
    events = dep.sim.events_processed - started_events
    ops = sum(driver.stats.ops for driver in drivers)
    updates = sum(driver.stats.updates for driver in drivers)
    errors = sum(driver.stats.errors for driver in drivers)
    return {
        "batch_bytes": batch_bytes,
        "ops": ops,
        "updates": updates,
        "errors": errors,
        "kernel_events": events,
        "events_per_update": round(events / max(updates, 1), 1),
        "wall_seconds": round(wall, 4),
        "ops_per_wall_sec": round(ops / wall, 1),
    }


def run_macro(quick: bool = False) -> dict:
    duration = 20.0 if quick else 90.0
    clients = 3 if quick else 6
    record_count = 100 if quick else 400
    off = _macro_one(0.0, duration, clients, record_count)
    on = _macro_one(8192.0, duration, clients, record_count)
    return {
        "workload": "ycsb-a, eventual, 3 regions",
        "duration_sim_sec": duration,
        "clients": clients,
        "record_count": record_count,
        "unbatched": off,
        "batched": on,
        "kernel_event_reduction": round(
            off["kernel_events"] / max(on["kernel_events"], 1), 2),
        "events_per_update_ratio": round(
            off["events_per_update"] / max(on["events_per_update"], 0.1), 2),
        "wall_clock_speedup": round(
            off["wall_seconds"] / max(on["wall_seconds"], 1e-9), 2),
    }


def run(quick: bool = False) -> dict:
    return {
        "benchmark": "replication_batch",
        "quick": quick,
        "micro": run_micro(quick),
        "macro": run_macro(quick),
    }


# -- baseline plumbing ------------------------------------------------------

def _load_existing() -> dict:
    if OUT_PATH.exists():
        try:
            return json.loads(OUT_PATH.read_text())
        except json.JSONDecodeError:
            return {}
    return {}


def emit(result: dict, rebaseline: bool = False) -> Path:
    existing = _load_existing()
    carried = {}
    if "baseline" in existing:
        carried["baseline"] = existing["baseline"]
    if rebaseline or "baseline" not in carried:
        carried["baseline"] = {
            "quick": result["quick"],
            "events_per_delivery_ratio":
                result["micro"]["events_per_delivery_ratio"],
            "batched_ops_per_wall_sec":
                result["macro"]["batched"]["ops_per_wall_sec"],
        }
    # Mutate in place so the caller's --check sees the carried baseline.
    result.update(carried)
    RESULTS.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    return OUT_PATH


def check_gate(result: dict) -> bool:
    ok = True
    ratio = result["micro"]["events_per_delivery_ratio"]
    if ratio < MIN_EVENT_RATIO:
        print(f"gate: micro events/delivery ratio {ratio} "
              f"< required {MIN_EVENT_RATIO} -> REGRESSION")
        ok = False
    else:
        print(f"gate: micro events/delivery ratio {ratio} "
              f">= {MIN_EVENT_RATIO} -> ok")
    macro_cut = result["macro"]["events_per_update_ratio"]
    if macro_cut < 1.0:
        print(f"gate: macro events/update ratio {macro_cut} < 1.0 "
              "(batching made the macro run MORE expensive) -> REGRESSION")
        ok = False
    else:
        print(f"gate: macro events/update ratio {macro_cut} -> ok")
    baseline = result.get("baseline")
    if not baseline:
        print("no baseline recorded; throughput floor passes vacuously")
        return ok
    if baseline.get("quick") != result.get("quick"):
        print("baseline was recorded in a different mode "
              f"(quick={baseline.get('quick')}); floor skipped — "
              "re-pin with --rebaseline in the mode you gate on")
        return ok
    floor = GATE_FRACTION * baseline["batched_ops_per_wall_sec"]
    current = result["macro"]["batched"]["ops_per_wall_sec"]
    if current < floor:
        print(f"gate: batched {current:.0f} ops/s vs baseline "
              f"{baseline['batched_ops_per_wall_sec']:.0f} "
              f"(floor {floor:.0f}) -> REGRESSION")
        ok = False
    else:
        print(f"gate: batched {current:.0f} ops/s "
              f"(floor {floor:.0f}) -> ok")
    return ok


def test_replication_batch(benchmark):
    result = benchmark.pedantic(run, kwargs={"quick": True},
                                rounds=1, iterations=1)
    emit(result)
    assert result["micro"]["events_per_delivery_ratio"] >= MIN_EVENT_RATIO
    assert result["macro"]["events_per_update_ratio"] >= 1.0
    assert result["macro"]["batched"]["errors"] == 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short CI-smoke run")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless batching still saves >= "
                             f"{MIN_EVENT_RATIO}x events per delivery and "
                             "throughput holds the baseline floor")
    parser.add_argument("--rebaseline", action="store_true",
                        help="pin the baseline to this run")
    args = parser.parse_args()
    result = run(quick=args.quick)
    out = emit(result, rebaseline=args.rebaseline)
    micro = result["micro"]
    macro = result["macro"]
    print(f"micro : {micro['unbatched']['events_per_delivery']} -> "
          f"{micro['batched']['events_per_delivery']} events/delivery "
          f"({micro['events_per_delivery_ratio']}x)")
    print(f"macro : {macro['unbatched']['kernel_events']} -> "
          f"{macro['batched']['kernel_events']} kernel events "
          f"({macro['kernel_event_reduction']}x), "
          f"events/update {macro['unbatched']['events_per_update']} -> "
          f"{macro['batched']['events_per_update']} "
          f"({macro['events_per_update_ratio']}x), "
          f"wall {macro['unbatched']['wall_seconds']}s -> "
          f"{macro['batched']['wall_seconds']}s "
          f"({macro['wall_clock_speedup']}x)")
    print(f"wrote {out}")
    if args.check and not check_gate(result):
        sys.exit(1)


if __name__ == "__main__":
    main()
