"""Shard scale-out: achieved throughput vs shard count (repro.shard).

**Open-loop** (see :mod:`repro.load`): for each shard count, an
offered-load sweep drives one cohort per region at a configured arrival
rate against a deployment with one Tiera host per shard per region
(``servers_per_region=shards``), so shards occupy real capacity.
Reported per (shard count, offered level): achieved ops/sim-sec, shed
load, queueing delay, and tail latency — the scale-out curve bends
upward because per-host egress saturates and added shards add hosts.
(A closed-loop driver cannot show this: its latency-bound clients, not
the store, are the ceiling — DESIGN "Open-loop workload engine".)

Emits ``results/BENCH_shard_scaleout.json``.  Run as a script
(``--quick`` shrinks the run for CI smoke) or via pytest.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.bench.openloop import run_scaleout_cell, scaleout_workload

SHARD_COUNTS = (1, 2, 4, 8)
RESULTS = Path(__file__).resolve().parent.parent / "results"
OUT_PATH = RESULTS / "BENCH_shard_scaleout.json"


def run_open_loop(quick: bool = False) -> dict:
    offered_levels = (500.0, 2000.0, 4000.0) if quick else \
        (500.0, 1000.0, 2000.0, 4000.0, 8000.0)
    duration = 4.0 if quick else 10.0
    workload = scaleout_workload()
    rows = [run_scaleout_cell(shards, offered, duration, workload=workload)
            for shards in SHARD_COUNTS for offered in offered_levels]
    return {
        "workload": "ycsb-b uniform 64KB values, eventual (open loop)",
        "offered_levels": list(offered_levels),
        "duration_sim_sec": duration,
        "rows": rows,
    }


def run(quick: bool = False) -> dict:
    return {
        "benchmark": "shard_scaleout",
        "quick": quick,
        "open_loop": run_open_loop(quick),
    }


def emit(result: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    return OUT_PATH


def test_shard_scaleout(benchmark):
    result = benchmark.pedantic(run, kwargs={"quick": True},
                                rounds=1, iterations=1)
    emit(result)
    open_rows = result["open_loop"]["rows"]
    top = result["open_loop"]["offered_levels"][-1]
    at_top = {row["shards"]: row for row in open_rows
              if row["offered_per_sec"] == top}
    assert set(at_top) == set(SHARD_COUNTS)
    # The whole point of the open-loop driver: the curve bends upward.
    assert (at_top[8]["achieved_per_sim_sec"]
            >= 3.0 * at_top[1]["achieved_per_sim_sec"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short CI-smoke run")
    args = parser.parse_args()
    result = run(quick=args.quick)
    out = emit(result)
    print("open loop (offered-load sweep):")
    print(f"{'shards':>6} {'offered/s':>10} {'achieved/s':>10} "
          f"{'shed':>8} {'p95 ms':>8}")
    for row in result["open_loop"]["rows"]:
        print(f"{row['shards']:>6} {row['offered_per_sec']:>10.0f} "
              f"{row['achieved_per_sim_sec']:>10.0f} {row['shed']:>8} "
              f"{row['get_p95_ms']:>8.1f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
