"""Kernel fast-path throughput: microbench + macro + CI gate.

Four microbenches exercise the scheduling paths every experiment bottoms
out in.  Each does a fixed amount of *work* — waits, round trips, sleeps,
children gathered — and is scored in work per wall-second: the kernel
gets faster both by dispatching an event in less time and by needing
fewer events for the same work (a process start or an unwatched finish
that schedules nothing), and events per wall-second scores the second
kind as a slowdown.  Event counts and events/sec are reported beside it.

* **resume_churn** — processes repeatedly waiting on an already-processed
  event: the pure deferred-resume path, exactly what the run-queue +
  ``_Deferred`` fast path replaces (poke-event alloc + heap round trip on
  the pre-change kernel).  This is the tentpole's headline number.
* **ping_pong** — two processes resuming each other through zero-delay
  event triggers: the same-time run-queue dispatch path plus per-round
  event allocation.
* **timer_churn** — many processes sleeping on real (non-zero) delays:
  the ``heapq`` path.  A loop doing *nothing but* ``heappush``/``heappop``
  and a generator ``send`` runs at ~1.9M ev/s on the same machine, so this
  bench is structurally capped near 3× its seed value; treat it as a
  regression canary, not a speedup showcase.
* **fanout_allof** — batches of short-lived child processes gathered by
  ``AllOf``: process construction + condition callbacks.

The macro measurement drives closed-loop YCSB-A clients against a 4-shard
multi-primaries deployment and reports ops and simulator events per
wall-second for the full stack (RPC, network, storage, replication).

Output goes to ``results/BENCH_kernel.json``.  The checked-in file carries
a ``baseline`` block (and a ``seed_kernel`` block with the pre-fast-path
numbers measured on the same machine via a git checkout of the seed
kernel); per-bench ``speedup_vs_seed`` ratios — work per wall-second now
over then — are recomputed on every run.
``--check`` fails the run when the combined microbench work per
wall-second drops more than 30% below the baseline — the CI regression
gate.  ``--rebaseline`` re-pins the baseline to the current run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from repro.sim.kernel import Simulator

RESULTS = Path(__file__).resolve().parent.parent / "results"
OUT_PATH = RESULTS / "BENCH_kernel.json"

#: fail --check when micro work/sec drops below this fraction of baseline
GATE_FRACTION = 0.7


# -- microbenches -----------------------------------------------------------

def _resume_churn(procs: int, waits: int) -> Simulator:
    sim = Simulator()
    done = sim.event()
    done.succeed(None)
    sim.run()   # `done` is processed: every wait takes the resume path

    def waiter():
        for _ in range(waits):
            yield done

    for i in range(procs):
        sim.process(waiter(), name=f"wait{i}")
    sim.run()
    return sim


def _timer_churn(procs: int, steps: int) -> Simulator:
    sim = Simulator()

    def worker(i):
        delay = 0.001 + (i % 7) * 0.0013
        for _ in range(steps):
            yield sim.timeout(delay)

    for i in range(procs):
        sim.process(worker(i), name=f"churn{i}")
    sim.run()
    return sim


def _ping_pong(rounds: int) -> Simulator:
    sim = Simulator()
    ev = {"ping": sim.event(), "pong": sim.event()}
    done = sim.event()
    done.succeed(None)
    sim.run()   # `done` is processed: waiting on it takes the resume path

    def pinger():
        for _ in range(rounds):
            ev["ping"].succeed()
            yield ev["pong"]
            ev["pong"] = sim.event()
            yield done

    def ponger():
        for _ in range(rounds):
            yield ev["ping"]
            ev["ping"] = sim.event()
            ev["pong"].succeed()
            yield done

    sim.process(pinger(), name="ping")
    sim.process(ponger(), name="pong")
    sim.run()
    return sim


def _fanout_allof(batches: int, width: int) -> Simulator:
    sim = Simulator()

    def child():
        yield sim.timeout(0.0)
        return 1

    def parent():
        for _ in range(batches):
            values = yield sim.all_of(
                [sim.process(child()) for _ in range(width)])
            assert len(values) == width

    p = sim.process(parent(), name="fanout")
    sim.run(until=p)
    return sim


#: name -> (bench, its arguments at a given scale); a row's work is the
#: product of its arguments: waits, round trips, sleeps, children gathered
MICRO = {
    "resume_churn": (_resume_churn, lambda scale: (20, 2_500 * scale)),
    "ping_pong": (_ping_pong, lambda scale: (25_000 * scale,)),
    "timer_churn": (_timer_churn, lambda scale: (50, 1000 * scale)),
    "fanout_allof": (_fanout_allof, lambda scale: (1000 * scale, 20)),
}
MICRO_NAMES = tuple(MICRO)


def _micro_args(name: str, quick: bool) -> tuple:
    return MICRO[name][1](1 if quick else 4)


def micro_work(name: str, quick: bool) -> int:
    return math.prod(_micro_args(name, quick))


def _measure(name: str, quick: bool) -> dict:
    start = time.perf_counter()
    sim = MICRO[name][0](*_micro_args(name, quick))
    wall = time.perf_counter() - start
    work = micro_work(name, quick)
    return {
        "work": work,
        "events": sim.events_processed,
        "wall_seconds": round(wall, 4),
        "work_per_sec": round(work / wall, 1),
        "events_per_sec": round(sim.events_processed / wall, 1),
    }


def run_micro(quick: bool = False) -> dict:
    micro = {name: _measure(name, quick) for name in MICRO_NAMES}
    work = sum(micro[name]["work"] for name in MICRO_NAMES)
    wall = sum(micro[name]["wall_seconds"] for name in MICRO_NAMES)
    micro["combined_work_per_sec"] = round(work / wall, 1)
    return micro


def run_macro(quick: bool = False) -> dict:
    """Sharded YCSB-A events/sec (whole stack): closed-loop clients on a
    4-shard multi-primaries deployment, the cell the ``seed_kernel``
    block was measured on."""
    from repro.bench.harness import build_deployment
    from repro.core.global_policy import GlobalPolicySpec, RegionPlacement
    from repro.net.topology import US_EAST, US_WEST
    from repro.tiera.policy import write_back_policy
    from repro.workloads.ycsb import YcsbClient, YcsbWorkload

    dep = build_deployment([US_EAST, US_WEST], seed=11, shards=4)
    spec = GlobalPolicySpec(
        name="scale",
        placements=(RegionPlacement(US_EAST, write_back_policy()),
                    RegionPlacement(US_WEST, write_back_policy())),
        consistency="multi_primaries")
    handle = dep.start_sharded_instance("scale", spec)
    workload = YcsbWorkload.workload_a(
        record_count=100 if quick else 400, value_size=256)
    drivers = []
    for i in range(2 if quick else 4):
        client = dep.add_client((US_WEST, US_EAST)[i % 2], sharded=handle)
        drivers.append(YcsbClient(dep.sim, client, workload,
                                  dep.rng.stream(f"ycsb{i}"),
                                  think_time=0.01))
    dep.drive(drivers[0].load())

    started_wall = time.perf_counter()
    started_events = dep.sim.events_processed
    for driver in drivers:
        driver.start()
    dep.sim.run(until=dep.sim.now + (20.0 if quick else 60.0))
    for driver in drivers:
        driver.stop()
    dep.sim.run(until=dep.sim.now + 1.0)
    wall = time.perf_counter() - started_wall
    events = dep.sim.events_processed - started_events
    ops = sum(driver.stats.ops for driver in drivers)
    return {
        "workload": "ycsb-a, 4 shards",
        "kernel_events": events,
        "kernel_events_per_wall_sec": round(events / wall, 1),
        "ops": ops,
        "ops_per_wall_sec": round(ops / wall, 1),
        "wall_seconds": round(wall, 4),
    }


def run(quick: bool = False) -> dict:
    return {
        "benchmark": "kernel",
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
    for key in ("baseline", "seed_kernel"):
        if key in existing:
            carried[key] = existing[key]
    if rebaseline or "baseline" not in carried:
        carried["baseline"] = {
            "quick": result["quick"],
            "micro_work_per_sec": result["micro"]["combined_work_per_sec"],
        }
    result = {**result, **carried}
    seed = result.get("seed_kernel", {}).get("micro", {})
    if seed:
        # The seed block holds full-scale runs of the same benches, so the
        # comparison is work per wall-second then and now.
        seed_work = {name: micro_work(name, quick=False)
                     for name in MICRO_NAMES}
        speedups = {}
        for name in MICRO_NAMES:
            speedups[name] = round(
                result["micro"][name]["work_per_sec"]
                / (seed_work[name] / seed[name]["wall_seconds"]), 2)
        speedups["combined"] = round(
            result["micro"]["combined_work_per_sec"]
            / (sum(seed_work.values())
               / sum(seed[name]["wall_seconds"] for name in MICRO_NAMES)), 2)
        seed_macro = result["seed_kernel"].get("macro")
        if seed_macro and result.get("macro"):
            speedups["macro_ycsb"] = round(
                result["macro"]["ops_per_wall_sec"]
                / (seed_macro["ops"] / seed_macro["wall_seconds"]), 2)
        result["speedup_vs_seed_kernel"] = speedups
        # The headline: the zero-delay resume path the fast path targets.
        result["hot_path_speedup"] = speedups.get("resume_churn")
    RESULTS.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    return OUT_PATH


def check_gate(result: dict) -> bool:
    """True when throughput is within the allowed drop from baseline."""
    baseline = result.get("baseline")
    if not baseline:
        print("no baseline recorded; gate passes vacuously")
        return True
    if baseline.get("quick") != result.get("quick"):
        print("baseline was recorded in a different mode "
              f"(quick={baseline.get('quick')}); gate skipped — "
              "re-pin with --rebaseline in the mode you gate on")
        return True
    floor = GATE_FRACTION * baseline["micro_work_per_sec"]
    current = result["micro"]["combined_work_per_sec"]
    ok = current >= floor
    verdict = "ok" if ok else "REGRESSION"
    print(f"gate: {current:.0f} work/s vs baseline "
          f"{baseline['micro_work_per_sec']:.0f} work/s "
          f"(floor {floor:.0f}) -> {verdict}")
    return ok


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short CI-smoke run")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if micro work/sec drops >30%% "
                             "below the checked-in baseline")
    parser.add_argument("--rebaseline", action="store_true",
                        help="pin the baseline to this run")
    parser.add_argument("--micro-only", action="store_true",
                        help="skip the macro YCSB measurement")
    args = parser.parse_args()

    result = {
        "benchmark": "kernel",
        "quick": args.quick,
        "micro": run_micro(args.quick),
        "macro": None if args.micro_only else run_macro(args.quick),
    }
    out = emit(result, rebaseline=args.rebaseline)
    final = json.loads(out.read_text())

    speedups = final.get("speedup_vs_seed_kernel", {})
    print(f"{'bench':>14} {'work':>8} {'events':>8} {'wall-s':>8} "
          f"{'work/s':>10} {'events/s':>10} {'vs seed':>8}")
    for name in MICRO_NAMES:
        m = final["micro"][name]
        ratio = speedups.get(name)
        print(f"{name:>14} {m['work']:>8} {m['events']:>8} "
              f"{m['wall_seconds']:>8.3f} {m['work_per_sec']:>10.0f} "
              f"{m['events_per_sec']:>10.0f} "
              f"{(f'{ratio:.2f}x' if ratio else '-'):>8}")
    combined = final["micro"]["combined_work_per_sec"]
    ratio = speedups.get("combined")
    print(f"{'combined':>14} {'':>8} {'':>8} {'':>8} {combined:>10.0f} "
          f"{'':>10} {(f'{ratio:.2f}x' if ratio else '-'):>8}")
    if final.get("macro"):
        macro = final["macro"]
        ratio = speedups.get("macro_ycsb")
        print(f"{'macro ycsb-a':>14} {macro['ops']:>8} "
              f"{macro['kernel_events']:>8} {macro['wall_seconds']:>8.3f} "
              f"{macro['ops_per_wall_sec']:>10.0f} "
              f"{macro['kernel_events_per_wall_sec']:>10.0f} "
              f"{(f'{ratio:.2f}x' if ratio else '-'):>8}")
    print(f"wrote {out}")

    if args.check and not check_gate(final):
        sys.exit(1)


if __name__ == "__main__":
    main()
