#!/usr/bin/env python3
"""The two-clock, layer-attributed benchmark (see perf/README.md).

One measured run, as the pipeline invokes it::

    python3 perf/run.py --workload ol_read --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off), ``--trace 1``
the per-layer metrics (exact counts, cProfile fold, span fold, micros,
tracing overhead).  The last stdout line is one JSON object.

The whole suite, one child process per (workload, trace) so that
``peak_rss_mb`` belongs to one workload::

    python3 perf/run.py --all [--seed N] [--record]
    python3 perf/run.py --selfcheck
    python3 perf/run.py --spread
    python3 perf/run.py --all --quick
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

try:
    import layers  # noqa: E402
    import micro  # noqa: E402
    from workloads import WORKLOADS  # noqa: E402
except ImportError as exc:
    sys.exit(f"perf/run.py: cannot import the program under {ROOT / 'src'}: "
             f"{exc}")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: deployment seeds derived from one ``--seed`` (see measure_end_to_end)
SUBSEEDS = 5
#: timed reps per run: never fewer, more while ``--seconds`` lasts
MIN_REPS = SUBSEEDS
#: end-to-end metrics on the host's clock or memory; all others are
#: sim-clock or exact and must repeat for one seed
WALL_METRICS = ("setup_s", "ops_per_wall_s", "peak_rss_mb")
#: "repeat" between two processes: reps inside one process are compared bit
#: for bit, but CostLedger.request_dollars() sums floats in set order,
#: which follows the interpreter's per-process string-hash seed
SAME = 1e-9


# -- one rep ---------------------------------------------------------------

def pooled_metrics(parts: list) -> dict:
    """The sim-clock and exact end-to-end metrics over the pooled ops of
    ``parts`` (one rep, or one rep per sub-seed)."""
    ops = sum(p["ops"] for p in parts)
    out = {
        "events_per_op": sum(p["events"] for p in parts) / ops,
        "ops_per_sim_s": ops / sum(p["sim_s"] for p in parts),
        "egress_bytes_per_op": sum(p["net_bytes"] for p in parts) / ops,
        "dollars_per_mop": sum(p["dollars"] for p in parts) / ops * 1e6,
    }
    for op in ("get", "put"):
        sample = np.concatenate([p[f"{op}_s"] for p in parts])
        for q in (50, 99):
            out[f"{op}_p{q}_ms"] = 1e3 * float(np.percentile(sample, q))
    return out


def _phase_stats(sample: list) -> dict:
    return {"n": len(sample),
            "p50_ms": 1e3 * float(np.percentile(sample, 50)),
            "p99_ms": 1e3 * float(np.percentile(sample, 99))}


def run_rep(workload, seed: int, quick: bool, mode: str = "plain") -> dict:
    """Build a fresh deployment, run the timed phase, check the outputs.

    ``mode`` is ``plain`` (tracing off), ``profile`` (timed phase under
    cProfile) or ``spans`` (deployment built with sim-time tracing on).
    """
    gc.collect()
    started = time.perf_counter()
    ctx = workload.build(seed, quick, mode == "spans")
    setup_s = time.perf_counter() - started

    dep, oplog = ctx["dep"], ctx["oplog"]
    ledger = dep.ledger
    totals_before = layers.metric_totals(dep)
    dollars_before = ledger.request_dollars() + ledger.network_dollars()
    events_before, sim_before = dep.sim.events_processed, dep.sim.now
    profile = cProfile.Profile() if mode == "profile" else None

    started = time.perf_counter()
    if profile is not None:
        profile.runcall(workload.run, ctx)
    else:
        workload.run(ctx)
    wall_s = time.perf_counter() - started

    workload.account(ctx)
    totals_after = layers.metric_totals(dep)
    ops = oplog.completed
    sim_s = dep.sim.now - sim_before
    events = dep.sim.events_processed - events_before
    dollars = (ledger.request_dollars() + ledger.network_dollars()
               - dollars_before)
    net_bytes = totals_after["net.bytes"] - totals_before["net.bytes"]
    rep = {
        "setup_s": setup_s, "wall_s": wall_s, "sim_s": sim_s,
        "events": events, "ops": ops, "net_bytes": net_bytes,
        "dollars": dollars,
        # full per-op samples (sim seconds), copied before check() reads more
        "get_s": np.asarray(oplog.latency["get"]),
        "put_s": np.asarray(oplog.latency["put"]),
        "attempted": ctx["attempted"], "failed": ctx["failed"],
        "errors_by_type": dict(sorted(oplog.errors_by_type.items())),
        "store_digest": dep.store_digest(),
        "acked_digest": f"{oplog.acked_digest:016x}",
        "phases": {phase: _phase_stats(sample)
                   for phase, sample in oplog.by_phase.items()},
        "totals_before": totals_before, "totals_after": totals_after,
        "cohort_reports": ctx.get("cohort_reports"),
        "offered_expected": ctx.get("offered_expected", 0.0),
        "repair_round_sim_s": ctx.get("repair_round_sim_s", 0.0),
    }
    rep["exact"] = pooled_metrics([rep])
    if profile is not None:
        rep["profile"] = profile
    if mode == "spans":
        rep["spans"] = layers.fold_spans(dep.obs.tracer.spans, sim_before,
                                         ops)
    rep["problems"] = workload.check(ctx)
    return rep


# -- a run: reps of one workload -------------------------------------------

#: what two reps of one (workload, sub-seed) must agree on exactly
IDENTITY = ("exact", "store_digest", "acked_digest", "ops", "attempted",
            "failed", "events", "sim_s")


def _identity(rep: dict) -> dict:
    return {key: rep[key] for key in IDENTITY}


def subseed(seed: int, index: int) -> int:
    """The ``index``-th deployment seed derived from ``--seed``; distinct
    for distinct (seed, index)."""
    return seed * SUBSEEDS + index


def _spread(values: list) -> dict:
    """Median with quartiles, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return {"value": values[0], "q1": values[0], "q3": values[0],
                "n": len(values)}
    q1, _, q3 = quantiles(values, n=4)
    return {"value": median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure_end_to_end(name: str, seed: int, seconds: float,
                       quick: bool) -> dict:
    """Warm-up (smoke size, discarded) + timed reps, tracing off.

    Rep ``r`` runs sub-seed ``r % SUBSEEDS``: the five reps every run
    makes cover all five sub-seeds, and the sim-clock and exact metrics
    are taken over their pooled ops, so one seed's Poisson luck does not
    decide a p99.  Every further rep (made while ``--seconds`` lasts)
    repeats a sub-seed already seen and must reproduce it bit for bit.
    """
    workload = WORKLOADS[name]
    floor, budget = (1, 0.0) if quick else (MIN_REPS, seconds)
    deadline = time.perf_counter() + budget
    if not quick:
        run_rep(workload, subseed(seed, 0), quick=True)
    reps = []
    while len(reps) < floor or time.perf_counter() < deadline:
        reps.append(run_rep(workload, subseed(seed, len(reps) % SUBSEEDS),
                            quick))
    firsts = {}                     # sub-seed index -> first rep that ran it
    problems = [p for rep in reps for p in rep["problems"]]
    for r, rep in enumerate(reps):
        first = firsts.setdefault(r % SUBSEEDS, rep)
        for key in IDENTITY:
            if rep[key] != first[key]:
                problems.append(
                    f"rep {r}: {key} differs from the earlier rep of the "
                    f"same sub-seed ({rep[key]} != {first[key]})")

    parts = [firsts[i] for i in sorted(firsts)]
    metrics = {
        "setup_s": _spread([r["setup_s"] for r in reps]),
        "ops_per_wall_s": _spread([r["ops"] / r["wall_s"] for r in reps]),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0, "n": 1},
    }
    for metric, value in pooled_metrics(parts).items():
        metrics[metric] = {"value": value, "n": len(parts)}
    for op in ("get", "put"):
        for q in ("p50", "p99"):
            metrics[f"{op}_{q}_ms"]["samples"] = sum(len(p[f"{op}_s"])
                                                     for p in parts)
    errors: dict[str, int] = {}
    for part in parts:
        for kind, n in part["errors_by_type"].items():
            errors[kind] = errors.get(kind, 0) + n
    return {
        "workload": name, "seed": seed, "trace": 0, "reps": len(reps),
        "subseeds": len(parts),
        "correct": not problems, "problems": problems,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "errors_by_type": errors,
        "ops": sum(p["ops"] for p in parts),
        "sim_s": sum(p["sim_s"] for p in parts),
        "events": sum(p["events"] for p in parts),
        "store_digests": [p["store_digest"] for p in parts],
        "acked_digests": [p["acked_digest"] for p in parts],
        "phases": parts[0]["phases"],
        "raw": {"wall_s": [r["wall_s"] for r in reps],
                "setup_s": [r["setup_s"] for r in reps]},
        "metrics": _with_units(metrics, END_TO_END),
    }


def measure_per_layer(name: str, seed: int, quick: bool) -> dict:
    """Warm-up, one untraced rep for the counts, one under cProfile, one
    with spans, then the micros.  Fixed work: ``--seconds`` does not
    apply."""
    workload = WORKLOADS[name]
    seed0 = subseed(seed, 0)
    run_rep(workload, seed0, quick=True)            # warm-up, discarded
    plain = run_rep(workload, seed0, quick)
    profiled = run_rep(workload, seed0, quick, "profile")
    spanned = run_rep(workload, seed0, quick, "spans")

    problems = [p for rep in (plain, profiled, spanned)
                for p in rep["problems"]]
    for label, rep in (("cProfile", profiled), ("spans", spanned)):
        if _identity(rep) != _identity(plain):
            problems.append(f"{label} rep changed a sim-clock or exact "
                            "number: tracing must be zero sim-cost")

    values = layers.exact_counts(plain)
    values.update(layers.fold_profile(profiled["profile"], plain["ops"]))
    values.update(spanned["spans"])
    values.update(micro.run_micros(quick))
    values["trace.cprofile_overhead_x"] = profiled["wall_s"] / plain["wall_s"]
    values["trace.spans_overhead_x"] = spanned["wall_s"] / plain["wall_s"]
    return {
        "workload": name, "seed": seed, "trace": 1,
        "correct": not problems, "problems": problems,
        "attempted": plain["attempted"], "failed": plain["failed"],
        "raw": {"wall_s": {"plain": plain["wall_s"],
                           "cprofile": profiled["wall_s"],
                           "spans": spanned["wall_s"]}},
        "metrics": _with_units({k: {"value": v} for k, v in values.items()},
                               PER_LAYER),
    }


def _with_units(metrics: dict, declared: dict) -> dict:
    """Attach each metric's declared unit; the measured set must be
    exactly the set BENCHMARK.json declares."""
    if set(metrics) != set(declared):
        raise SystemExit(
            "perf/run.py: measured metrics and BENCHMARK.json disagree: "
            f"undeclared {sorted(set(metrics) - set(declared))}, "
            f"unmeasured {sorted(set(declared) - set(metrics))}")
    for name, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            raise SystemExit(f"perf/run.py: {name} is not finite")
        entry["unit"] = declared[name]["unit"]
    return {name: metrics[name] for name in declared}


def print_result(result: dict) -> None:
    """Every metric by name with its unit, then the contract's last line."""
    print(f"# {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, entry in result["metrics"].items():
        extra = ""
        if "q1" in entry:
            extra = (f"  [q1 {entry['q1']:.6g} q3 {entry['q3']:.6g} "
                     f"n={entry['n']}]")
        elif "samples" in entry:
            extra = f"  [n={entry['samples']} ops]"
        print(f"{name:44s} {entry['value']:16.6f} {entry['unit']}{extra}")
    for phase, stats in result.get("phases", {}).items():
        print(f"#   gets in phase {phase}: n={stats['n']} "
              f"p50 {stats['p50_ms']:.3f} ms p99 {stats['p99_ms']:.3f} ms")
    for problem in result["problems"][:20]:
        print(f"# CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()}}))


# -- the suite: one child per (workload, trace) ----------------------------

def provenance(seed) -> dict:
    def git(*args: str) -> str:
        try:
            return subprocess.run(["git", *args], cwd=ROOT, check=True,
                                  capture_output=True, text=True
                                  ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return ""
    sha = git("rev-parse", "HEAD")
    return {
        "git_sha": sha or "unknown",
        "git_dirty": bool(git("status", "--porcelain")) if sha else None,
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_1min_at_start": os.getloadavg()[0],
        "seed": seed,
        "run_seconds": SPEC["run_seconds"],
        "min_reps": MIN_REPS,
        "subseeds": SUBSEEDS,
    }


def run_child(name: str, seed: int, seconds: float, trace: int,
              quick: bool) -> dict:
    """One measured run in its own process; returns its full result."""
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f".child-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    if quick:
        cmd.append("--quick")
    try:
        done = subprocess.run(cmd, cwd=ROOT)
        if done.returncode != 0:
            raise SystemExit(f"perf/run.py: {' '.join(cmd)} exited "
                             f"{done.returncode}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def run_suite(seed: int, seconds: float, quick: bool,
              traces=(0, 1)) -> dict:
    suite = {"provenance": provenance(seed), "workloads": {}}
    sections = {0: "end_to_end", 1: "per_layer"}
    for name in WORKLOADS:
        suite["workloads"][name] = {
            sections[trace]: run_child(name, seed, seconds, trace, quick)
            for trace in traces}
    return suite


def suite_correct(suite: dict) -> bool:
    return all(section["correct"] for sections in suite["workloads"].values()
               for section in sections.values())


def record(suite: dict) -> None:
    """Bless this suite as perf/results/baseline.json + layers.json —
    unless the host could not measure it or a check failed."""
    stamp = suite["provenance"]
    if stamp["loadavg_1min_at_start"] >= stamp["usable_cores"]:
        raise SystemExit(
            "perf/run.py: --record refused: 1-min load average "
            f"{stamp['loadavg_1min_at_start']:.2f} >= "
            f"{stamp['usable_cores']} usable cores at start")
    if not suite_correct(suite):
        raise SystemExit("perf/run.py: --record refused: a check failed")
    for filename, section in (("baseline.json", "end_to_end"),
                              ("layers.json", "per_layer")):
        part = {"provenance": stamp,
                "workloads": {name: {section: sections[section]}
                              for name, sections in suite["workloads"].items()}}
        (RESULTS / filename).write_text(json.dumps(part, indent=1) + "\n")
        print(f"# recorded {RESULTS / filename}")


def selfcheck(seed: int, seconds: float, quick: bool) -> int:
    """Run the end-to-end suite twice; the two must agree within the
    benchmark's own bounds (to ``SAME``, for sim-clock and exact metrics)."""
    first = run_suite(seed, seconds, quick, traces=(0,))
    second = run_suite(seed, seconds, quick, traces=(0,))
    rows = [f"# selfcheck: two back-to-back suites, "
            f"{json.dumps(first['provenance'], sort_keys=True)}",
            f"{'metric':22s} {'workload':9s} {'first':>16s} {'second':>16s} "
            f"{'rel.diff':>9s} {'allowed':>8s}  verdict"]
    failures = 0
    for name in WORKLOADS:
        a = first["workloads"][name]["end_to_end"]
        b = second["workloads"][name]["end_to_end"]
        for metric, spec in END_TO_END.items():
            va, vb = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
            allowed = spec["bound"] if metric in WALL_METRICS else SAME
            diff = abs(vb - va) / abs(va) if va else float(vb != va)
            ok = diff <= allowed
            failures += not ok
            rows.append(f"{metric:22s} {name:9s} {va:16.6f} {vb:16.6f} "
                        f"{diff:9.2g} {allowed:8.2g}  "
                        f"{'agree' if ok else 'DISAGREE'}")
    correct = suite_correct(first) and suite_correct(second)
    rows.append(f"# checks {'passed' if correct else 'FAILED'}; "
                f"{failures} disagreement(s)")
    text = "\n".join(rows) + "\n"
    print(text, end="")
    if not quick:
        (RESULTS / "selfcheck.txt").write_text(text)
    return 0 if correct and not failures else 1


def spread(seconds: float, quick: bool) -> int:
    """The pipeline's acceptance procedure: ten runs of each workload,
    each with another seed; the distance between the quartiles of an
    end-to-end metric's ten values, as a share of their median, must stay
    within the metric's bound (``setup_s`` is exempt), and should stay
    below a third of it."""
    stamp = json.dumps(provenance("1-10"), sort_keys=True)
    rows = [f"# spread over ten seeds, {stamp}",
            f"{'metric':22s} {'workload':9s} {'median':>16s} {'q1':>16s} "
            f"{'q3':>16s} {'spread':>7s} {'bound':>6s}  verdict"]
    failures = 0
    for name in WORKLOADS:
        runs = [run_child(name, seed, seconds, 0, quick)
                for seed in range(1, 11)]
        failures += sum(not run["correct"] for run in runs)
        for metric, spec in END_TO_END.items():
            q1, mid, q3 = quantiles(
                [run["metrics"][metric]["value"] for run in runs], n=4)
            share = (q3 - q1) / mid
            if metric == "setup_s":
                verdict = "exempt"
            elif share > spec["bound"]:
                verdict = "TOO WIDE"
                failures += 1
            else:
                verdict = "steady" if share <= spec["bound"] / 3 else "within"
            rows.append(f"{metric:22s} {name:9s} {mid:16.6f} {q1:16.6f} "
                        f"{q3:16.6f} {share:7.4f} {spec['bound']:6.2f}  "
                        f"{verdict}")
    rows.append(f"# {failures} failure(s)")
    text = "\n".join(rows) + "\n"
    print(text, end="")
    if not quick:
        (RESULTS / "spread.txt").write_text(text)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the run's full result here")
    parser.add_argument("--all", action="store_true",
                        help="every workload, end-to-end then per-layer")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two suites back to back must agree")
    parser.add_argument("--spread", action="store_true",
                        help="ten seeds per workload: spread vs bound")
    parser.add_argument("--record", action="store_true",
                        help="with --all: bless baseline.json + layers.json")
    parser.add_argument("--quick", action="store_true",
                        help="1 rep of a small size (smoke test only)")
    args = parser.parse_args(argv)

    if args.selfcheck:
        return selfcheck(args.seed, args.seconds, args.quick)
    if args.spread:
        return spread(args.seconds, args.quick)
    if args.all:
        suite = run_suite(args.seed, args.seconds, args.quick)
        if not args.quick:          # a smoke run is not a result
            (RESULTS / "latest.json").write_text(
                json.dumps(suite, indent=1) + "\n")
            print(f"# wrote {RESULTS / 'latest.json'}")
        if args.record:
            record(suite)
        return 0 if suite_correct(suite) else 1
    if args.workload is None:
        parser.error("one of --workload, --all, --selfcheck, --spread is required")

    if args.trace:
        result = measure_per_layer(args.workload, args.seed, args.quick)
    else:
        result = measure_end_to_end(args.workload, args.seed, args.seconds,
                                    args.quick)
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
