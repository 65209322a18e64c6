#!/usr/bin/env python3
"""Compare two result files of perf/run.py: ``compare.py BASE.json NEW.json``.

Prints one row per (end-to-end metric, workload) — base, new, new/base,
the metric's bound and a verdict — then the per-layer deltas, largest
``self_us_per_op`` change first.  This is the table a later PR pastes.

Verdicts, with *worse* meaning against the metric's ``better`` direction:

* ``regressed``  — new is worse than base by more than the bound;
* ``unresolved`` — either side's own spread (q3 - q1 over its median) is
  wider than the bound, so a difference inside it means nothing;
* ``improved``   — new is better than base by more than base's own
  spread (any amount, for sim-clock and exact metrics, which have none);
* ``unchanged``  — everything else.

One pair of files screens a change; it does not carry a claim.  A gain
is claimed only from at least ten pairs of (base, new) runs, alternating
which side runs first, when new wins at least nine tenths of the pairs
and the medians differ by more than the spread of base's own runs — see
perf/README.md, "Claiming a gain".
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: relative difference below which two values are the same number: float
#: sums in the program can differ in the last bits between processes
SAME = 1e-9


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _spread(entry: dict) -> float:
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """Classify one (metric, workload) pair of result entries."""
    b, n = base["value"], new["value"]
    worse = (n - b) / abs(b) if b else float(n != b)
    if better == "higher":
        worse = -worse
    if abs(worse) <= SAME:
        return "unchanged"
    if worse > bound:
        return "regressed"
    if max(_spread(base), _spread(new)) > bound:
        return "unresolved"
    if worse < 0 and -worse > _spread(base):
        return "improved"
    return "unchanged"


def _sections(suite: dict, section: str) -> dict:
    return {name: parts[section]["metrics"]
            for name, parts in suite["workloads"].items() if section in parts}


def compare(base: dict, new: dict, spec: dict) -> list[str]:
    rows = []
    for side, suite in (("base", base), ("new", new)):
        stamp = suite["provenance"]
        rows.append(f"# {side}: {stamp['git_sha'][:12]}"
                    f"{'+dirty' if stamp['git_dirty'] else ''} "
                    f"seed {stamp['seed']} cores {stamp['usable_cores']} "
                    f"load {stamp['loadavg_1min_at_start']:.2f} "
                    f"python {stamp['python']}")
    base_e2e, new_e2e = (_sections(s, "end_to_end") for s in (base, new))
    if base_e2e and new_e2e:
        rows.append(f"{'metric':22s} {'workload':9s} {'base':>14s} "
                    f"{'new':>14s} {'new/base':>9s} {'bound':>6s}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            for workload in base_e2e:
                if workload not in new_e2e:
                    continue
                b, n = base_e2e[workload][name], new_e2e[workload][name]
                ratio = n["value"] / b["value"] if b["value"] else float("nan")
                rows.append(
                    f"{name:22s} {workload:9s} {b['value']:14.4f} "
                    f"{n['value']:14.4f} {ratio:9.4f} {metric['bound']:6.2f}  "
                    f"{verdict(b, n, metric['better'], metric['bound'])}")
    base_layers, new_layers = (_sections(s, "per_layer") for s in (base, new))
    for workload in base_layers:
        if workload not in new_layers:
            continue
        b, n = base_layers[workload], new_layers[workload]
        deltas = sorted(((n[k]["value"] - b[k]["value"], k) for k in b
                         if k in n and n[k]["value"] != b[k]["value"]),
                        key=lambda d: (not d[1].endswith(".self_us_per_op"),
                                       -abs(d[0])))
        rows.append(f"# per-layer deltas on {workload} (traced reps: "
                    "single samples, read as attribution, not as a claim)")
        for delta, key in deltas:
            rows.append(f"{key:44s} {b[key]['value']:16.4f} -> "
                        f"{n[key]['value']:16.4f} {delta:+14.4f} "
                        f"{b[key]['unit']}")
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("\n".join(compare(_load(args[0]), _load(args[1]), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
