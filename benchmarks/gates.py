"""The CI bench gates, run and judged by one runner.

    PYTHONPATH=src python benchmarks/gates.py [--full] [NAME ...]

A gate NAME is the module ``benchmarks/bench_<NAME>.py``; with no NAME
every gate in ``GATES`` runs.  A gate module declares three things:

* ``run(quick) -> dict`` — the measurement (quick unless ``--full``);
  the dict carries ``"quick"`` and every derived value a bound reads;
* ``summary(result) -> str`` — the human-readable table;
* ``BOUNDS`` — rows of ``(label, path, op, limit)``.  ``path`` is a
  dotted key into the result (``"window_8.repair_seconds"``), ``op`` one
  of ``OPS``, and ``limit`` a number, another path, or a
  ``{"quick": x, "full": y}`` table for a value pinned per mode (a mode
  the table leaves out has no such bound).

The runner writes each result to ``results/BENCH_<NAME>.json``, or, when
that file holds the other mode's result, beside it to
``results/BENCH_<NAME>.<mode>.json`` (``load_engine`` and ``ec_frontier``
are committed in both modes, ``autoscale`` and ``ec_repair`` quick only).
A pinned value lives in the gate module beside its bound, not in that
file.  The runner prints the summary, then one
``gate: <label> <value> <op> <limit> -> ok|REGRESSION`` line per bound,
and exits 1 if any bound fails.  A bound whose value or limit is missing
or None fails.

The simulation is deterministic, so the committed file is also an exact
output: when it was recorded in the mode just run, the fresh result must
equal it field for field, ``WALL_CLOCK`` fields aside, or the runner
names the first field that differs and exits 1.  A change that moves a
number commits the rewritten file, so the move shows in its diff.
"""

from __future__ import annotations

import argparse
import importlib
import json
import operator
import sys
from pathlib import Path
from typing import Any, NamedTuple, Optional

RESULTS = Path(__file__).resolve().parent.parent / "results"

GATES = ("load_engine", "autoscale", "ec_frontier", "ec_repair")

OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
       ">=": operator.ge, ">": operator.gt}

#: result fields that time the host, not the simulation: never compared
WALL_CLOCK = frozenset({"wall_seconds"})


class Verdict(NamedTuple):
    label: str
    path: str
    value: Any
    op: str
    limit: Any
    ok: bool


def load(name: str):
    """The gate module ``bench_<name>`` (``benchmarks/`` on ``sys.path``)."""
    return importlib.import_module(f"bench_{name}")


def lookup(result: dict, path: str) -> Any:
    value = result
    for key in path.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    return value


def bounds(gate, quick: bool) -> list[tuple[str, str, str, Any]]:
    """``gate.BOUNDS`` as they hold in one mode, per-mode limits chosen."""
    mode = "quick" if quick else "full"
    rows = []
    for label, path, op, limit in gate.BOUNDS:
        if isinstance(limit, dict):
            if mode not in limit:
                continue
            limit = limit[mode]
        rows.append((label, path, op, limit))
    return rows


def verdicts(gate, result: dict) -> list[Verdict]:
    out = []
    for label, path, op, limit in bounds(gate, result["quick"]):
        value = lookup(result, path)
        if isinstance(limit, str):
            limit = lookup(result, limit)
        ok = value is not None and limit is not None and OPS[op](value, limit)
        out.append(Verdict(label, path, value, op, limit, ok))
    return out


def first_difference(committed: Any, fresh: Any,
                     path: str = "") -> Optional[str]:
    """The first field, in the committed file's order, where two results
    differ (``"path: committed -> fresh"``), ``WALL_CLOCK`` fields
    aside; None when they agree."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in [*committed, *(k for k in fresh if k not in committed)]:
            if key in WALL_CLOCK:
                continue
            found = first_difference(committed.get(key), fresh.get(key),
                                     f"{path}.{key}" if path else key)
            if found:
                return found
        return None
    if (isinstance(committed, list) and isinstance(fresh, list)
            and len(committed) == len(fresh)):
        for i, (old, new) in enumerate(zip(committed, fresh)):
            found = first_difference(old, new, f"{path}[{i}]")
            if found:
                return found
        return None
    if committed == fresh and type(committed) is type(fresh):
        return None
    return f"{path or '<result>'}: {committed!r} -> {fresh!r}"


def result_path(name: str, quick: bool) -> Path:
    """Where a ``quick`` (or full) result of gate ``name`` is kept:
    ``BENCH_<name>.json`` unless that holds the other mode's result, then
    ``BENCH_<name>.<mode>.json`` beside it."""
    path = RESULTS / f"BENCH_{name}.json"
    if path.exists() and json.loads(path.read_text())["quick"] != quick:
        return RESULTS / f"BENCH_{name}.{'quick' if quick else 'full'}.json"
    return path


def _fmt(x: Any) -> str:
    return f"{x:g}" if isinstance(x, float) else str(x)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--full", action="store_true",
                        help="full-size runs (default: quick)")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"gates to run (default: all of {', '.join(GATES)})")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(GATES))
    if unknown:
        parser.error(f"unknown gate(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(GATES)}")
    failed = False
    for name in args.names or GATES:
        gate = load(name)
        out = result_path(name, quick=not args.full)
        committed = json.loads(out.read_text()) if out.exists() else None
        # through JSON, as the file holds it: tuples are lists, keys strings
        result = json.loads(json.dumps(gate.run(quick=not args.full)))
        RESULTS.mkdir(exist_ok=True)
        out.write_text(json.dumps(result, indent=2) + "\n")
        print(gate.summary(result))
        print(f"wrote {out}")
        for v in verdicts(gate, result):
            print(f"gate: {v.label} {_fmt(v.value)} {v.op} {_fmt(v.limit)} "
                  f"-> {'ok' if v.ok else 'REGRESSION'}")
            failed |= not v.ok
        mode = "quick" if result["quick"] else "full"
        if committed is None:
            print(f"gate: no committed {mode} {out.name} -> not compared")
            continue
        diff = first_difference(committed, result)
        print(f"gate: committed {out.name} == this {mode} run -> "
              + (f"REGRESSION, first difference {diff}" if diff else "ok"))
        failed |= diff is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
