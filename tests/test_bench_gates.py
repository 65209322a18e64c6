"""The bench gates' bounds hold on the committed results and none is
vacuous, and a fresh result is compared with the committed one field by
field.

``benchmarks/gates.py`` judges each ``results/BENCH_<name>.json`` (and
``BENCH_<name>.quick.json``, where a gate is committed in both modes)
against its gate module's ``BOUNDS``.  Here no simulation runs: the committed
results are judged as they are, and then once per bound with the bounded
value pushed just past its limit, in both modes.  A pinned value is a
bound like any other, so a pin that nothing checks fails here too.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "benchmarks"))

import gates  # noqa: E402


def _committed(name: str) -> dict:
    return json.loads((ROOT / "results" / f"BENCH_{name}.json").read_text())


def _put(result: dict, path: str, value) -> None:
    *parents, leaf = path.split(".")
    for key in parents:
        result = result[key]
    result[leaf] = value


def _past(op: str, limit):
    """A value on the failing side of ``op limit``, as close as a step."""
    step = 1 if isinstance(limit, int) else max(abs(limit) * 0.01, 1e-6)
    return {"<": limit, "<=": limit + step, "==": limit + step,
            ">=": limit - step, ">": limit}[op]


def _in_mode(name: str, quick: bool) -> dict:
    """The committed result relabelled to ``quick``, with each exact pin
    of that mode set to its pinned value."""
    result = _committed(name)
    result["quick"] = quick
    for _, path, op, limit in gates.bounds(gates.load(name), quick):
        if op == "==" and not isinstance(limit, str):
            _put(result, path, limit)
    return result


@pytest.mark.parametrize("name", gates.GATES)
def test_committed_result_passes_every_bound(name):
    """Each mode's committed result (``gates.result_path``), where one is
    committed."""
    paths = {gates.result_path(name, quick) for quick in (True, False)}
    committed = [json.loads(p.read_text()) for p in paths if p.exists()]
    assert committed
    for result in committed:
        verdicts = gates.verdicts(gates.load(name), result)
        assert verdicts
        assert [v for v in verdicts if not v.ok] == []


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
@pytest.mark.parametrize("name", gates.GATES)
def test_every_bound_fails_past_its_limit(name, quick):
    gate = gates.load(name)
    start = _in_mode(name, quick)
    assert all(v.ok for v in gates.verdicts(gate, start))
    for v in gates.verdicts(gate, start):
        for bad in (_past(v.op, v.limit), None):
            pushed = copy.deepcopy(start)
            _put(pushed, v.path, bad)
            failed = [f for f in gates.verdicts(gate, pushed) if not f.ok]
            assert v.label in [f.label for f in failed], (v.label, bad)
            # a push fails no bound on another value; two bounds on one
            # value (a budget and a tighter pin) may fail together
            assert {f.path for f in failed} == {v.path}, (v.label, bad)



def test_first_difference_names_the_first_field_wall_clock_aside():
    committed = {"quick": True, "wall_seconds": 1.0,
                 "cell": {"seconds": 0.5, "wall_seconds": 2.0,
                          "rows": [1, 2, 3]},
                 "egress": 10}
    fresh = copy.deepcopy(committed)
    fresh["wall_seconds"] = fresh["cell"]["wall_seconds"] = 9.0
    assert gates.first_difference(committed, fresh) is None
    fresh["egress"] = 11
    fresh["cell"]["rows"][1] = 5
    assert gates.first_difference(committed, fresh) == "cell.rows[1]: 2 -> 5"
    fresh["cell"]["rows"] = [1, 2]
    assert gates.first_difference(committed, fresh).startswith("cell.rows:")
    del fresh["cell"]
    assert gates.first_difference(committed, fresh) == (
        "cell: {'seconds': 0.5, 'wall_seconds': 2.0, 'rows': [1, 2, 3]}"
        " -> None")
    assert gates.first_difference({"a": 1}, {"a": 1, "b": 2}) == "b: None -> 2"
    assert gates.first_difference({"a": 1}, {"a": 1.0}) == "a: 1 -> 1.0"
