"""Smoke test of the benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest perf -q

Drives ``run.py --all --quick`` (1 rep of a small size per workload) and
checks that every workload, end-to-end and per-layer name declared in
BENCHMARK.json comes out with a finite value and the declared unit.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def results():
    """{(workload, trace): last-line JSON object} of one quick suite."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--all", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    out, header = {}, None
    for line in done.stdout.splitlines():
        match = re.match(r"# (\S+) seed=\d+ trace=(\d)", line)
        if match:
            header = (match.group(1), int(match.group(2)))
        elif line.startswith('{"correct"'):
            out[header] = json.loads(line)
    return out


def test_names_are_well_formed():
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in SPEC[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_declared_metric_is_reported(results, trace, section):
    for workload in SPEC["workloads"]:
        result = results[(workload["name"], trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
        for metric in SPEC[section]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"], metric["name"]
            assert math.isfinite(entry["value"]), metric["name"]


def test_end_to_end_metrics_are_never_zero(results):
    for (workload, trace), result in results.items():
        if trace == 0:
            for name, entry in result["metrics"].items():
                assert entry["value"] > 0, (workload, name)
