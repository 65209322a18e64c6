"""Kernel, RPC, network and storage speed of this tree against a parent,
on one host.

    python benchmarks/kernel_gate.py [REV]      # REV defaults to HEAD~1

The tree this script sits in is the change; REV, checked out in a
temporary ``git worktree``, is the parent.  Ten pairs time the
``sim.kernel``, ``sim.rpc``, ``net`` and ``storage`` micros of the
parent's ``perf/micro.py`` (the layers every message crosses) on both
sides, alternating which side runs first, each side in a fresh process
with its own tree's ``src/``.  The yardstick is the parent's, so
a change cannot move its own gate, and a busy host slows both sides.
The exit status is 1 when a change median is below ``BOUND`` times the
parent's.

For an uncommitted tree, ``python benchmarks/kernel_gate.py HEAD`` gates
the working tree against its last commit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
MICROS = ("sim.kernel.micro_events_per_s", "sim.rpc.micro_calls_per_s",
          "net.micro_transmits_per_s", "storage.micro_ops_per_s")
PAIRS = 10
#: a change median below this fraction of the parent median fails
BOUND = 0.7

#: one side's measurement: argv is the parent's perf/ then the micro names;
#: each micro does its full work size once and prints its rate
CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from micro import MICROS
rates = {}
for name in sys.argv[2:]:
    fn, size, _ = MICROS[name]
    start = time.perf_counter()
    work = fn(size)
    rates[name] = work / (time.perf_counter() - start)
print(json.dumps(rates))
"""


def measure(tree: Path, yardstick: Path) -> dict[str, float]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(yardstick), *MICROS],
        env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def git(*args: str) -> None:
    subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                   stdout=subprocess.DEVNULL)


def main(rev: str) -> int:
    rates = {side: {name: [] for name in MICROS} for side in ("parent", "change")}
    with tempfile.TemporaryDirectory(prefix="kernel-gate-") as tmp:
        parent = Path(tmp) / "parent"
        git("worktree", "add", "--quiet", "--detach", str(parent), rev)
        try:
            for pair in range(PAIRS):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    tree = parent if side == "parent" else ROOT
                    for name, rate in measure(tree, parent / "perf").items():
                        rates[side][name].append(rate)
                print(f"pair {pair + 1:2d} ({order[0]} first): " + "  ".join(
                    f"{name} parent {rates['parent'][name][-1]:,.0f} "
                    f"change {rates['change'][name][-1]:,.0f}" for name in MICROS),
                    flush=True)
        finally:
            git("worktree", "remove", "--force", str(parent))
    failed = False
    for name in MICROS:
        base, new = median(rates["parent"][name]), median(rates["change"][name])
        ok = new >= BOUND * base
        failed |= not ok
        print(f"{name}: median parent {base:,.0f} change {new:,.0f} "
              f"ratio {new / base:.3f} (bound {BOUND}) -> "
              f"{'ok' if ok else 'REGRESSION'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "HEAD~1"))
