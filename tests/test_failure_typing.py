"""Ratchet on broad ``except Exception`` handlers in ``src/``.

A broad handler makes a bug and a dead peer look the same, and (because
``sim.kernel.Interrupt`` derives from ``Exception``) can eat a
cancellation.  The count may only go down: a new failure site catches a
type (``StorageError``, ``NetworkError``, …) or waits through
``sim.rpc.wait_call``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``except Exception`` handlers per file, relative to ``src/``; a file not
#: listed has none.  Lower an entry (or drop it at 0) in the commit that
#: removes a handler; never raise one.
BROAD_EXCEPTS = {
    "repro/core/monitoring.py": 1,
    "repro/core/tim.py": 1,
    "repro/core/tsm.py": 1,
    "repro/core/workload_monitor.py": 1,
    "repro/ec/repair.py": 1,
    "repro/fs/posixfs.py": 4,
    "repro/load/cohort.py": 1,
    "repro/sim/rpc.py": 3,
    "repro/workloads/rubis.py": 1,
    "repro/workloads/ycsb.py": 2,
}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    types = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(isinstance(t, ast.Name) and t.id == "Exception"
               for t in types)


def _broad_excepts() -> dict[str, int]:
    counts = {}
    for path in sorted(SRC.rglob("*.py")):
        n = sum(isinstance(node, ast.ExceptHandler) and _is_broad(node)
                for node in ast.walk(ast.parse(path.read_text(), str(path))))
        if n:
            counts[str(path.relative_to(SRC))] = n
    return counts


def test_broad_excepts_only_fall():
    counts = _broad_excepts()
    rose = {f: (BROAD_EXCEPTS.get(f, 0), n) for f, n in counts.items()
            if n > BROAD_EXCEPTS.get(f, 0)}
    assert not rose, f"new `except Exception` (table, found): {rose}"
    fell = {f: (n, counts.get(f, 0)) for f, n in BROAD_EXCEPTS.items()
            if counts.get(f, 0) < n}
    assert not fell, f"lower BROAD_EXCEPTS to match (table, found): {fell}"
