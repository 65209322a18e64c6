"""Ratchets on how ``src/`` handles failures and stops.

A broad ``except Exception`` can no longer swallow a stop — an
``Interrupt`` is a ``BaseException`` — but it still makes a bug and a
dead peer look the same.  Its count may only go down: a new failure site
catches a type (``StorageError``, ``NetworkError``, …).  And a stop lives
in the kernel alone: no handler in ``src/`` catches ``Interrupt``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.sim.kernel import Interrupt

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``except Exception`` handlers per file, relative to ``src/``; a file not
#: listed has none.  Lower an entry (or drop it at 0) in the commit that
#: removes a handler; never raise one.
BROAD_EXCEPTS = {
    "repro/ec/repair.py": 0,
    "repro/fs/posixfs.py": 0,
    "repro/sim/rpc.py": 2,
    "repro/workloads/rubis.py": 0,
}


def _catches(handler: ast.ExceptHandler, name: str) -> bool:
    caught = handler.type
    types = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(isinstance(t, ast.Name) and t.id == name for t in types)


def _count_excepts(name: str) -> dict[str, int]:
    counts = {}
    for path in sorted(SRC.rglob("*.py")):
        n = sum(isinstance(node, ast.ExceptHandler) and _catches(node, name)
                for node in ast.walk(ast.parse(path.read_text(), str(path))))
        if n:
            counts[str(path.relative_to(SRC))] = n
    return counts


def test_a_stop_is_caught_by_no_handler_in_src():
    """``Interrupt`` is not an ``Exception``, nothing in ``src/`` catches it
    by name, and ``wait_call`` — which existed to re-raise it past broad
    handlers — is gone."""
    assert not issubclass(Interrupt, Exception)
    assert _count_excepts("Interrupt") == {}
    assert not [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                if "wait_call" in path.read_text()]


def test_broad_excepts_only_fall():
    counts = _count_excepts("Exception")
    rose = {f: (BROAD_EXCEPTS.get(f, 0), n) for f, n in counts.items()
            if n > BROAD_EXCEPTS.get(f, 0)}
    assert not rose, f"new `except Exception` (table, found): {rose}"
    fell = {f: (n, counts.get(f, 0)) for f, n in BROAD_EXCEPTS.items()
            if counts.get(f, 0) < n}
    assert not fell, f"lower BROAD_EXCEPTS to match (table, found): {fell}"
