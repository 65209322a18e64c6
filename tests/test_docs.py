"""The docs cannot drift: what DESIGN.md names must exist.

First rule: every ``repro`` module and every bench target (a file, or a
``file::test`` pair) in DESIGN's experiment index exists.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _experiment_index() -> list[list[str]]:
    """The cells of every data row of DESIGN's experiment index table."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## Experiment index", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in row.strip("|").split("|")]
            for row in rows[2:]]          # past the header and its rule


def _named(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def test_experiment_index_has_its_rows():
    ids = [cells[0] for cells in _experiment_index()]
    assert ids[:3] == ["Fig. 7", "Fig. 8", "Table 3"] and len(ids) >= 9


def test_every_module_in_the_experiment_index_exists():
    missing = []
    for cells in _experiment_index():
        for name in _named(cells[3]):
            module = name if name.startswith("repro") else f"repro.{name}"
            if importlib.util.find_spec(module) is None:
                missing.append(f"{cells[0]}: {name}")
    assert not missing, missing


def test_every_bench_target_in_the_experiment_index_exists():
    missing = []
    for cells in _experiment_index():
        for target in _named(cells[4]):
            path, _, test = target.partition("::")
            if not (ROOT / path).is_file():
                missing.append(f"{cells[0]}: {path}")
                continue
            if test:
                tree = ast.parse((ROOT / path).read_text())
                if test not in {node.name for node in ast.walk(tree)
                                if isinstance(node, ast.FunctionDef)}:
                    missing.append(f"{cells[0]}: {target}")
    assert not missing, missing
