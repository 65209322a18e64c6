"""The docs cannot drift: what DESIGN.md names must exist.

First rule: every ``repro`` module and every bench target (a file, or a
``file::test`` pair) in DESIGN's experiment index exists.

Second rule: every backticked CamelCase name in DESIGN.md and README.md
(alone, or heading an attribute, a call or a subscript: `` `Name` ``,
`` `Name.attr` ``, `` `Name(...)` ``) is a builtin, a name defined under
``src/`` or ``tests/``, or ``TIM`` (the paper's Tiera Instance Manager).
"""

from __future__ import annotations

import ast
import builtins
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


#: a backticked span that is, or starts with, a capitalised identifier
CAMEL = re.compile(r"`([A-Z][A-Za-z0-9]*)(?:[.(\[][^`]*)?`")


def _defined() -> set[str]:
    """Every class, function and assigned name under ``src/`` and
    ``tests/``."""
    names = set()
    for folder in ("src", "tests"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                               ast.Store):
                    names.add(node.id)
    return names


def test_every_camelcase_name_in_the_docs_is_defined():
    known = _defined() | set(dir(builtins)) | {"TIM"}
    named = {(doc, name) for doc in ("DESIGN.md", "README.md")
             for name in CAMEL.findall((ROOT / doc).read_text())}
    assert len({name for _, name in named}) >= 60     # the rule has teeth
    missing = sorted(f"{doc}: {name}" for doc, name in named
                     if name not in known)
    assert not missing, missing
