"""Ratchet: ``src/`` keeps only code that something outside ``tests/`` uses,
every policy field is read by something in ``src/`` and set by something
outside ``tests/``, and every tier and VM profile field is read by
something in ``src/``.

A census of every function, class and method defined in ``src/`` (dunders
aside).  A definition is *reached* when its name appears in a module of
``src/`` (a package ``__init__.py`` only re-exports, so it does not count),
in ``examples/``, in ``benchmarks/`` or in ``perf/``: as a name, an
attribute, an imported name, or a string constant equal to it (handlers
registered or looked up by string).  A definition nothing reaches is
test-only code: delete it with its tests, or keep it in :data:`KEPT` with
the reason.

An RPC handler is named twice in its ``register("m", self.rpc_m)`` line,
so the census above counts it as reached by its own registration.  An RPC
``"m"`` is reached only when the string ``"m"`` appears in the same places
somewhere other than the first argument of a ``register(`` call: something
sends it.

The census goes by name, so a definition sharing its name with a reached
one passes unnoticed; it is a floor, not a proof of use.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLERS = ("examples", "benchmarks", "perf")

#: Modules whose dataclass fields are policy knobs (specs are plain data).
POLICY_MODULES = ("repro.core.global_policy", "repro.tiera.policy")

#: Definitions only tests reach, kept on purpose: name -> reason.  Drop an
#: entry in the commit that deletes the definition or gives it a caller;
#: add one only with a reason a later reader can check.
KEPT = {
    "outstanding_failures":
        "ReplicationQueue's divergence count: entries left to repair",
    "latency_spike":
        "FaultSchedule vocabulary: a latency fault, beside crash and "
        "partition, for fault schedules that tests compose",
    "active":
        "FaultSchedule: whether a started schedule is still injecting, "
        "for fault schedules that tests compose",
    "start_instances":
        "Wiera's Table 1 RPC: an application launches a namespace's "
        "instances from a global policy over the wire",
    "stop_instances":
        "Wiera's Table 1 RPC: an application stops every instance of a "
        "namespace over the wire",
    "list_instances":
        "A Tiera server's RPC listing the instances it hosts, as TSM's "
        "view of a server (Table 1's server side)",
}

#: Policy fields nothing outside tests sets, kept on purpose:
#: ``Class.field`` -> reason.  Same rules as :data:`KEPT`.
KEPT_FIELDS = {
    "DynamicConsistencySpec.op":
        "Fig. 5(a): the monitored operation (put or get) of a "
        "DynamicConsistency rule",
    "GlobalPolicySpec.repair_interval":
        "anti-entropy repair of divergent replicas; "
        "tests/test_faults.py turns it on",
}

#: Model-constant tables: ``(module, class)`` whose every field some
#: module of ``src/`` must read.
PROFILE_CLASSES = (("repro.storage.profiles", "TierProfile"),
                   ("repro.net.vmprofiles", "VmProfile"),
                   ("repro.autoscale.signals", "SignalSample"))


def _definitions() -> list[tuple[str, int, str]]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    found.append((str(path.relative_to(SRC)), node.lineno,
                                  node.name))
    return found


def _caller_paths() -> list[Path]:
    paths = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    for caller in CALLERS:
        paths += (ROOT / caller).rglob("*.py")
    return paths


def _names_used() -> set[str]:
    used = set()
    for path in _caller_paths():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                                str):
                used.add(node.value)
    return used


def _registered() -> dict[str, str]:
    """RPC name -> ``path:line`` of every ``register("m", ...)`` in
    ``src/``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _is_register(node) and isinstance(node.args[0], ast.Constant):
                found[node.args[0].value] = \
                    f"{path.relative_to(SRC)}:{node.lineno}"
    return found


def _is_register(node) -> bool:
    return (isinstance(node, ast.Call) and bool(node.args)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "register")


def _strings_sent() -> set[str]:
    """String constants where the census looks, leaving out the name
    argument of every ``register(`` call."""
    sent = set()
    for path in _caller_paths():
        tree = ast.parse(path.read_text(), str(path))
        names = {id(node.args[0]) for node in ast.walk(tree)
                 if _is_register(node)}
        sent |= {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)
                 and isinstance(node.value, str) and id(node) not in names}
    return sent


def test_src_defines_nothing_only_tests_reach():
    used = _names_used()
    unreached = [f"{path}:{line} {name}"
                 for path, line, name in _definitions()
                 if name not in used and name not in KEPT]
    assert not unreached, (
        "defined in src/ but used by no module, example, benchmark or "
        f"perf workload (delete it, or add it to KEPT): {unreached}")


def test_every_registered_rpc_is_sent():
    sent = _strings_sent()
    unsent = [f"{where} {name!r}" for name, where in _registered().items()
              if name not in sent and name not in KEPT]
    assert not unsent, (
        "RPC registered in src/ but sent by no module, example, benchmark "
        f"or perf workload (delete it, or add it to KEPT): {unsent}")


def test_kept_entries_are_still_needed():
    used, sent = _names_used(), _strings_sent()
    defined = {name for _, _, name in _definitions()}
    registered = _registered()
    stale = sorted(name for name in KEPT
                   if not (name in defined and name not in used
                           or name in registered and name not in sent))
    assert not stale, f"drop from KEPT (gone or now reached): {stale}"


def _policy_fields() -> dict[str, list[str]]:
    """Class name -> field names of every dataclass in
    :data:`POLICY_MODULES`."""
    fields = {}
    for name in POLICY_MODULES:
        module = importlib.import_module(name)
        for cls in vars(module).values():
            if dataclasses.is_dataclass(cls) and cls.__module__ == name:
                fields[cls.__name__] = [field.name
                                        for field in dataclasses.fields(cls)]
    return fields


def _fields_set() -> set[str]:
    """``Class.field`` for every policy field something outside ``tests/``
    sets: a keyword or a position of a call to the class (``Spec(...)``
    or ``module.Spec(...)``), or a keyword of a ``replace(...)`` call,
    which sets that field name on every policy class (by name, like the
    census above)."""
    fields = _policy_fields()
    found, replaced = set(), set()
    for path in _caller_paths():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = (func.id if isinstance(func, ast.Name) else
                      func.attr if isinstance(func, ast.Attribute) else None)
            keywords = {kw.arg for kw in node.keywords if kw.arg}
            if called == "replace":
                replaced |= keywords
            elif called in fields:
                positions = fields[called][:len(node.args)]
                found |= {f"{called}.{name}"
                          for name in keywords | set(positions)}
    return found | {f"{cls}.{name}" for cls, names in fields.items()
                    for name in names if name in replaced}


def test_every_policy_field_is_set():
    """A spec field only tests set is an option no policy, DSL text,
    example, benchmark or perf workload needs: make it a constant at its
    default, or keep it in :data:`KEPT_FIELDS` with the reason."""
    found = _fields_set()
    unset = [f"{cls}.{name}" for cls, names in _policy_fields().items()
             for name in names
             if f"{cls}.{name}" not in found
             and f"{cls}.{name}" not in KEPT_FIELDS]
    assert not unset, (
        "policy fields set by no module, example, benchmark or perf "
        f"workload (make them constants, or add them to KEPT_FIELDS): "
        f"{unset}")


def test_kept_fields_are_still_needed():
    found = _fields_set()
    declared = {f"{cls}.{name}" for cls, names in _policy_fields().items()
                for name in names}
    stale = sorted(entry for entry in KEPT_FIELDS
                   if entry not in declared or entry in found)
    assert not stale, f"drop from KEPT_FIELDS (gone or now set): {stale}"


def _attributes_read() -> set[str]:
    """Every attribute name loaded in a module of ``src/``."""
    read = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
    return read


def test_every_policy_field_is_read():
    """A spec field nothing in ``src/`` reads is a knob a policy can set and
    the system ignores.  Read means an attribute load of that name in any
    module of ``src/`` (by name, like the census above)."""
    read = _attributes_read()
    unread = [f"{cls}.{name}" for cls, names in _policy_fields().items()
              for name in names if name not in read]
    assert not unread, f"policy fields nothing in src/ reads: {unread}"


def test_every_profile_field_is_read():
    """The same rule for the model constants of the tier and VM profiles,
    and for the autoscaler's signal sample: a field nothing in ``src/``
    reads is a number that moves no output (delete it)."""
    read = _attributes_read()
    unread = []
    for module, name in PROFILE_CLASSES:
        cls = getattr(importlib.import_module(module), name)
        unread += [f"{name}.{field.name}" for field in dataclasses.fields(cls)
                   if field.name not in read]
    assert not unread, f"profile fields nothing in src/ reads: {unread}"
