"""The replica merge: one stamp, one merge, and nothing else orders writes.

A version's stamp is ``(version, last_modified, origin)``
(:data:`repro.tiera.objects.Stamp`), and
``TieraInstance.apply_replica_update`` is the only way a held version's
contents change.  These tests hold what follows from that:

* two writes of one number at one instant from two origins still rank, so
  replicas that exchange them converge, and anti-entropy's digest
  comparison pushes the winner to the loser;
* a replace happens in one step: a get racing it returns one whole write,
  never a missing object;
* a replace installs the update pending or final as the update says, and
  a catch-up ships a pending version pending;
* an AST ratchet keeps every other ``<``/``>`` on a version or a timestamp
  out of ``src/``, except the named exemptions;
* two more keep the merge the only way in: a ``local_put`` that names its
  version appears only in the merge and in the EC coordinator's write
  (which mints the version), and ``NO_STAMP`` — the stamp of a key not
  held — is named only under ``repro/tiera/``, so no other plane decides
  for itself what a replica lacks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.core.consistency.repair import AntiEntropyRepairer
from repro.net import Network, US_EAST, US_WEST
from repro.sim import Simulator
from repro.tiera import TieraInstance
from repro.tiera.policy import disk_only_policy, memory_only_policy
from repro.util.rng import RngRegistry

SRC = Path(__file__).resolve().parent.parent / "src"


def _instance(sim, net, name, region, policy):
    host = net.add_host(f"h-{name}", region)
    return TieraInstance(sim, net, host, name, region, policy,
                         rng=RngRegistry(0))


def _run(sim, gen):
    proc = sim.process(gen)
    sim.run(until=proc)
    return proc.value


# -- same-instant ties --------------------------------------------------------

def _tied_pair():
    """Replicas ``a`` and ``b`` of one eventual namespace, each holding its
    own v1 of ``k`` written at t = 1.0 (origins are instance ids)."""
    dep = build_deployment([US_EAST, US_WEST], seed=1)
    dep.start_wiera_instance("w", GlobalPolicySpec(
        name="w", consistency="eventual",
        placements=tuple(RegionPlacement(region, memory_only_policy())
                         for region in (US_EAST, US_WEST))))
    a, b = sorted((dep.instance("w", region) for region in (US_EAST, US_WEST)),
                  key=lambda inst: inst.instance_id)
    for inst in (a, b):
        dep.drive(inst.local_put("k", inst.instance_id.encode(), version=1,
                                 last_modified=1.0))
    return dep.sim, a, b


def _held(sim, inst):
    data, meta, _ = _run(sim, inst.read_version("k", run_rules=False))
    return data, (meta.version, meta.last_modified, meta.origin)


class TestTies:
    def test_exchanged_tie_converges(self):
        sim, a, b = _tied_pair()
        for dst, src in ((a, b), (b, a)):
            args = _run(sim, src.replica_args("k"))
            _run(sim, dst.apply_replica_update(
                "k", args["version"], args["last_modified"], args["data"],
                args["origin"]))
        winner = (b.instance_id.encode(), (1, 1.0, b.instance_id))
        assert _held(sim, a) == _held(sim, b) == winner

    def test_digest_pushes_the_tie_to_the_loser(self):
        sim, a, b = _tied_pair()
        assert a.key_state()["k"] < b.key_state()["k"]
        repairer = AntiEntropyRepairer(b, interval=1.0)
        _run(sim, repairer.repair_round())
        assert repairer.keys_pushed == 1
        assert _held(sim, a) == (b.instance_id.encode(),
                                 (1, 1.0, b.instance_id))
        # converged: the next round finds nothing to push
        _run(sim, repairer.repair_round())
        assert repairer.keys_pushed == 1


class TestPending:
    @pytest.mark.parametrize("pending", [True, False])
    def test_a_replace_installs_what_the_update_says(self, pending):
        sim, a, b = _tied_pair()
        a.meta.get_record("k").versions[1].pending = not pending
        args = _run(sim, b.replica_args("k"))
        _run(sim, a.apply_replica_update(
            "k", 1, args["last_modified"], args["data"], args["origin"],
            pending=pending))
        meta = a.meta.get_record("k").versions[1]
        assert (meta.origin, meta.pending) == (b.instance_id, pending)

    def test_a_catch_up_ships_a_pending_version_pending(self):
        sim, a, b = _tied_pair()
        b.meta.get_record("k").versions[1].pending = True
        _run(sim, AntiEntropyRepairer(b, interval=1.0).repair_round())
        meta = a.meta.get_record("k").versions[1]
        assert (meta.origin, meta.pending) == (b.instance_id, True)


# -- a get racing a replace ---------------------------------------------------

@pytest.mark.parametrize("offset_ms", [0.0, 10.0, 26.2])
def test_get_racing_a_replace_returns_one_whole_write(offset_ms):
    """On s3 a tier delete takes 26 ms: a get that arrived inside the old
    purge-then-reput replace met deleted bytes or no object at all."""
    sim = Simulator()
    net = Network(sim)
    inst = _instance(sim, net, "i", US_EAST, disk_only_policy(profile="s3"))
    payload = {origin: origin.encode() * 512 for origin in ("a", "b")}
    _run(sim, inst.local_put("k", payload["a"], version=1, origin="a"))
    start = sim.now
    replace = sim.process(inst.apply_replica_update(
        "k", 1, start + 1.0, payload["b"], "b"))
    got = {}

    def get():
        yield sim.timeout(offset_ms / 1000.0)
        got["data"], got["meta"], _ = yield from inst.read_version("k")
    reader = sim.process(get())
    sim.run(until=sim.all_of([replace, reader]))
    assert replace.value == {"applied": True}
    assert got["data"] == payload[got["meta"].origin]


# -- the write-order ratchet --------------------------------------------------

#: names whose order is the stamp's business (``tiera/objects.py``)
ORDERED = {"version", "latest_version", "last_modified"}

#: ``path::function`` -> why this order of versions or times is not the
#: last-write-wins order (the function holds the comparison, or builds the
#: tuple a comparison elsewhere orders)
EXEMPT = {
    "repro/core/consistency/base.py::_entry_sort_key":
        "orders one instance's own replication queue by time, with "
        "remove-alls, which have no stamp; the receiving replica's merge "
        "applies LWW",
}


def _named(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in ORDERED
    if isinstance(node, ast.Subscript):
        return (isinstance(node.slice, ast.Constant)
                and node.slice.value in ORDERED)
    return False


def _order_keys(tree) -> set[str]:
    """Functions returning a tuple with an ordered name in it: a sort key
    built outside ``objects.py``."""
    keys = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Return)
                        and isinstance(node.value, ast.Tuple)
                        and any(_named(elt) for elt in node.value.elts)):
                    keys.add(fn.name)
    return keys


def order_comparisons(source: str, path: str) -> set[str]:
    """``path::function`` of every ``<``, ``<=``, ``>`` or ``>=`` in
    ``source`` with an operand named in :data:`ORDERED`, or an operand that
    calls one of the module's :func:`_order_keys` (then named after it)."""
    tree = ast.parse(source, path)
    keys = _order_keys(tree)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                    for op in node.ops)):
                continue
            for operand in (node.left, *node.comparators):
                if _named(operand):
                    found.add(f"{path}::{fn.name}")
                elif (isinstance(operand, ast.Call)
                      and isinstance(operand.func, ast.Name)
                      and operand.func.id in keys):
                    found.add(f"{path}::{operand.func.id}")
    return found


def _src_files():
    for path in sorted(SRC.rglob("*.py")):
        yield str(path.relative_to(SRC)), path.read_text()


def _src_comparisons() -> set[str]:
    found = set()
    for rel, source in _src_files():
        if rel != "repro/tiera/objects.py":
            found |= order_comparisons(source, rel)
    return found


def test_versions_are_ordered_only_by_the_stamp():
    found = _src_comparisons()
    assert not found - set(EXEMPT), (
        f"order versions through tiera/objects.py (Stamp, moved_past), "
        f"or add an EXEMPT reason: {sorted(found - set(EXEMPT))}")
    assert not set(EXEMPT) - found, (
        f"stale EXEMPT entries: {sorted(set(EXEMPT) - found)}")


@pytest.mark.parametrize("planted", [
    "def f(meta, other):\n    return meta.version > other.version\n",
    "def f(record, v):\n    return record.latest_version >= v\n",
    "def f(args, t):\n    return t < args['last_modified']\n",
    "def key(m):\n    return (m.version, m.last_modified)\n"
    "def f(a, b):\n    return key(a) <= key(b)\n",
])
def test_ratchet_flags_a_planted_comparison(planted):
    assert order_comparisons(planted, "repro/x.py")


# -- the merge is the only way in ---------------------------------------------

#: where a ``local_put`` may name the version it stores -> why
VERSIONED_PUTS = {
    "repro/tiera/instance.py::TieraInstance.apply_replica_update":
        "the merge: installs or replaces a version held elsewhere",
    "repro/ec/protocol.py::ECProtocol._put":
        "the coordinator's write, which mints the version it stores",
}


def versioned_puts(source: str, path: str) -> set[str]:
    """``path::Class.function`` of every ``local_put`` call in ``source``
    that passes a version (``version=``, or a third positional)."""
    found = set()

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope
                      else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None))
                if name == "local_put" and (
                        len(child.args) >= 3
                        or any(kw.arg == "version" for kw in child.keywords)):
                    found.add(f"{path}::{scope}")
            visit(child, scope)
    visit(ast.parse(source, path), "")
    return found


def test_only_the_merge_and_the_ec_coordinator_put_a_given_version():
    found = set()
    for rel, source in _src_files():
        found |= versioned_puts(source, rel)
    assert found <= set(VERSIONED_PUTS), (
        f"install a held-elsewhere version through "
        f"TieraInstance.apply_replica_update: "
        f"{sorted(found - set(VERSIONED_PUTS))}")
    assert found == set(VERSIONED_PUTS), (
        f"stale VERSIONED_PUTS entries: {sorted(set(VERSIONED_PUTS) - found)}")


@pytest.mark.parametrize("planted", [
    "class T:\n    def f(self, i):\n"
    "        yield from i.local_put('k', b'', version=2)\n",
    "def f(i):\n    yield from i.local_put('k', b'', 2)\n",
])
def test_versioned_put_ratchet_flags_a_planted_call(planted):
    assert versioned_puts(planted, "repro/x.py")
    assert not versioned_puts("def f(i):\n    i.local_put('k', b'')\n",
                              "repro/x.py")


def test_no_stamp_is_named_only_under_tiera():
    """What a replica lacks is decided by ``TieraInstance.sync_to``'s one
    comparison, not by each plane against ``NO_STAMP``."""
    named = set()
    for rel, source in _src_files():
        if rel.startswith("repro/tiera/"):
            continue
        for node in ast.walk(ast.parse(source, rel)):
            if (isinstance(node, ast.Name) and node.id == "NO_STAMP"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "NO_STAMP"
                    or isinstance(node, ast.alias)
                    and node.name == "NO_STAMP"):
                named.add(rel)
    assert not named, f"NO_STAMP named outside repro/tiera/: {sorted(named)}"
