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
* an AST ratchet keeps every other ``<``/``>`` on a version or a timestamp
  out of ``src/``, except the named exemptions.
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


def _src_comparisons() -> set[str]:
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        if rel != "repro/tiera/objects.py":
            found |= order_comparisons(path.read_text(), rel)
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
