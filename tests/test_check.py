"""The history checker (``repro.obs.check``): each rule on a hand-made
history, the fault windows rule 5 reads, and the verdicts over live worlds
of each protocol — all five rules asserted for ``multi_primaries`` and
sync ``primary_backup``, rule 2 reported for ``eventual``.  The EC worlds
are in ``tests/test_ec.py``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.net import EU_WEST, US_EAST, US_WEST
from repro.obs.check import check
from repro.obs.history import OpHistory
from repro.sim import Simulator
from repro.tiera.policy import memory_only_policy

INF = float("inf")


def _history(*rows) -> OpHistory:
    history = OpHistory()
    for row in rows:
        history.book(*row)
    return history


def _rules(report) -> list[int]:
    return [violation.rule for violation in report.violations]


class TestRules:
    def test_a_linearizable_history_is_clean(self):
        writer = _history(("put", "k", 1, 0.0, 1.0), ("put", "k", 2, 1.0, 2.0))
        reader = _history(("get", "k", 1, 0.5, 1.5), ("get", "k", 2, 1.5, 2.5),
                          ("get", "k", 2, 2.5, 3.0))
        report = check([writer, reader])
        assert report.violations == ()
        report.assert_holds()
        assert (report.staleness.latest, report.staleness.outdated) == (3, 0)

    def test_rule_1_two_acked_puts_of_one_version(self):
        report = check([_history(("put", "k", 1, 0.0, 1.0)),
                        _history(("put", "k", 1, 0.5, 1.5))])
        assert _rules(report) == [1]

    @pytest.mark.parametrize("rows", [
        # a get behind a put acked before it started (Fig. 8's outdated)
        (("put", "k", 1, 0.0, 1.0), ("put", "k", 2, 1.0, 2.0),
         ("get", "k", 1, 2.0, 3.0)),
        # a get behind a get that ended before it started
        (("put", "k", 1, 0.0, 1.0), ("put", "k", 2, 1.0, 5.0),
         ("get", "k", 2, 2.0, 3.0), ("get", "k", 1, 3.5, 4.0)),
        # a put that does not outrank an op ended before it started
        (("put", "k", 2, 0.0, 1.0), ("put", "k", 1, 2.0, 3.0)),
    ])
    def test_rule_2_an_op_behind_one_that_ended_before_it(self, rows):
        report = check([_history(*rows)])
        assert 2 in _rules(report)
        with pytest.raises(AssertionError, match="history violations"):
            report.assert_holds()
        report.assert_holds(1, 3, 4, 5)     # reported, not asserted

    def test_rule_2_reports_staleness_against_puts_only(self):
        report = check([_history(("put", "k", 1, 0.0, 1.0),
                                 ("put", "k", 2, 1.0, 5.0),
                                 ("get", "k", 2, 2.0, 3.0),
                                 ("get", "k", 1, 3.5, 4.0))])
        assert (report.staleness.latest, report.staleness.outdated) == (2, 0)

    def test_rule_3_a_get_reads_a_put_from_its_future(self):
        report = check([_history(("get", "k", 2, 0.0, 1.0),
                                 ("put", "k", 2, 2.0, 3.0))])
        assert _rules(report) == [2, 3]     # and the put is behind it

    def test_rule_4_a_version_nobody_wrote(self):
        history = _history(("get", "k", 7, 0.0, 1.0))
        assert _rules(check([history])) == [4]
        assert check([history], preloaded=[("k", 7)]).violations == ()

    def test_rule_4_a_failed_put_may_have_taken_effect(self):
        report = check([_history(("put", "k", None, 0.0, 1.0, "ProtocolError"),
                                 ("get", "k", 1, 2.0, 3.0))])
        assert _rules(report) == [5]

    def test_rule_5_a_failure_outside_every_fault_window(self):
        sim = Simulator()
        faults = FaultSchedule(sim, network=None)
        faults.add(FaultEvent(at=1.0, kind="crash", target=("h",)))
        faults.add(FaultEvent(at=2.0, kind="restart", target=("h",)))
        history = _history(("get", "k", None, 0.5, 1.5, "StorageError"),
                           ("get", "k", None, 2.5, 3.0, "StorageError"))
        report = check([history], faults=[faults])
        assert [(v.rule, "2.5" in v.what) for v in report.violations] \
            == [(5, True)]

    def test_removed_keys_are_judged_on_failures_only(self):
        report = check([_history(("put", "k", 3, 0.0, 1.0),
                                 ("remove", "k", None, 1.0, 2.0),
                                 ("put", "k", 1, 2.0, 3.0))])
        assert report.violations == ()


def test_fault_windows():
    faults = FaultSchedule(Simulator(), network=None)
    faults.crash(at=1.0, host="a", duration=2.0)
    faults.crash(at=5.0, host="b")
    faults.partition(at=2.0, region_a="x", region_b="y", duration=1.0)
    faults.add(FaultEvent(at=4.0, kind="partition", target=("x", "y")))
    faults.heal(at=6.0, region_a="y", region_b="x")
    faults.latency_spike(at=0.5, extra=0.1, host="c", duration=0.25)
    assert sorted(faults.windows()) == [(0.5, 0.75), (1.0, 3.0), (2.0, 3.0),
                                        (4.0, 6.0), (5.0, INF)]


# -- live worlds --------------------------------------------------------------

REGIONS = (US_EAST, US_WEST, EU_WEST)


def _world(consistency, shared=True, **spec_kwargs):
    """Three regions, one client each: the first writes four keys, then
    every client puts and gets them, back to back, all at once.  Not
    ``shared``: each client puts one key of its own (two regions writing
    one key mint one version twice under ``eventual``)."""
    dep = build_deployment(REGIONS, seed=3)
    spec = GlobalPolicySpec(
        name="chk",
        placements=tuple(RegionPlacement(region, memory_only_policy(),
                                         primary=(region == US_WEST))
                         for region in REGIONS),
        consistency=consistency, queue_interval=0.5, **spec_kwargs)
    instances = dep.start_wiera_instance("chk", spec)
    clients = [dep.add_client(region, instances=instances)
               for region in REGIONS]

    def setup():
        for i in range(4):
            yield from clients[0].put(f"k{i}", bytes(64))
    dep.drive(setup())
    dep.sim.run(until=dep.sim.now + 2.0)

    def session(me, client):
        for i in range(12):
            mine = (i + me) % 4 if shared else me
            yield from client.put(f"k{mine}", bytes([i]) * 64)
            yield from client.get(f"k{(i + 2 * me) % 4}")
    procs = [dep.sim.process(session(me, client))
             for me, client in enumerate(clients)]
    dep.sim.run(until=dep.sim.all_of(procs))
    return check(client.history for client in clients)


@pytest.mark.parametrize("consistency, spec_kwargs", [
    ("multi_primaries", {}),
    ("primary_backup", {"sync_replication": True}),
])
def test_linearizable_protocols_hold_every_rule(consistency, spec_kwargs):
    report = _world(consistency, **spec_kwargs)
    assert report.staleness.latest == 36    # every get returned
    report.assert_holds()


def test_eventual_has_rule_2_reported():
    report = _world("eventual", shared=False)
    report.assert_holds(1, 3, 4, 5)
    assert report.staleness.outdated > 0
    assert report.broken(2)


# -- the index against a brute-force reading of the rules ---------------------

def _reference(histories) -> list[tuple[int, str]]:
    """Rules 1-4 by brute force over every pair of rows: ``(rule, key)``
    of each violation."""
    rows = [row for history in histories for row in history.rows()]
    found = []
    for key in sorted({row[1] for row in rows}):
        mine = [row for row in rows if row[1] == key]
        acked = [row for row in mine
                 if row[5] is None and row[0] in ("put", "get")]
        puts = [row for row in acked if row[0] == "put"]
        found += [(1, key)] * (len(puts) - len({row[2] for row in puts}))
        for op, _, ver, start, end, _ in acked:
            bound = max((a[2] for a in acked if a[4] <= start), default=0)
            if ver < bound or (op == "put" and ver == bound):
                found.append((2, key))
            if op != "get":
                continue
            writers = [p[3] for p in puts if p[2] == ver]
            if writers and min(writers) > end:
                found.append((3, key))
            elif not writers and not any(
                    p[0] == "put" and p[5] is not None and p[3] <= end
                    for p in mine):
                found.append((4, key))
    return sorted(found)


#: one op: (kind, key, version, start, duration, failed); every op takes
#: time, as every simulated one does
_OPS = st.tuples(st.sampled_from(("put", "get")), st.sampled_from("ab"),
                 st.integers(1, 5), st.integers(0, 10), st.integers(1, 3),
                 st.booleans())


@given(st.lists(st.lists(_OPS, max_size=12), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_rules_1_to_4_match_a_brute_force_reading(per_client):
    histories = []
    for client_ops in per_client:
        history = OpHistory()
        for kind, key, ver, start, duration, failed in sorted(
                client_ops, key=lambda op: op[3] + op[4]):
            history.book(kind, key, None if failed else ver, float(start),
                         float(start + duration),
                         "StorageError" if failed else None)
        histories.append(history)
    report = check(histories)
    assert sorted((v.rule, v.key) for v in report.broken(1, 2, 3, 4)) \
        == _reference(histories)
