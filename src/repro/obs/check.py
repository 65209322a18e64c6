"""The history checker: offline verdicts over a set of op histories.

Every :class:`~repro.obs.history.OpHistory` row carries the version its op
read or wrote, so judging a per-key register needs no search over orders.
Taking version order as write order, the checker tests five rules, each
key in O(n log n):

1. no two acked puts return one version;
2. if op A ends before op B starts, ``ver(A) <= ver(B)``, strictly when B
   is a put;
3. no get returns a version whose put started after the get ended;
4. every get returns a version that some put or the preload wrote (a put
   that failed may still have taken effect, and its version is unknown, so
   it explains any version a get ending after its start returns);
5. no op fails outside the fault windows of the world's
   :class:`~repro.faults.schedule.FaultSchedule`\\ s.

Rules 1-4 judge ``put`` and ``get`` rows of keys no remove touched (a
remove resets a key's version numbers); rule 5 judges every row.  "Ends
before" includes the same instant: a client's next op starts when its
last one ends.

Rule 2 is also the staleness report.  One index per key — the acked puts
and gets by end, with the running maximum version of each — answers both
"is this op behind an op that ended before it started" and Fig. 8's
question, "is this get behind a put acked before it started"
(:class:`Staleness`).  A protocol whose read contract is weaker than
linearizability (``eventual``, an EC read at a non-holder) has rule 2
reported, not asserted.

:func:`check_quiescent` judges state instead of histories: once the last
fault window has closed, one repair or anti-entropy round later, every
replica of a key holds the same newest stamp, every final EC manifest has
``n`` readable fragments, and no lock is held.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, NamedTuple

from repro.obs.history import OpHistory

#: the rules :meth:`HistoryCheck.assert_holds` asserts by default
RULES = (1, 2, 3, 4, 5)


class Violation(NamedTuple):
    rule: int
    key: str
    what: str


class Staleness(NamedTuple):
    """Fig. 8's verdict on the gets of a set of histories: outdated when a
    get returned a version older than a put on its key, in the same set,
    acked by the get's start.  Failed ops count for nothing."""

    latest: int
    outdated: int

    @property
    def outdated_fraction(self) -> float:
        total = self.latest + self.outdated
        return self.outdated / total if total else 0.0


class HistoryCheck(NamedTuple):
    violations: tuple[Violation, ...]
    staleness: Staleness

    def broken(self, *rules: int) -> list[Violation]:
        """The violations of ``rules`` (every rule when none is named)."""
        return [v for v in self.violations if not rules or v.rule in rules]

    def assert_holds(self, *rules: int) -> None:
        """Raise ``AssertionError`` naming every violation of ``rules``
        (all five when none is named)."""
        found = self.broken(*(rules or RULES))
        if found:
            raise AssertionError(f"{len(found)} history violations: "
                                 + "; ".join(map(str, found[:10])))


def check(histories: Iterable[OpHistory],
          preloaded: Iterable[tuple[str, int]] = (),
          faults=()) -> HistoryCheck:
    """Judge ``histories`` (one per client) against the five rules.

    ``preloaded``: the ``(key, version)`` pairs written before any client
    op; ``faults``: the world's fault schedules (rule 5's windows)."""
    rows: dict[str, list[tuple]] = {}
    windows = [span for schedule in faults for span in schedule.windows()]
    violations: list[Violation] = []
    for history in histories:
        for row in history.rows():
            op, key, _, start, end, outcome = row
            rows.setdefault(key, []).append(row)
            if outcome is not None and not any(
                    lo <= end and start <= hi for lo, hi in windows):
                violations.append(Violation(
                    5, key, f"{op} [{start:.6f}, {end:.6f}] failed with "
                    f"{outcome} outside every fault window"))
    written: dict[str, set[int]] = {}
    for key, version in preloaded:
        written.setdefault(key, set()).add(version)
    latest = outdated = 0
    for key, key_rows in rows.items():
        fresh, stale, found = _judge(key, key_rows, written.get(key, set()))
        latest += fresh
        outdated += stale
        violations.extend(found)
    violations.sort(key=lambda v: (v.rule, v.key))
    return HistoryCheck(tuple(violations), Staleness(latest, outdated))


def _judge(key: str, rows: list[tuple],
           preloaded: set[int]) -> tuple[int, int, list[Violation]]:
    """One key: its staleness counts and its violations of rules 1-4."""
    acked = [(end, ver, op) for op, _, ver, _, end, outcome in rows
             if outcome is None and op in ("put", "get")]
    acked.sort()
    ends = [row[0] for row in acked]
    put_max, op_max = [], []
    puts = seen = 0
    for _, ver, op in acked:
        if op == "put":
            puts = max(puts, ver)
        seen = max(seen, ver)
        put_max.append(puts)
        op_max.append(seen)

    latest = outdated = 0
    found: list[Violation] = []
    judged = not any(op.startswith("remove") for op, *_ in rows)
    put_start: dict[int, float] = {}
    failed_puts: list[float] = []
    for op, _, ver, start, _, outcome in rows:
        if op != "put":
            continue
        if outcome is not None:
            failed_puts.append(start)
        elif ver in put_start:
            if judged:
                found.append(Violation(1, key, f"two acked puts of v{ver}"))
            put_start[ver] = min(put_start[ver], start)
        else:
            put_start[ver] = start
    first_failed = min(failed_puts, default=math.inf)

    for op, _, ver, start, end, outcome in rows:
        if outcome is not None or op not in ("put", "get"):
            continue
        before = bisect_right(ends, start)
        if op == "get":
            if ver >= (put_max[before - 1] if before else 0):
                latest += 1
            else:
                outdated += 1
        if not judged:
            continue
        bound = op_max[before - 1] if before else 0
        if ver < bound or (op == "put" and ver == bound):
            found.append(Violation(
                2, key, f"{op} [{start:.6f}, {end:.6f}] returned v{ver} "
                f"after an op that ended by its start returned v{bound}"))
        if op != "get":
            continue
        if ver in put_start:
            if put_start[ver] > end:
                found.append(Violation(
                    3, key, f"get [{start:.6f}, {end:.6f}] returned v{ver}, "
                    f"whose put started at {put_start[ver]:.6f}"))
        elif ver not in preloaded and first_failed > end:
            found.append(Violation(
                4, key, f"get [{start:.6f}, {end:.6f}] returned v{ver}, "
                "which no put or preload wrote"))
    return latest, outdated, found


def check_quiescent(dep) -> list[str]:
    """Run one repair round (the protocol's own: anti-entropy, or EC's
    fragment repair) at every live instance of every replicated namespace
    of the deployment ``dep``, then judge the state it leaves (reading the
    manifests takes sim time).  Call it once the last fault window has
    closed.  Returns one line per violation:

    * a key (not a fragment) whose newest stamp is not the same on every
      live replica, or that some live replica lacks;
    * an EC key whose newest final manifest, at some live instance, does
      not name ``n`` fragments readable at their holders;
    * a lock still held.
    """
    # imported here: both packages import repro.obs
    from repro.core.consistency.base import GlobalProtocol
    from repro.ec.protocol import (decode_manifest, fragment_key,
                                   is_fragment_key)
    from repro.storage.backend import ObjectMissingError
    found: list[str] = []
    for ns in sorted(dep.wiera.tims):
        tim = dep.wiera.tims[ns]
        if not isinstance(tim.protocol, GlobalProtocol):
            continue    # local-only instances keep no replicas
        live = {rec.instance_id: rec.instance for rec in tim.alive_records()
                if not rec.instance.host.down}
        for iid in sorted(live):
            inst = live[iid]
            dep.drive(inst.protocol.repair_once(inst), name=f"quiesce:{iid}")
        stamps: dict[str, dict[str, tuple]] = {}
        for iid in sorted(live):
            for key, stamp in live[iid].key_state().items():
                if not is_fragment_key(key):
                    stamps.setdefault(key, {})[iid] = stamp
        for key in sorted(stamps):
            held = stamps[key]
            if len(held) < len(live) or len(set(held.values())) > 1:
                found.append(f"{ns}/{key}: newest stamp per replica {held}")
        judged = set()
        for iid in sorted(live):
            for record in list(live[iid].meta.records()):
                final = record.final_versions()
                if is_fragment_key(record.key) or not final:
                    continue
                version = final[-1]
                try:
                    data = dep.drive(live[iid].read_version(
                        record.key, version, run_rules=False))[0]
                except ObjectMissingError:
                    continue    # bytes lost here; rule 1 judges the stamp
                manifest = decode_manifest(data)
                if manifest is None:
                    continue
                frags = manifest["frags"]
                seen = (record.key, version, tuple(sorted(frags.items())))
                if seen in judged:
                    continue
                judged.add(seen)
                readable = [idx for idx, holder in frags.items()
                            if holder in live and live[holder].readable(
                                fragment_key(record.key, idx), version)]
                n = manifest["k"] + manifest["m"]
                if len(readable) < n:
                    found.append(
                        f"{ns}/{record.key} v{version}: {len(readable)} of "
                        f"{n} fragments readable (map {frags})")
    found.extend(f"lock held: {key}"
                 for key in dep.wiera.lock_service.held_keys())
    return found
