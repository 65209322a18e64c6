"""Tests for the op history (``repro.obs.history``): its views, the
checker's staleness report (``repro.obs.check``) against the rule it
replaced, and the ratchet that keeps it the one record of an op's
outcome."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.check import check
from repro.obs.history import OpHistory

SRC = Path(__file__).resolve().parents[1] / "src"


class ReferenceOracle:
    """The online staleness oracle the query replaced, kept as the
    reference: ``note_put`` at each ack, ``judge_get`` per get against the
    versions acked at or before the get started."""

    def __init__(self):
        self._acks: dict[str, list[tuple[float, int]]] = {}
        self.latest_reads = 0
        self.outdated_reads = 0

    def note_put(self, key: str, version: int, ack_time: float) -> None:
        self._acks.setdefault(key, []).append((ack_time, version))

    def latest_before(self, key: str, t: float) -> int:
        best = 0
        for ack_time, version in self._acks.get(key, ()):
            if ack_time <= t and version > best:
                best = version
        return best

    def judge_get(self, key: str, returned_version: int,
                  started_at: float) -> bool:
        latest = self.latest_before(key, started_at)
        if returned_version >= latest:
            self.latest_reads += 1
            return True
        self.outdated_reads += 1
        return False


def staleness(histories):
    """The checker's rule-2 report: gets judged against acked puts."""
    return check(histories).staleness


def _history(*rows) -> OpHistory:
    history = OpHistory()
    for row in rows:
        history.book(*row)
    return history


# -- the rows and their views -------------------------------------------------

class TestOpHistory:
    def test_latency_windows(self):
        history = _history(("put", "a", 1, 1.0, 1.1),
                           ("get", "a", 1, 2.0, 2.2),
                           ("put", "b", 1, 2.5, 2.9, "StorageError"),
                           ("put", "a", 2, 3.0, 3.3))
        assert len(history) == 4
        assert history.latencies("put") == pytest.approx([0.1, 0.3])
        # invoked in [start, end); failed ops have no latency
        assert history.latencies("put", 1.5, 3.0) == []
        assert history.latencies("put", 1.0, 3.0) == pytest.approx([0.1])
        assert history.mean_latency("put") == pytest.approx(0.2)
        assert history.mean_latency("get") == pytest.approx(0.2)

    def test_empty_mean(self):
        assert OpHistory().mean_latency("put") == 0.0

    def test_summary_counts_from_a_row_on(self):
        history = _history(("put", "a", 1, 0.0, 1.0),
                           ("get", "a", 1, 1.0, 1.5),
                           ("get", "b", None, 1.5, 1.5, "StorageError"),
                           ("put", "c", None, 2.0, 3.0,
                            "NoInstanceAvailableError"),
                           ("put", "a", 2, 3.0, 3.5))
        summary = history.summary()
        assert summary.latencies == {"get": [0.5], "put": [1.0, 0.5]}
        assert (summary.ops, summary.errors) == (3, 2)
        assert summary.errors_by_type == {"StorageError": 1,
                                          "NoInstanceAvailableError": 1}
        since = history.summary(since=2)
        assert (since.ops, since.errors) == (1, 2)


# -- staleness: the cases the oracle was tested on ---------------------------

class TestStaleness:
    def test_latest_read_counted(self):
        reads = staleness([_history(("put", "k", 1, 9.0, 10.0),
                                    ("get", "k", 1, 11.0, 11.5))])
        assert (reads.latest, reads.outdated) == (1, 0)

    def test_outdated_read_counted(self):
        reads = staleness([_history(("put", "k", 1, 9.0, 10.0),
                                    ("put", "k", 2, 19.0, 20.0),
                                    ("get", "k", 1, 25.0, 25.5))])
        assert reads.outdated_fraction == 1.0

    def test_racing_put_not_counted_stale(self):
        # the get started before the v2 ack: v1 is the latest it must see
        reads = staleness([_history(("put", "k", 1, 9.0, 10.0),
                                    ("put", "k", 2, 14.0, 20.0),
                                    ("get", "k", 1, 15.0, 21.0))])
        assert (reads.latest, reads.outdated) == (1, 0)

    def test_unknown_key_is_fresh(self):
        reads = staleness([_history(("get", "ghost", 0, 0.0, 0.1))])
        assert (reads.latest, reads.outdated) == (1, 0)

    def test_fraction_empty(self):
        assert staleness([]).outdated_fraction == 0.0

    def test_acks_count_across_histories_and_failures_not_at_all(self):
        writer = _history(("put", "k", 1, 0.0, 1.0),
                          ("put", "k", 5, 1.0, 2.0, "TieraError"))
        reader = _history(("get", "k", 0, 3.0, 3.5),
                          ("get", "k", None, 4.0, 4.5, "StorageError"))
        reads = staleness([writer, reader])
        assert (reads.latest, reads.outdated) == (0, 1)
        assert staleness([reader]).outdated == 0


KEYS = ("a", "b", "c")

#: one op: (kind, key, version, start, duration, failed).  Instants sit on
#: a coarse grid, so acks and get starts often coincide.
ops = st.tuples(st.sampled_from(("put", "get")), st.sampled_from(KEYS),
                st.integers(0, 6), st.integers(0, 12), st.integers(0, 3),
                st.booleans())


@given(st.lists(st.lists(ops, max_size=25), min_size=1, max_size=3))
@settings(max_examples=300)
def test_staleness_matches_the_reference_oracle(per_client):
    histories, reference = [], ReferenceOracle()
    for client_ops in per_client:
        history = OpHistory()
        # a client books in completion order
        for kind, key, version, start, duration, failed in sorted(
                client_ops, key=lambda op: op[3] + op[4]):
            end = float(start + duration)
            if failed:
                history.book(kind, key, None, float(start), end,
                             "StorageError")
            else:
                history.book(kind, key, version, float(start), end)
                if kind == "put":
                    reference.note_put(key, version, end)
        histories.append(history)
    for history in histories:
        for op, key, version, start, _, outcome in history.rows():
            if op == "get" and outcome is None:
                reference.judge_get(key, version, start)
    reads = staleness(histories)
    assert (reads.latest, reads.outdated) == (reference.latest_reads,
                                              reference.outdated_reads)


# -- ratchet: one booking site -----------------------------------------------

#: the books the op history replaced; none of them may come back to ``src/``
GONE = ("LatencyRecorder", "StalenessOracle", "YcsbStats", "note_error",
        "load.latency")


def test_only_the_client_books_an_op():
    booking, gone = set(), []
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text(), rel)):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "book"):
                booking.add(rel)
            names = ((node.id,) if isinstance(node, ast.Name) else
                     (node.attr,) if isinstance(node, ast.Attribute) else
                     (node.name,) if isinstance(node, (ast.ClassDef,
                                                       ast.FunctionDef))
                     else (node.value,) if isinstance(node, ast.Constant)
                     else ())
            gone += [f"{rel}: {name}" for name in names if name in GONE]
    assert booking == {"repro/core/client.py"}
    assert not gone, gone
