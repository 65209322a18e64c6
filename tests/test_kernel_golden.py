"""Golden determinism pin for the kernel fast path.

``tests/golden/kernel_golden.json`` fingerprints a sharded YCSB-A run with
fault injection as executed by the *pre-optimization* kernel (heap-only
scheduling, poke-event resumes).  This test replays the identical workload
on the current kernel and asserts every observable — per-request latency
sequences, final clock, kernel event count, metric totals, store digest,
applied faults — matches bit-for-bit.  Any scheduling-order change the
fast path introduced (run-queue vs heap, deferred resumes, tombstoned
interrupts) would scramble the retry jitter and latency streams and show
up here immediately.

``events_processed`` pins the kernel under this stack's event stream: it
is the only field that a change to *what costs an event* may move without
any observable moving, and it may be re-recorded only under the proof
spelled out in ``tests/kernel_golden.py`` (every other field bit-identical
against the old fixture, and an account of the kernel source).
"""

import json

from tests.kernel_golden import GOLDEN_PATH, PINNED_METRICS, golden_run


def test_fast_path_kernel_matches_seed_kernel_fingerprint():
    want = json.loads(GOLDEN_PATH.read_text())
    got = golden_run()

    # Compare piecewise first so a mismatch names the drifting observable.
    assert got["final_clock"] == want["final_clock"]
    assert got["events_processed"] == want["events_processed"]
    assert got["faults_applied"] == want["faults_applied"]
    for name in PINNED_METRICS:
        assert got["metric_totals"][name] == want["metric_totals"][name], name
    for stream, values in want["latencies"].items():
        assert got["latencies"][stream] == values, stream
    assert got["store_digest"] == want["store_digest"]
    # ...and wholesale, in case the fixture ever grows new fields.
    assert got == want


def test_windowed_stepping_is_event_for_event_identical():
    """Where a run stops is not part of the simulation: ``run(until=...)``
    in small bounded windows must reproduce the exact fingerprint of one
    uninterrupted run — same latency streams, same event count, same
    clock, same store digest."""
    want = json.loads(GOLDEN_PATH.read_text())
    got = golden_run(window=0.3)
    assert got == want


def test_fixture_is_nontrivial():
    """Guard against an accidentally regenerated-empty fixture."""
    want = json.loads(GOLDEN_PATH.read_text())
    ops = sum(len(v) for v in want["latencies"].values())
    assert ops > 200
    assert want["events_processed"] > 5_000
    assert want["metric_totals"]["rpc.timeouts"] > 0      # racing path pinned
    assert want["metric_totals"]["client.failovers"] > 0  # fault path pinned
