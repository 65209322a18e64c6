"""Ablation: synchronous copy vs asynchronous queue in PrimaryBackup.

§3.3.1: "to minimize get latency, the primary can send updates to other
instances synchronously by using a copy response ... to improve put
latency, updates could be transmitted asynchronously by the primary using
queue response."  This ablation quantifies that tradeoff: put latency at
the primary vs staleness observed at a backup.
"""

from dataclasses import replace

from repro.bench.harness import build_deployment
from repro.bench.reporting import ExperimentReport, register_report
from repro.core.client import OP_ERRORS
from repro.net.topology import ASIA_EAST, EU_WEST, US_WEST
from repro.obs.check import check
from repro.policydsl import builtin_policy
from repro.util.units import MS

REGIONS = (US_WEST, EU_WEST, ASIA_EAST)


def _run_mode(sync: bool, ops: int = 60, queue_interval: float = 5.0):
    dep = build_deployment(REGIONS, seed=11)
    spec = builtin_policy("PrimaryBackupConsistency")
    placements = tuple(
        replace(p, region=r, primary=(r == US_WEST))
        for p, r in zip(spec.placements, REGIONS))
    spec = replace(spec, placements=placements, sync_replication=sync,
                   queue_interval=queue_interval)
    instances = dep.start_wiera_instance("abmode", spec)
    writer = dep.add_client(US_WEST, instances=instances, name="writer")
    reader = dep.add_client(ASIA_EAST, instances=instances, name="reader")

    def workload():
        for i in range(ops):
            key = f"k{i % 5}"
            yield from writer.put(key, b"v" * 1024)
            try:
                yield from reader.get(key)
            except OP_ERRORS:
                pass    # booked in the reader's history
            yield dep.sim.timeout(0.5)
    dep.drive(workload())
    reads = check((writer.history, reader.history)).staleness
    # a get the backup failed (it has never heard of the key yet) is
    # maximally stale here, while the staleness query leaves it unjudged
    failed = sum(outcome is not None for outcome in reader.history.outcome)
    stale = (reads.outdated + failed) / (reads.latest + reads.outdated
                                         + failed)
    return writer.history.mean_latency("put") / MS, stale


def _run():
    sync_put, sync_stale = _run_mode(True)
    async_put, async_stale = _run_mode(False)
    return {"sync": (sync_put, sync_stale),
            "async": (async_put, async_stale)}


def test_ablation_replication_mode(benchmark):
    modes = benchmark.pedantic(_run, rounds=1, iterations=1)
    report = ExperimentReport(
        exp_id="ablation-replication",
        title="Ablation: PrimaryBackup copy (sync) vs queue (async)",
        columns=["mode", "primary put latency (ms)",
                 "stale reads at backup (%)"],
        paper_claim="sync: fresh reads, slower puts; async: fast puts, "
                    "stale reads (per §3.3.1)")
    for mode, (put_ms, stale) in modes.items():
        report.add_row(mode, put_ms, 100 * stale)
    register_report(report)

    sync_put, sync_stale = modes["sync"]
    async_put, async_stale = modes["async"]
    # Sync replication makes puts pay the widest backup RTT...
    assert sync_put > async_put * 3
    # ...but keeps backups fresh, while async reads go stale.
    assert sync_stale == 0.0
    assert async_stale > 0.5
