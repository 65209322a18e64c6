"""Golden determinism workload for the kernel fast path.

Runs a fixed sharded YCSB-A deployment under fault injection (partition +
heal + latency spike, timeout racing enabled) and fingerprints everything
an application could observe: the exact per-request latency sequences, the
final simulation clock, the kernel event count, the shared metric totals,
and a digest of the final store state across every shard.

``tests/golden/kernel_golden.json`` was captured from the pre-optimization
kernel (heap-only scheduling, poke-event resumes); the pin test asserts the
optimized kernel reproduces it bit-for-bit.  Regenerate only when the
*workload* changes, never to paper over a kernel behavior change:

    PYTHONPATH=src python -m tests.kernel_golden

``events_processed`` is the one field that pins the kernel *under this
stack's event stream* rather than an application observable: it moves
whenever fewer (or more) events are scheduled for the same simulated
behaviour.  It has been re-recorded three times: 19 844 -> 12 946 when
links and IOPS caps became virtual clocks and an open gate stopped costing
an event (one kernel event per message); 12 946 -> 10 845 when an RPC its
caller waits on stopped being a process of its own (``RpcNode.invoke``;
this workload races every client request against a timeout, so client
calls stay processes and only the calls below them moved); and 10 845 ->
9 387 when a process stopped costing events of its own (``sim.process()``
runs the first step at once, an unwatched ok finish schedules nothing).
It may be re-recorded again only under the proof given each time: a
``golden_run()`` against the old fixture showing ``final_clock``, every
latency stream, every pinned metric total, ``faults_applied`` and
``store_digest`` bit-identical with only ``events_processed`` differing —
at ``window=None`` and ``window=0.3`` — and ``src/repro/sim/kernel.py``
either unchanged (the first two) or changed only in which bookkeeping
costs an event, with the change's own order argument written down (the
third: DESIGN "A process costs no events of its own";
``results/PR19_process_cost.txt`` holds the run).

The fourth re-record is the one that moved behaviour, because the old
behaviour was a bug: ``driver.stop()`` lands while client0 (us-west) is
mid-request, and its ``_one_op`` booked the stop's ``Interrupt`` as an op
error and went on issuing requests through the 10 s settle phase (74 RPCs
after the stop, the last at 53.975 s).  Once ``Interrupt`` became a
``BaseException`` that ends the process it escapes (the kernel's stop
rule), client0 goes quiet at its stop, 44.096 s: its last request left at
43.896 s.  The proof, against the old fixture at ``window=None`` and
``window=0.3`` alike: ``final_clock``, ``faults_applied``, both client1
streams and every pinned total but four are bit-identical (``rpc.timeouts``
4, ``client.failovers`` 252, ``client.retries`` 86 among them); client0's
read and update streams are exact prefixes of the old ones, 98 -> 54 and
64 -> 35 — the ops it issued after the stop are gone and nothing else is;
``events_processed`` 9 387 -> 8 426, ``net.messages`` 3 564 -> 3 181,
``net.bytes`` 1 196 224 -> 1 065 344, ``rpc.requests_served`` 1 845 ->
1 653 and ``storage.ops`` 1 494 -> 1 340 fall, and ``store_digest`` moves
because the writes made after the stop are not made.

The fifth re-record, 8 426 -> 8 425, is like the first three: no
observable moves.  The workload's stop lands while one YCSB client sleeps
its think time, and ``YcsbClient.stop`` now cancels that sleep instead of
leaving it to fire into a finished process.  The proof, against the old fixture at
``window=None`` and ``window=0.3``: every field but ``events_processed``
bit-identical, and ``src/repro/sim/kernel.py`` unchanged.

The sixth re-record moved behaviour on purpose: a same-number
last-write-wins replace became one step of the replica merge
(``TieraInstance.apply_replica_update``) instead of a purge of the held
copy followed by a fresh put.  Three multi-primaries updates each meet
such a replace at a peer and stop paying the purge: ``client0.update``
entries 19 and 21 fall by 0.29 ms and ``client1.update`` entry 104 by
0.58 ms (a memcached delete, half its 0.18 ms write, plus the 0.2 ms
metadata write, once per replace).  ``events_processed`` 8 425 -> 8 421
and ``storage.ops`` 1 340 -> 1 338 fall with them; ``final_clock``,
``faults_applied``, every other latency, every other pinned total and
``store_digest`` are bit-identical.  The proof: the same tree with the old
purge's deletes and metadata write put back in front of the one-step
replace reproduces the previous fixture bit for bit.
"""

from __future__ import annotations

import json
import pathlib

from repro.bench.harness import build_deployment
from repro.core.global_policy import GlobalPolicySpec, RegionPlacement
from repro.faults.retry import RetryPolicy
from repro.net.topology import US_EAST, US_WEST
from repro.tiera.policy import write_back_policy
from repro.workloads.ycsb import YcsbClient, YcsbWorkload

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent
               / "golden" / "kernel_golden.json")

#: metric names whose deployment-wide totals are part of the fingerprint
PINNED_METRICS = (
    "net.messages",
    "net.bytes",
    "rpc.requests_served",
    "rpc.dropped_oneways",
    "rpc.timeouts",
    "client.failovers",
    "client.retries",
    "retry.attempts",
    "faults.injected",
    "replication.send_failures",
    "storage.ops",
)


def _store_digest(dep, shard_map) -> str:
    """The canonical store digest in the fixture's historical framing:
    version-only rows (detail=False) in nested shard/instance/key order
    (sort=False), exactly the byte stream the fixture was captured from."""
    return dep.store_digest(namespaces=sorted(shard_map.shards),
                            detail=False, sort=False)


def _advance(sim, until: float, window) -> None:
    """Advance to ``until`` — in one ``run`` call, or in bounded
    ``run(until=...)`` windows of at most ``window`` sim-seconds, which
    must be event-for-event identical to one big run."""
    if window is None:
        sim.run(until=until)
        return
    t = sim.now
    while t < until:
        t = min(t + window, until)
        sim.run(until=t)


def golden_run(window=None) -> dict:
    """The reference chaos run; returns the observable fingerprint.

    ``window`` switches every simulation advance to small bounded
    ``run(until=...)`` steps; the fingerprint must not change.
    """
    dep = build_deployment([US_EAST, US_WEST], seed=29, shards=4)
    spec = GlobalPolicySpec(
        name="gold",
        placements=(RegionPlacement(US_EAST, write_back_policy()),
                    RegionPlacement(US_WEST, write_back_policy())),
        consistency="multi_primaries")
    handle = dep.start_sharded_instance("gold", spec)

    workload = YcsbWorkload.workload_a(record_count=80, value_size=128)
    retry = RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.5,
                        jitter=0.2)
    drivers = []
    for i, region in enumerate((US_WEST, US_EAST)):
        client = dep.add_client(region, sharded=handle,
                                request_timeout=1.5, retry_policy=retry)
        rng = dep.rng.stream(f"gold{i}")
        drivers.append(YcsbClient(dep.sim, client, workload, rng,
                                  think_time=0.02))
    dep.drive(drivers[0].load())

    # Faults land inside the measured phase (the drivers absorb op errors).
    t0 = dep.sim.now
    schedule = dep.fault_schedule()
    schedule.partition(t0 + 5.0, US_EAST, US_WEST, duration=4.0)
    # Big enough that cross-region calls overrun request_timeout, so the
    # call_with_timeout racing path (fired deadlines, cancelled timers,
    # interrupts) is part of the pinned behavior.
    schedule.latency_spike(t0 + 12.0, 1.0, regions=(US_EAST, US_WEST),
                           duration=3.0)
    schedule.start()
    for driver in drivers:
        driver.start()
    _advance(dep.sim, dep.sim.now + 20.0, window)
    for driver in drivers:
        driver.stop()
    _advance(dep.sim, dep.sim.now + 10.0, window)   # replication settles

    latencies = {}
    for i, driver in enumerate(drivers):
        latencies[f"client{i}.read"] = driver.stats.latencies["get"]
        latencies[f"client{i}.update"] = driver.stats.latencies["put"]
    return {
        "final_clock": dep.sim.now,
        "events_processed": dep.sim.events_processed,
        "latencies": latencies,
        "metric_totals": {name: dep.metric_total(name)
                          for name in PINNED_METRICS},
        "store_digest": _store_digest(dep, handle.map),
        "faults_applied": [[t, kind, list(target)]
                           for t, kind, target in dep.faults.applied],
    }


def main() -> None:
    fingerprint = golden_run()
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(fingerprint, indent=2) + "\n")
    ops = sum(len(v) for v in fingerprint["latencies"].values())
    print(f"wrote {GOLDEN_PATH} ({ops} request latencies, "
          f"{fingerprint['events_processed']} kernel events)")


if __name__ == "__main__":
    main()
