"""Per-layer attribution, measured from outside the program.

Three instruments, none of which edits ``src/``:

* :func:`exact_counts` — work counts read from the Simulator, the shared
  metrics registry, the cohort reports and the workload context after an
  untraced rep (they repeat exactly for a given seed);
* :func:`fold_profile` — host self-time per layer from one rep run under
  ``cProfile``: Python functions are attributed to the package of the
  file that defines them, C/builtin time to the layer of the calling
  Python frame;
* :func:`fold_spans` — sim-time self-time per layer from one rep run with
  ``build_deployment(with_tracing=True)``: a span's self-time is its
  duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import pstats

#: the repo's modules, as (path fragment, layer); first match wins
LAYER_PATHS = (
    ("repro/sim/kernel.py", "sim.kernel"),
    ("repro/sim/primitives.py", "sim.kernel"),
    ("repro/sim/rpc.py", "sim.rpc"),
    ("repro/net/", "net"),
    ("repro/storage/", "storage"),
    ("repro/tiera/", "tiera"),
    ("repro/core/client.py", "core.client"),
    ("repro/core/consistency/", "core.consistency"),
    ("repro/core/", "core.control"),
    ("repro/coordination/", "coordination"),
    ("repro/shard/", "shard"),
    ("repro/ec/", "ec"),
    ("repro/load/", "load"),
    ("repro/obs/", "obs"),
    ("repro/workloads/", "workloads"),
    ("repro/util/", "util"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_PATHS)) + ("other",)

#: span category -> layer.  ``op`` is the benchmark's own root span around
#: client.get/put, so its self-time is what the client, the consistency
#: protocol's waiting and queueing add above the RPCs.  ``rpc.server`` is
#: the request-handler body: the Tiera instance and its protocol hook minus
#: the storage, lock, net and nested-rpc spans inside it.
SPAN_LAYERS = {
    "op": "core.client", "rpc": "sim.rpc", "net": "net",
    "storage": "storage", "rpc.server": "tiera", "policy": "tiera",
    "lock": "coordination", "shard": "shard", "ec": "ec",
}
SPAN_METRIC_LAYERS = tuple(dict.fromkeys(SPAN_LAYERS.values()))


def layer_of(filename: str) -> str:
    filename = filename.replace("\\", "/")
    for fragment, layer in LAYER_PATHS:
        if fragment in filename:
            return layer
    return "other"


# -- exact counts ----------------------------------------------------------

def metric_totals(dep) -> dict:
    """Sum every registry metric by name: counters/gauges to their value,
    histograms to ``(count, sum)`` under ``name#count`` / ``name#sum``."""
    totals: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        totals[name] = totals.get(name, 0) + value

    for metric in dep.obs.metrics:
        if metric.kind == "histogram":
            stats = metric.stats
            add(metric.name + "#count", stats.count)
            add(metric.name + "#sum",
                stats.mean * stats.count if stats.count else 0.0)
        else:
            add(metric.name, metric.value)
    return totals


def exact_counts(rep: dict) -> dict:
    """The per-layer count metrics of one untraced rep."""
    before, after = rep["totals_before"], rep["totals_after"]

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    ops = rep["ops"]
    reports = rep.get("cohort_reports") or []
    offered = sum(r["offered"] for r in reports)
    expected = rep.get("offered_expected", 0.0)
    return {
        "sim.kernel.events_per_op": per(rep["events"], ops),
        "sim.kernel.events_per_wall_s": per(rep["events"], rep["wall_s"]),
        "sim.rpc.requests_per_op": per(delta("rpc.requests_served"), ops),
        "sim.rpc.timeouts": delta("rpc.timeouts"),
        "net.messages_per_op": per(delta("net.messages"), ops),
        "net.bytes_per_op": per(delta("net.bytes"), ops),
        "net.chunks_per_op": per(delta("net.chunks"), ops),
        "storage.ops_per_op": per(delta("storage.ops"), ops),
        "tiera.ops_per_op": per(delta("tiera.op_latency#count"), ops),
        "core.client.retries": delta("client.retries"),
        "core.client.failovers": delta("client.failovers"),
        "core.client.failed_op_share": per(rep["failed"], rep["attempted"]),
        "core.consistency.repl_batches": delta("replication.batches"),
        "core.consistency.repl_entries_per_batch": per(
            delta("replication.batch_entries#sum"),
            delta("replication.batch_entries#count")),
        "core.consistency.repl_retries": delta("replication.retries"),
        "core.consistency.send_failures": delta("replication.send_failures"),
        "coordination.lock_waits_per_op": per(delta("lock.wait#count"), ops),
        "coordination.lock_wait_mean_ms": 1e3 * per(
            delta("lock.wait#sum"), delta("lock.wait#count")),
        "coordination.lock_expirations": delta("lock.expirations"),
        "shard.router_refreshes": delta("router.refreshes"),
        "shard.wrong_shard_redirects": delta("router.wrong_shard"),
        "ec.fragments_written_per_put": per(delta("ec.fragments_written"),
                                            delta("ec.puts")),
        "ec.degraded_reads": delta("ec.degraded_reads"),
        "ec.fragments_rebuilt": delta("ec.fragments_rebuilt"),
        "ec.repair_round_sim_s": rep.get("repair_round_sim_s", 0.0),
        "ec.repair_bytes_moved": delta("ec.repair_bytes_moved"),
        "load.offered": offered,
        "load.offered_rate_error": (abs(offered - expected) / expected
                                    if expected else 0.0),
        "load.shed": sum(r["shed"] for r in reports),
        "load.queue_delay_max_ms": 1e3 * max(
            (r["queue_delay"]["max"] for r in reports), default=0.0),
        "load.peak_in_flight": max((r["peak_in_flight"] for r in reports),
                                   default=0),
    }


# -- host self-time from cProfile ------------------------------------------

def fold_profile(profile, ops: int) -> dict:
    """``<layer>.self_us_per_op`` and ``<layer>.calls_per_op``."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_, ncalls, tottime, _, callers) in \
            pstats.Stats(profile).stats.items():
        filename = func[0]
        if filename != "~":                       # a Python function
            layer = layer_of(filename)
            self_s[layer] += tottime
            calls[layer] += ncalls
            continue
        # C/builtin: split its own time over the calling Python frames
        for caller, (_, caller_calls, caller_tt, _) in callers.items():
            layer = "other" if caller[0] == "~" else layer_of(caller[0])
            self_s[layer] += caller_tt
            calls[layer] += caller_calls
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_us_per_op"] = 1e6 * self_s[layer] / ops
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
    return out


# -- sim-time self-time from spans -----------------------------------------

def _covered(start: float, end: float, children: list) -> float:
    """Length of ``[start, end]`` covered by the union of child spans."""
    covered, cursor = 0.0, start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, cursor), min(child.end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def fold_spans(spans: list, since: float, ops: int) -> dict:
    """``<layer>.sim_self_ms_per_op`` over spans started in the timed
    phase (``start >= since``), plus ``trace.spans_per_op``."""
    timed = [s for s in spans if s.start >= since]
    children: dict[int, list] = {}
    for span in timed:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    self_s = dict.fromkeys(SPAN_METRIC_LAYERS, 0.0)
    for span in timed:
        layer = SPAN_LAYERS.get(span.cat)
        if layer is None:
            continue
        kids = children.get(span.span_id)
        own = span.end - span.start
        if kids:
            own -= _covered(span.start, span.end, kids)
        self_s[layer] += own
    out = {f"{layer}.sim_self_ms_per_op": 1e3 * self_s[layer] / ops
           for layer in SPAN_METRIC_LAYERS}
    out["trace.spans_per_op"] = len(timed) / ops
    return out
