"""EC cost/latency frontier: EC(4,2) vs 3x replication + CI gate.

Runs the same write/read workload against a 6-site deployment (four
regions on the primary provider plus two second-provider sites) under
two redundancy schemes with *equal durability* (both survive any two
site losses):

* **rep3** — ``RedundancySpec(k=1, m=2)``: plain 3x replication.
* **ec42** — ``RedundancySpec(k=4, m=2)``: Reed-Solomon, 1.5x overhead.

For each cell it measures the two axes the redundancy plane trades off:

* **dollars** — monthly storage cost at the bytes actually resident in
  the tiers (price book), plus the inter-region egress the run billed to
  the deployment :class:`CostLedger`.
* **latency** — clean read p99, and *degraded* read p99 while one
  fragment-holding host is crashed (EC must reconstruct from parity).

It also reports what the :class:`RedundancyOptimizer` *predicts* for the
same schemes, so the analytical model can be eyeballed against the
simulated outcome.  Each cell asserts the history checker
(:mod:`repro.obs.check`) over its client's ops, and counts what
``check_quiescent`` finds once the crash is over and one repair round
has run.

The gate (``benchmarks/gates.py ec_frontier``) fails when EC's monthly
storage dollars stop beating replication's by MIN_STORAGE_RATIO at equal
durability, when the crash phase records no degraded read, when the
degraded-read p99 exceeds DEGRADED_P99_BUDGET, when a cell is not
quiescent at its end, or — in a quick run — when
it drifts more than DEGRADED_P99_DRIFT x past DEGRADED_P99_QUICK_PIN.
``benchmarks/gates.py`` writes the result to
``results/BENCH_ec_frontier.json`` (committed from a ``--full`` run).
"""

from __future__ import annotations

import dataclasses
import time

from repro.bench.harness import build_deployment
from repro.core.global_policy import (GlobalPolicySpec, RedundancySpec,
                                      RegionPlacement)
from repro.ec.optimizer import RedundancyOptimizer
from repro.ec.protocol import decode_manifest
from repro.net.topology import (ASIA_EAST, EU_WEST, US_EAST, US_WEST,
                                Topology)
from repro.obs.check import check, check_quiescent
from repro.tiera.policy import disk_only_policy
from repro.util.units import GB

REGIONS = (US_EAST, US_WEST, EU_WEST, ASIA_EAST)
#: six (region, provider) sites so EC(4,2)'s n=6 fragments all land on
#: distinct instances
SITES = ((US_EAST, "aws"), (US_WEST, "aws"), (EU_WEST, "aws"),
         (ASIA_EAST, "aws"), (US_EAST, "gcp"), (US_WEST, "gcp"))
PROVIDERS = {US_EAST: ("aws", "gcp"), US_WEST: ("aws", "gcp"),
             EU_WEST: ("aws",), ASIA_EAST: ("aws",)}

#: gate: rep3 monthly storage dollars must exceed ec42's by this factor
#: (theory: 3x vs 1.5x overhead -> ratio 2.0; manifests and fragment
#: padding eat a little of it)
MIN_STORAGE_RATIO = 1.5

#: gate: the degraded-read p99 (one fragment host down) must not exceed
#: this many simulated seconds
DEGRADED_P99_BUDGET = 2.0

#: ec42's degraded-read p99 in a quick run, pinned; a quick run fails
#: when it exceeds DEGRADED_P99_DRIFT x this.  Re-pin by editing the value
#: in the commit that moves it, with the evidence.
DEGRADED_P99_QUICK_PIN = 0.1432
DEGRADED_P99_DRIFT = 1.25


def _p99(samples: list[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _cell(redundancy: RedundancySpec, objects: int, value_size: int,
          reads: int, seed: int) -> dict:
    dep = build_deployment(list(REGIONS), providers=PROVIDERS,
                           with_ledger=True, seed=seed)
    spec = GlobalPolicySpec(
        name="ec",
        placements=tuple(
            RegionPlacement(region, disk_only_policy(profile="s3"),
                            provider=provider)
            for region, provider in SITES),
        consistency="eventual",
        redundancy=redundancy)
    instances = dep.start_wiera_instance("ec", spec)
    tim = dep.tim("ec")
    client = dep.add_client(US_EAST, instances=instances)
    payload = b"x" * value_size

    put_latencies: list[float] = []
    read_latencies: list[float] = []
    degraded_latencies: list[float] = []
    started_wall = time.perf_counter()

    def write_phase():
        for i in range(objects):
            res = yield from client.put(f"obj{i}", payload)
            put_latencies.append(res["latency"])
    dep.drive(write_phase())

    def read_phase(sink, count):
        def gen():
            for i in range(count):
                res = yield from client.get(f"obj{i % objects}")
                assert res["data"] == payload
                sink.append(res["latency"])
        dep.drive(gen())

    read_phase(read_latencies, reads)

    # knock out the holder of fragment 1 of obj0 (never the coordinator,
    # which holds fragment 0) and read through the outage
    coordinator = dep.instance("ec", US_EAST)
    manifest = decode_manifest(dep.drive(
        coordinator.read_version("obj0", run_rules=False))[0])
    victim = tim.instances[manifest["frags"][1]].instance.host
    faults = dep.fault_schedule("frontier")
    crash_for = 1000.0
    faults.crash(at=dep.sim.now + 0.1, host=victim.name, duration=crash_for)
    faults.start()
    dep.sim.run(until=dep.sim.now + 0.2)
    read_phase(degraded_latencies, reads)
    dep.sim.run(until=dep.sim.now + crash_for)  # recover before teardown
    # every op was coordinated at fragment 0's holder: all five rules hold
    check([client.history], faults=[faults]).assert_holds()

    wall = time.perf_counter() - started_wall
    stored_bytes = 0
    monthly_storage = 0.0
    for rec in tim.instances.values():
        for backend in rec.instance.tiers.values():
            stored_bytes += backend.used_bytes
            monthly_storage += (backend.used_bytes / GB
                                * backend.profile.storage_price)
    n = redundancy.k + redundancy.m
    cell = {
        "scheme": f"EC({redundancy.k},{redundancy.m})",
        "k": redundancy.k,
        "m": redundancy.m,
        "overhead": round(n / redundancy.k, 2),
        "objects": objects,
        "value_size": value_size,
        "payload_bytes": objects * value_size,
        "stored_bytes": stored_bytes,
        "monthly_storage_dollars": round(monthly_storage, 6),
        "egress_dollars": round(dep.ledger.network_dollars(), 6),
        "put_p99": round(_p99(put_latencies), 4),
        "read_p99": round(_p99(read_latencies), 4),
        "degraded_read_p99": round(_p99(degraded_latencies), 4),
        "degraded_reads": int(dep.metric_total("ec.degraded_reads")),
        "wall_seconds": round(wall, 4),
    }
    # After everything above is measured: one repair round, then the
    # replicas, the fragments and the locks are judged at quiescence.
    cell["quiescence_violations"] = len(check_quiescent(dep))
    return cell


def optimizer_estimates(cold_bytes: int = 1 << 30) -> dict:
    """What the analytical model predicts for the same two schemes on
    the workload EC is *for*: a cold archive (default 1 GiB) touched
    about once a month.  At that point storage dollars dominate request
    and egress dollars and EC(4,2) wins; hotter profiles flip the choice
    back to replication (the per-object optimizer exists precisely to
    draw that line)."""
    topo = Topology()
    site_region = {f"{r}+{p}": r for r, p in SITES}

    def rtt(a: str, b: str) -> float:
        ra, rb = site_region.get(a, a), site_region.get(b, b)
        if ra == rb:
            return 0.0 if a == b else 2 * topo.cross_provider_same_region
        return topo.rtt(ra, "aws", rb, "aws")

    spec = RedundancySpec(candidates=((1, 2), (2, 2), (4, 2)))
    opt = RedundancyOptimizer(spec, tuple(site_region), rtt, tier="s3")
    out = {"profile": {"size_bytes": cold_bytes, "reads_per_month": 1,
                       "writes_per_month": 1}}
    for k, m in ((1, 2), (4, 2)):
        est = opt.evaluate(k, m, cold_bytes,
                           reads_per_month=1, writes_per_month=1,
                           reader_region=f"{US_EAST}+aws")
        out[f"EC({k},{m})"] = dataclasses.asdict(est)
    plan = opt.choose(size=cold_bytes, reads_per_month=1,
                      writes_per_month=1,
                      reader_region=f"{US_EAST}+aws")
    out["chosen"] = f"EC({plan.chosen.k},{plan.chosen.m})"
    return out


def run(quick: bool = False) -> dict:
    objects = 32 if quick else 128
    value_size = 16384 if quick else 65536
    reads = 64 if quick else 256
    rep3 = _cell(RedundancySpec(k=1, m=2), objects, value_size, reads,
                 seed=23)
    ec42 = _cell(RedundancySpec(k=4, m=2), objects, value_size, reads,
                 seed=23)
    return {
        "benchmark": "ec_frontier",
        "quick": quick,
        "sites": [f"{r}/{p}" for r, p in SITES],
        "rep3": rep3,
        "ec42": ec42,
        "storage_dollars_ratio": round(
            rep3["monthly_storage_dollars"]
            / max(ec42["monthly_storage_dollars"], 1e-12), 2),
        "degraded_read_penalty": round(
            ec42["degraded_read_p99"] / max(ec42["read_p99"], 1e-9), 2),
        "optimizer": optimizer_estimates(),
    }


BOUNDS = (
    ("rep3 / ec42 monthly storage dollars", "storage_dollars_ratio", ">=",
     MIN_STORAGE_RATIO),
    ("ec42 degraded-read p99 (s)", "ec42.degraded_read_p99", "<=",
     DEGRADED_P99_BUDGET),
    ("ec42 degraded reads", "ec42.degraded_reads", ">", 0),
    ("rep3 violations at quiescence", "rep3.quiescence_violations", "==", 0),
    ("ec42 violations at quiescence", "ec42.quiescence_violations", "==", 0),
    (f"ec42 degraded-read p99 (s) within {DEGRADED_P99_DRIFT}x the "
     "quick pin", "ec42.degraded_read_p99", "<=",
     {"quick": DEGRADED_P99_DRIFT * DEGRADED_P99_QUICK_PIN}),
)


def summary(result: dict) -> str:
    rep3, ec42 = result["rep3"], result["ec42"]
    return "\n".join((
        f"storage: rep3 ${rep3['monthly_storage_dollars']}/mo -> "
        f"ec42 ${ec42['monthly_storage_dollars']}/mo "
        f"({result['storage_dollars_ratio']}x cheaper, both survive "
        "2 site losses)",
        f"reads  : clean p99 {rep3['read_p99']}s vs {ec42['read_p99']}s, "
        f"degraded p99 {rep3['degraded_read_p99']}s vs "
        f"{ec42['degraded_read_p99']}s "
        f"({result['degraded_read_penalty']}x clean)",
        f"egress : rep3 ${rep3['egress_dollars']} vs "
        f"ec42 ${ec42['egress_dollars']}",
        f"optimizer chose {result['optimizer']['chosen']}"))
