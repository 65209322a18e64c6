"""Elastic autoscaler under a flash crowd: scale up, absorb, scale down.

One scenario, run twice — the PR-6 flash-crowd shape (steady load in
every region, one region spiking ``CROWD_MULTIPLIER``x) against:

* **autoscaled** — a 1-shard namespace with an
  :class:`~repro.core.global_policy.AutoscaleSpec` attached; the
  controller must grow the shard count toward demand and shrink it back
  once the crowd passes.
* **static** — the identical topology pinned at 1 shard, the
  do-nothing baseline the autoscaler has to beat.

A dedicated verification writer (its own client, retries enabled) runs
through the whole scenario recording acknowledged versions; every acked
write must be durable and readable at the end, rebalances included.

Bounds (CI runs them quick, through ``benchmarks/gates.py autoscale``):

* peak shard count >= MIN_PEAK_SCALE x the initial count (the
  controller reacted);
* the first scale-down lands within SCALE_DOWN_WINDOW_LIMIT decision
  windows of the crowd subsiding (it also relaxes);
* zero acked-write loss across every rebalance;
* every replica of a key at one newest stamp and no lock held, once the
  run is over and one anti-entropy round has run (``check_quiescent``);
* the static baseline sheds (the crowd saturated one shard), and the
  autoscaled run sheds < STATIC_SHED_FRACTION of what it sheds
  (elasticity actually absorbed the crowd);
* both cells are offered the same load: they launch the same one-shard
  namespace, and only the controller tells them apart.

``benchmarks/gates.py`` writes the result to
``results/BENCH_autoscale.json`` (committed from a quick run).
"""

from __future__ import annotations

import time

from repro.bench.harness import build_deployment
from repro.bench.openloop import preload_records, scaleout_workload
from repro.core.global_policy import (
    AutoscaleSpec,
    GlobalPolicySpec,
    RegionPlacement,
)
from repro.faults.retry import RetryPolicy
from repro.load.arrivals import flash_crowd_rate
from repro.load.cohort import CohortSpec
from repro.net.topology import US_EAST, US_WEST
from repro.obs.check import check_quiescent
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST)

#: gate: peak shards / initial shards during the crowd
MIN_PEAK_SCALE = 2.0

#: gate: decision windows between the crowd subsiding and the first
#: scale-down (cooldown + calm streak make ~4 the theoretical floor)
SCALE_DOWN_WINDOW_LIMIT = 8

#: gate: autoscaled total shed / static total shed must stay below this
STATIC_SHED_FRACTION = 0.5

#: the crowd region's offered rate spikes this many x over base — sized
#: so the crowd (4 x 300 = 1200 ops/s of 64 KB reads) saturates one host
#: ~3x over but fits inside max_shards=4 hosts' egress (~430 ops/s each);
#: a crowd no shard count can absorb would gate on physics, not control
CROWD_MULTIPLIER = 4.0


def _params(quick: bool) -> dict:
    return {
        "base_rate": 300.0,            # ops/sec per region, steady
        "at": 30.0, "rise": 10.0,
        # The hold must dwarf the controller's reaction time (~2 decision
        # windows + one scale-up burst), or the static baseline gets a
        # discount for a crowd that ends before anyone could react.
        "hold": 60.0 if quick else 90.0,
        "fall": 20.0,
        "duration": 170.0 if quick else 270.0,
        # 64 KB values (the scale-out workload): per-host egress is the
        # binding resource, so one shard genuinely saturates ~1000 ops/s
        # and the static baseline sheds — the behavior the crowd must hit
        # for the shed comparison to mean anything.
        "value_size": 65536,
        "record_count": 100,
        "decision_interval": 5.0,
    }


def _autoscale_spec(p: dict) -> AutoscaleSpec:
    # target_per_shard comes from the scale-out bench calibration: one
    # shard on one host per region absorbs ~1000 ops/s of 64 KB reads;
    # with 8 KB values we stay conservative at 800.
    return AutoscaleSpec(target_per_shard=800.0,
                         decision_interval=p["decision_interval"],
                         cooldown=5.0, scale_down_windows=2,
                         min_shards=1, max_shards=4)


def _run_cell(p: dict, autoscaled: bool, seed: int = 11) -> dict:
    workload = scaleout_workload(record_count=p["record_count"],
                                 value_size=p["value_size"])
    aspec = _autoscale_spec(p) if autoscaled else None
    dep = build_deployment(list(REGIONS), seed=seed, shards=1,
                           servers_per_region=4, autoscale=aspec)
    spec = GlobalPolicySpec(
        name="as",
        placements=tuple(RegionPlacement(r, memory_only_policy())
                         for r in REGIONS),
        consistency="eventual")
    handle = dep.start_sharded_instance("as", spec)
    preload_records(dep, handle, workload)
    scaler = dep.autoscalers.get("as")

    for region in REGIONS:
        rate_fn, peak = flash_crowd_rate(
            p["base_rate"], CROWD_MULTIPLIER if region == REGIONS[0] else 1.0,
            p["at"], rise=p["rise"], hold=p["hold"], fall=p["fall"])
        dep.add_cohort(
            CohortSpec(name=f"fc-{region}", region=region,
                       users=int(p["base_rate"] * 10), rate_per_user=0.1,
                       workload=workload, rate_fn=rate_fn, peak_rate=peak,
                       max_in_flight=64, queue_limit=256),
            sharded=handle)

    # The verification writer: every acked version must survive.
    writer_client = dep.add_client(
        REGIONS[1], name="verify-writer", sharded=handle,
        request_timeout=2.0,
        retry_policy=RetryPolicy(max_attempts=6, base_delay=0.2,
                                 max_delay=2.0, jitter=0.0))
    acked: dict[str, int] = {}
    stop = [False]

    def writer():
        i = 0
        while not stop[0]:
            key = f"verify{i % 25}"
            try:
                result = yield from writer_client.put(
                    key, bytes([i % 251]) * 256)
                acked[key] = max(acked.get(key, 0), result["version"])
            except Exception:
                pass   # unacknowledged: allowed to be lost
            i += 1
            yield dep.sim.timeout(0.25)
    dep.sim.process(writer(), name="verify-writer")

    started_wall = time.perf_counter()
    report = dep.load.run(p["duration"], grace=2.0)
    stop[0] = True
    if scaler is not None:
        scaler.stop()
    dep.sim.run(until=dep.sim.now + 15.0)   # replication settles
    wall = time.perf_counter() - started_wall

    # Zero-loss audit: the owning shard must hold every acked version.
    lost = []
    shard_map = dep.wiera.get_shard_map("as")
    for key, version in sorted(acked.items()):
        best = -1
        for rec in dep.wiera.tim(shard_map.owner(key)).instances.values():
            record = rec.instance.meta.get_record(key)
            if record is not None and record.latest_version is not None:
                best = max(best, record.latest_version)
        if best < version:
            lost.append((key, version, best))

    def verify_reads():
        bad = []
        for key in sorted(acked):
            result = yield from writer_client.get(key)
            if result["version"] < acked[key]:
                bad.append(key)
        return bad
    unreadable = dep.drive(verify_reads())

    out = {
        "autoscaled": autoscaled,
        "offered": report["offered"],
        "achieved": report["achieved"],
        "shed": report["shed"],
        "errors": report["errors"],
        "acked_writes": len(acked),
        "lost_acked_writes": len(lost),
        "unreadable_acked_writes": len(unreadable),
        "wall_seconds": round(wall, 2),
    }
    # After everything above is measured: one anti-entropy round, then
    # the replicas and the locks are judged at quiescence.
    out["quiescence_violations"] = len(check_quiescent(dep))
    if scaler is not None:
        crowd_over = p["at"] + p["rise"] + p["hold"] + p["fall"]
        downs = [d.time for d in scaler.decisions
                 if d.action == "scale_down"]
        out.update({
            "initial_shards": 1,
            "peak_shards": max((d.shards for d in scaler.decisions),
                               default=1),
            "final_shards": scaler.shards,
            "scale_ups": sum(1 for d in scaler.decisions
                             if d.action == "scale_up"),
            "scale_downs": len(downs),
            "crowd_over_at": crowd_over,
            "first_scale_down_at": downs[0] if downs else None,
            "scale_down_windows_after_crowd": (
                round((downs[0] - crowd_over) / p["decision_interval"], 1)
                if downs else None),
            "decisions": scaler.audit(),
        })
    return out


def run(quick: bool = False) -> dict:
    p = _params(quick)
    autoscaled = _run_cell(p, autoscaled=True)
    static = _run_cell(p, autoscaled=False)
    autoscaled["peak_scale"] = (autoscaled["peak_shards"]
                                / autoscaled["initial_shards"])
    # A baseline that never sheds means the crowd never saturated one
    # shard — surface that as an infinite ratio so the gate fails loudly
    # instead of passing vacuously.
    shed_ratio = (autoscaled["shed"] / static["shed"]
                  if static["shed"] else float("inf"))
    return {
        "benchmark": "autoscale",
        "quick": quick,
        "scenario": {
            "shape": "flash_crowd",
            "crowd_multiplier": CROWD_MULTIPLIER,
            "regions": list(REGIONS),
            **p,
        },
        "autoscaled": autoscaled,
        "static": static,
        "shed_ratio_vs_static": round(shed_ratio, 4),
    }


BOUNDS = (
    ("peak shards / initial shards", "autoscaled.peak_scale", ">=",
     MIN_PEAK_SCALE),
    ("decision windows from the crowd subsiding to the first scale-down",
     "autoscaled.scale_down_windows_after_crowd", "<=",
     SCALE_DOWN_WINDOW_LIMIT),
    ("autoscaled lost acked writes", "autoscaled.lost_acked_writes", "==", 0),
    ("autoscaled unreadable acked writes",
     "autoscaled.unreadable_acked_writes", "==", 0),
    ("static lost acked writes", "static.lost_acked_writes", "==", 0),
    ("static unreadable acked writes", "static.unreadable_acked_writes",
     "==", 0),
    ("static baseline shed", "static.shed", ">", 0),
    ("autoscaled offered == static offered", "autoscaled.offered", "==",
     "static.offered"),
    ("autoscaled violations at quiescence",
     "autoscaled.quiescence_violations", "==", 0),
    ("static violations at quiescence", "static.quiescence_violations",
     "==", 0),
    ("autoscaled shed / static shed", "shed_ratio_vs_static", "<",
     STATIC_SHED_FRACTION),
)


def summary(result: dict) -> str:
    auto, static = result["autoscaled"], result["static"]
    lines = [f"flash crowd ({CROWD_MULTIPLIER:.0f}x in {REGIONS[0]}): "
             f"shards {auto['initial_shards']} -> {auto['peak_shards']} -> "
             f"{auto['final_shards']}",
             f"{'cell':>10} {'offered':>9} {'achieved':>9} {'shed':>7} "
             f"{'acked':>6} {'lost':>5}"]
    for cell, tag in ((auto, "autoscaled"), (static, "static")):
        lines.append(f"{tag:>10} {cell['offered']:>9} {cell['achieved']:>9} "
                     f"{cell['shed']:>7} {cell['acked_writes']:>6} "
                     f"{cell['lost_acked_writes']:>5}")
    lines.append(f"shed vs static: {result['shed_ratio_vs_static']:.0%}")
    return "\n".join(lines)
