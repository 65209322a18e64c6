"""The four benchmark workloads, built on the public ``repro`` API only.

Each workload is three functions over one context dict:

* ``build(seed, quick, tracing)`` — everything up to the first timed
  event (deployment, instances, preload, clients/cohorts); its wall time
  is ``setup_s``;
* ``run(ctx)`` — the timed phase;
* ``check(ctx)`` — untimed correctness checks, returning a list of
  human-readable violations (empty = correct).

Construction deliberately does not go through ``repro.bench.openloop``
or ``benchmarks/*``: a later refactor of those must not be able to
change what a workload is.  Sizes are fixed constants, never derived
from ``--seconds``, so every exact and sim-clock number repeats for a
given seed.

Every client operation goes through :class:`OpLog`, which wraps
``client.get/put`` on the client *instance*, stamps issue and completion
with ``sim.now`` and keeps the full per-op latency sample (the
``obs.Histogram`` ring keeps only the last 2048).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import (GlobalPolicySpec, RedundancySpec, RegionPlacement,
                   build_deployment)
from repro.bench.harness import preload_object
from repro.ec.protocol import decode_manifest
from repro.load.arrivals import constant_rate
from repro.load.cohort import CohortSpec, ack_token
from repro.net.topology import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import (disk_only_policy, memory_only_policy,
                                write_back_policy)
from repro.workloads.ycsb import YcsbWorkload


class OpLog:
    """Full per-op record of one rep: latencies, errors, acked writes.

    ``expect`` maps key -> payload the next get must return (EC workload)
    or is None, in which case a get is only checked for ``value_size``.
    With a live tracer each op runs under its own root span (cat ``op``),
    so the span fold can attribute sim-time below it.
    """

    def __init__(self, sim, tracer=None, value_size=None, expect=None):
        self.sim = sim
        self.tracer = tracer if tracer is not None and tracer.enabled else None
        self.value_size = value_size
        self.expect = expect
        self.latency = {"get": [], "put": []}
        #: latencies of gets issued while ``phase`` was set, by phase
        self.by_phase: dict[str, list] = {}
        self.phase = None
        self.errors_by_type: dict[str, int] = {}
        self.wrong_reads = 0
        self.acked: dict[str, int] = {}     # key -> highest acked version
        self.acked_digest = 0

    def _wrong(self, key: str, data) -> bool:
        if self.expect is not None:
            return data != self.expect.get(key)
        return data is None or len(data) != self.value_size

    def wrap(self, client) -> None:
        """Route ``client.get/put`` through the log (instance attributes,
        so cohorts and drivers holding this client pick them up)."""
        inner_get, inner_put = client.get, client.put

        def get(key):
            result = yield from self._timed("get", key, inner_get(key))
            self.wrong_reads += self._wrong(key, result.get("data"))
            return result

        def put(key, data, tags=()):
            result = yield from self._timed("put", key,
                                            inner_put(key, data, tags))
            version = result.get("version")
            self.acked_digest ^= ack_token(key, version)
            if version is not None and version > self.acked.get(key, 0):
                self.acked[key] = version
            return result

        client.get, client.put = get, put

    def _timed(self, kind: str, key: str, call):
        start = self.sim.now
        span = (self.tracer.span(f"op:{kind}", cat="op", key=key)
                if self.tracer is not None else None)
        try:
            result = yield from call
        except Exception as exc:
            kind = type(exc).__name__
            self.errors_by_type[kind] = self.errors_by_type.get(kind, 0) + 1
            raise
        finally:
            if span is not None:
                span.finish()
        elapsed = self.sim.now - start
        self.latency[kind].append(elapsed)
        if self.phase is not None and kind == "get":
            self.by_phase.setdefault(self.phase, []).append(elapsed)
        return result

    @property
    def completed(self) -> int:
        return len(self.latency["get"]) + len(self.latency["put"])


# -- shared construction helpers ------------------------------------------

def _deployment(regions, seed, tracing, **kw):
    return build_deployment(list(regions), seed=seed, with_ledger=True,
                            with_tracing=tracing, **kw)


def _holders(dep, handle, key):
    """In-proc instances of the replica group that owns ``key``."""
    owner = handle.base_id if handle.map is None else handle.map.owner(key)
    return [rec.instance for rec in dep.tim(owner).instances.values()
            if not rec.down]


def _preload(dep, handle, workload, rng):
    for i in range(workload.record_count):
        key = workload.key(i)
        preload_object(_holders(dep, handle, key), key,
                       rng.bytes(workload.value_size))


def _replica_violations(dep, handle, oplog) -> list[str]:
    """Replicas of each namespace expose the same latest version of every
    key (same contents for written keys), and every acked put's version
    is present on all of them."""
    state: dict[str, dict[str, dict[str, tuple]]] = {}
    for row in dep.store_rows(detail=True):
        head, _, value = row.rpartition("=v")
        ns, iid, key = head.split("/", 2)
        version, _, contents = value.partition("@")
        # preloaded (never written) rows carry the local instance as
        # origin, so their contents field legitimately differs
        state.setdefault(ns, {}).setdefault(iid, {})[key] = (
            int(version), contents if key in oplog.acked else "")
    problems = []
    for ns, replicas in sorted(state.items()):
        views = list(replicas.values())
        if any(view != views[0] for view in views[1:]):
            problems.append(f"{ns}: replicas diverged after the drain")
    for key, version in oplog.acked.items():
        ns = handle.base_id if handle.map is None else handle.map.owner(key)
        for iid, view in state.get(ns, {}).items():
            held = view.get(key, (0, ""))[0]
            if held < version:
                problems.append(f"{iid}: {key} at v{held}, acked v{version}")
    return problems


def _oplog_violations(oplog) -> list[str]:
    return ([f"{oplog.wrong_reads} gets returned wrong data"]
            if oplog.wrong_reads else [])


# -- open-loop workloads --------------------------------------------------

class Strided:
    """Chooser over the residue class ``offset (mod stride)`` of the
    record space: the keys one writer owns."""

    def __init__(self, inner, stride: int, offset: int):
        self.inner, self.stride, self.offset = inner, stride, offset

    def next(self) -> int:
        return self.inner.next() * self.stride + self.offset


@dataclass(frozen=True)
class OpenLoop:
    regions: tuple
    offered: float          # ops/sim-s over all regions
    read_share: float
    duration: float         # sim-s of arrivals
    grace: float            # sim-s of drain after arrivals stop
    max_in_flight: int = 128
    queue_limit: int = 512


def _attach_cohorts(dep, handle, records: YcsbWorkload, shape: OpenLoop,
                    oplog) -> None:
    """One get cohort and one put cohort per region (their superposition
    is one Poisson stream with the stated mix).  Gets draw from the whole
    record space; each region's puts draw from its own residue class of
    it, because two regions writing one key inside a replication window
    mint the same version number and the last-write-wins rewrite fails
    any get that races it (perf/README.md, known state)."""
    stride = len(shape.regions)
    per_region = shape.offered / stride
    own = replace(records, record_count=records.record_count // stride)
    for offset, region in enumerate(shape.regions):
        for op, share, workload, chooser in (
                ("get", shape.read_share,
                 replace(records, read_prop=1.0, update_prop=0.0), None),
                ("put", 1.0 - shape.read_share,
                 replace(records, read_prop=0.0, update_prop=1.0),
                 lambda rng, sim, offset=offset:
                     Strided(own.chooser(rng), stride, offset))):
            rate_fn, peak = constant_rate(per_region * share)
            cohort = dep.add_cohort(
                CohortSpec(name=f"{op}-{region}", region=region,
                           users=max(1, round(peak * 10)), rate_per_user=0.1,
                           workload=workload, rate_fn=rate_fn, peak_rate=peak,
                           max_in_flight=shape.max_in_flight,
                           queue_limit=shape.queue_limit,
                           chooser_factory=chooser),
                sharded=handle)
            oplog.wrap(cohort.client)


def _start_open(dep, spec, workload, shape: OpenLoop) -> dict:
    handle = dep.start_sharded_instance(spec.name, spec)
    _preload(dep, handle, workload, dep.rng.stream("perf.preload"))
    oplog = OpLog(dep.sim, dep.obs.tracer, value_size=workload.value_size)
    _attach_cohorts(dep, handle, workload, shape, oplog)
    return {"dep": dep, "handle": handle, "oplog": oplog, "shape": shape}


def _run_open(ctx) -> None:
    shape = ctx["shape"]
    ctx["dep"].load.run(shape.duration, grace=shape.grace)


def _open_accounting(ctx) -> None:
    """attempted/failed for an open loop: every offered arrival counts,
    and one that was shed, discarded, errored or never finished failed."""
    oplog = ctx["oplog"]
    reports = [c.report() for c in ctx["dep"].load.cohorts]
    offered = sum(r["offered"] for r in reports)
    ctx["attempted"] = offered
    ctx["offered_expected"] = ctx["shape"].offered * ctx["shape"].duration
    ctx["failed"] = offered - oplog.completed + oplog.wrong_reads
    ctx["cohort_reports"] = reports


def _check_open(ctx) -> list[str]:
    dep, oplog = ctx["dep"], ctx["oplog"]
    problems = _oplog_violations(oplog)
    for cohort, report in zip(dep.load.cohorts, ctx["cohort_reports"]):
        stats, name = cohort.stats, cohort.spec.name
        if not stats.reconciles(queued=cohort.queued):
            problems.append(f"{name}: offered != dispatched+shed+discarded")
        if cohort.in_flight:
            problems.append(f"{name}: {cohort.in_flight} ops still in "
                            "flight after the grace period")
        delay = report["queue_delay"]["max"]
        if delay != 0 or stats.shed or stats.discarded:
            problems.append(
                f"{name}: launch != arrival (queue delay max {delay}, "
                f"shed {stats.shed}, discarded {stats.discarded})")
    problems += _replica_violations(dep, ctx["handle"], oplog)
    return problems


def build_ol_read(seed: int, quick: bool, tracing: bool) -> dict:
    shape = OpenLoop(regions=(US_EAST, US_WEST), offered=4000.0,
                     read_share=0.95, duration=2.0 if quick else 10.0,
                     grace=2.5)
    workload = YcsbWorkload(record_count=200, value_size=65536,
                            distribution="uniform")
    dep = _deployment(shape.regions, seed, tracing, shards=8,
                      servers_per_region=8)
    spec = GlobalPolicySpec(
        name="olr",
        placements=tuple(RegionPlacement(region, memory_only_policy())
                         for region in shape.regions),
        consistency="eventual")
    return _start_open(dep, spec, workload, shape)


def build_ol_write(seed: int, quick: bool, tracing: bool) -> dict:
    shape = OpenLoop(regions=(US_EAST, US_WEST, EU_WEST), offered=3000.0,
                     read_share=0.5, duration=2.0 if quick else 10.0,
                     grace=2.0)
    workload = YcsbWorkload(record_count=2001, value_size=1024,
                            distribution="zipfian", zipf_theta=0.99)
    dep = _deployment(shape.regions, seed, tracing)
    spec = GlobalPolicySpec(
        name="olw",
        placements=tuple(RegionPlacement(region, write_back_policy())
                         for region in shape.regions),
        consistency="eventual", queue_interval=0.25, batch_bytes=65536)
    return _start_open(dep, spec, workload, shape)


# -- closed loop under global locks ---------------------------------------

#: Clients per region.  Uneven on purpose: a put costs ~77 ms from
#: us-east (the lock service's region) and ~286 ms from us-west, with next
#: to no variation inside either mode, so an even split parks put_p50 on
#: the step between them and it flips from seed to seed.  With 10 + 6 the
#: median sits in the near mode and the p99 in the far one.
CL_CLIENTS = ((US_EAST, 10), (US_WEST, 6))
#: put keys are split into this many residue classes, one per client index
CL_WRITE_CLASSES = 10
CL_THINK = 0.010


def build_cl_lock(seed: int, quick: bool, tracing: bool) -> dict:
    regions = tuple(region for region, _ in CL_CLIENTS)
    ops_per_client = 25 if quick else 1000
    workload = YcsbWorkload.workload_a(record_count=4000, value_size=256,
                                       distribution="uniform")
    dep = _deployment(regions, seed, tracing, shards=4)
    spec = GlobalPolicySpec(
        name="cll",
        placements=tuple(RegionPlacement(region, write_back_policy())
                         for region in regions),
        consistency="multi_primaries")
    handle = dep.start_sharded_instance("cll", spec)
    _preload(dep, handle, workload, dep.rng.stream("perf.preload"))
    oplog = OpLog(dep.sim, dep.obs.tracer, value_size=workload.value_size)

    own = replace(workload,
                  record_count=workload.record_count // CL_WRITE_CLASSES)

    def driver(client, rng, index):
        # Gets cover the whole record space; a client's puts stay in its
        # own residue class, so lock contention is between the regions
        # (the modeled cost) and never between two puts through one
        # instance, which today trips GlobalLockClient (perf/README.md).
        reads = workload.chooser(rng)
        writes = Strided(own.chooser(rng), CL_WRITE_CLASSES, index)
        for _ in range(ops_per_client):
            try:
                if rng.random() < workload.read_prop:
                    yield from client.get(workload.key(reads.next()))
                else:
                    yield from client.put(workload.key(writes.next()),
                                          workload.value(rng))
            except Exception:
                pass    # typed and counted by the OpLog
            yield dep.sim.timeout(float(rng.exponential(CL_THINK)))

    drivers = []
    for region, clients in CL_CLIENTS:
        for i in range(clients):
            name = f"cl-{region}-{i}"
            client = dep.add_client(region, name=name, sharded=handle)
            oplog.wrap(client)
            drivers.append(driver(client, dep.rng.substream("perf.cl", name),
                                  i))
    return {"dep": dep, "handle": handle, "oplog": oplog, "drivers": drivers,
            "attempted": ops_per_client * len(drivers)}


def _run_cl_lock(ctx) -> None:
    sim = ctx["dep"].sim
    procs = [sim.process(gen, name="perf-driver") for gen in ctx["drivers"]]
    sim.run(until=sim.all_of(procs))


def _closed_accounting(ctx) -> None:
    oplog = ctx["oplog"]
    ctx["failed"] = ctx["attempted"] - oplog.completed + oplog.wrong_reads


def _check_cl_lock(ctx) -> list[str]:
    return (_oplog_violations(ctx["oplog"])
            + _replica_violations(ctx["dep"], ctx["handle"], ctx["oplog"]))


# -- erasure-coded put / get / degraded get / repair ----------------------

EC_K, EC_M = 4, 2
#: 4 regions x (aws, gcp): six fragment holders plus two spares, so the
#: repair round has somewhere to re-home the lost fragment
EC_REGIONS = (US_EAST, US_WEST, EU_WEST, ASIA_EAST)
EC_PROVIDERS = ("aws", "gcp")


def build_ec_mixed(seed: int, quick: bool, tracing: bool) -> dict:
    objects = 32 if quick else 512
    value_size = 65536
    dep = _deployment(EC_REGIONS, seed, tracing,
                      providers={r: EC_PROVIDERS for r in EC_REGIONS})
    spec = GlobalPolicySpec(
        name="ecm",
        placements=tuple(
            RegionPlacement(region, disk_only_policy(profile="s3"),
                            provider=provider)
            for region in EC_REGIONS for provider in EC_PROVIDERS),
        consistency="eventual",
        redundancy=RedundancySpec(k=EC_K, m=EC_M, repair_interval=1e9,
                                  repair_concurrency=8))
    instances = dep.start_wiera_instance("ecm", spec)
    client = dep.add_client(US_EAST, instances=instances)
    rng = dep.rng.stream("perf.ec")
    keys = [f"obj{i}" for i in range(objects)]
    first = {key: rng.bytes(value_size) for key in keys}
    last = {key: rng.bytes(value_size) for key in keys}
    expect: dict[str, bytes] = {}
    oplog = OpLog(dep.sim, dep.obs.tracer, expect=expect)
    oplog.wrap(client)
    # Seeded passes over every key: three clean, one degraded.  Uneven on
    # purpose: with as many degraded as clean gets the pooled get_p50
    # falls in the gap between the two modes and measures neither.
    def passes(n):
        return [keys[i] for _ in range(n) for i in rng.permutation(objects)]
    reads = [passes(3), passes(1)]
    return {"dep": dep, "oplog": oplog, "client": client, "keys": keys,
            "first": first, "last": last, "expect": expect, "reads": reads,
            "attempted": 6 * objects}


def _run_ec_mixed(ctx) -> None:
    dep, client, oplog = ctx["dep"], ctx["client"], ctx["oplog"]
    expect, keys = ctx["expect"], ctx["keys"]

    def ops(phase, op, pairs):
        oplog.phase = phase
        for key, value in pairs:
            try:
                if op == "put":
                    yield from client.put(key, value)
                    expect[key] = value
                else:
                    yield from client.get(key)
            except Exception:
                pass    # typed and counted by the OpLog
        oplog.phase = None

    dep.drive(ops("write", "put", ctx["first"].items()))
    dep.drive(ops("overwrite", "put", ctx["last"].items()))
    dep.drive(ops("clean", "get", ((k, None) for k in ctx["reads"][0])))

    # Crash the holder of fragment 1 for good: never the coordinator,
    # which holds fragment 0 and leads the repair.
    tim = dep.tim("ecm")
    coordinator = dep.instance("ecm", US_EAST)
    manifest = decode_manifest(dep.drive(
        coordinator.read_version(keys[0], run_rules=False))[0])
    victim = tim.instances[manifest["frags"][1]].instance.host
    faults = dep.fault_schedule("perf-ec")
    faults.crash(at=dep.sim.now + 0.25, host=victim.name, duration=1e9)
    faults.start()
    dep.sim.run(until=dep.sim.now + 0.5)

    dep.drive(ops("degraded", "get", ((k, None) for k in ctx["reads"][1])))

    leader_id = manifest["frags"][0]
    repairer = tim.instances[leader_id].instance.protocol.repairer(leader_id)
    started = dep.sim.now
    dep.drive(repairer.repair_round(), name="perf-repair")
    ctx["repair_round_sim_s"] = dep.sim.now - started
    ctx["rebuilt_first_round"] = repairer.fragments_rebuilt
    dep.drive(repairer.repair_round(), name="perf-repair-verify")
    ctx["rebuilt_second_round"] = repairer.fragments_rebuilt


def _check_ec_mixed(ctx) -> list[str]:
    dep, client, oplog = ctx["dep"], ctx["client"], ctx["oplog"]
    problems = _oplog_violations(oplog)   # wrong payload before/during crash
    objects = len(ctx["keys"])
    if ctx["rebuilt_first_round"] != objects:
        problems.append(f"repair round rebuilt {ctx['rebuilt_first_round']} "
                        f"fragments, expected {objects}")
    if ctx["rebuilt_second_round"] != ctx["rebuilt_first_round"]:
        problems.append("second repair round was not a no-op")
    degraded_after = []

    def verify():
        for key in ctx["keys"]:
            result = yield from client.get(key)
            if result.get("degraded"):
                degraded_after.append(key)

    before = oplog.wrong_reads
    dep.drive(verify())
    if oplog.wrong_reads != before:
        problems.append(f"{oplog.wrong_reads - before} objects decode wrong "
                        "after the repair round")
    if degraded_after:
        problems.append(f"{len(degraded_after)} objects still degraded "
                        "after the repair round")
    return problems


# -- registry -------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    run: object
    account: object
    check: object


WORKLOADS = {w.name: w for w in (
    Workload("ol_read", build_ol_read, _run_open,
             _open_accounting, _check_open),
    Workload("ol_write", build_ol_write, _run_open,
             _open_accounting, _check_open),
    Workload("cl_lock", build_cl_lock, _run_cl_lock,
             _closed_accounting, _check_cl_lock),
    Workload("ec_mixed", build_ec_mixed, _run_ec_mixed,
             _closed_accounting, _check_ec_mixed),
)}
