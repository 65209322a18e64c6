"""Deployment builder and simulation drivers for experiments.

Mirrors the paper's testbed (§5): the Wiera service + Zookeeper on one
host in US East, one Tiera server per requested (region, provider) on
t2.micro-class hosts, and clients wherever the experiment places them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Generator, Iterable, Optional, Sequence

from repro.autoscale.controller import Autoscaler
from repro.autoscale.signals import SignalReader
from repro.core.client import WieraClient
from repro.core.global_policy import AutoscaleSpec, GlobalPolicySpec
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.core.wiera import WieraService
from repro.load.cohort import ClientCohort, CohortSpec
from repro.load.engine import LoadEngine
from repro.net.network import Network
from repro.net.topology import US_EAST, Topology
from repro.obs.api import Observability, get_obs
from repro.shard.map import ShardHandle, ShardMap
from repro.sim.kernel import Simulator
from repro.storage.cost import CostLedger
from repro.tiera.objects import ObjectRecord, VersionMeta, storage_key
from repro.tiera.server import TieraServer
from repro.util.rng import RngRegistry

#: VM profile of every Tiera server host
SERVER_VM = "aws.t2_micro"


@dataclass
class Deployment:
    """One fully wired simulated testbed."""

    sim: Simulator
    network: Network
    rng: RngRegistry
    wiera: WieraService
    servers: dict = field(default_factory=dict)   # (region, provider) -> TieraServer
    ledger: Optional[CostLedger] = None
    clients: dict = field(default_factory=dict)
    obs: Optional[Observability] = None
    faults: Optional[FaultSchedule] = None
    #: shard count for start_sharded_instance (1 = unsharded)
    shards: int = 1
    #: open-loop cohorts, created lazily by add_cohort (None = unused,
    #: and the deployment is bit-identical to pre-load-engine builds)
    load: Optional[LoadEngine] = None
    #: autoscale spec for start_sharded_instance (None = no controller)
    autoscale: Optional[AutoscaleSpec] = None
    #: running controllers by namespace (base wiera id)
    autoscalers: dict = field(default_factory=dict)

    # -- driving -------------------------------------------------------------
    def drive(self, gen: Generator, name: str = "main"):
        """Run a coroutine to completion (background processes keep going)."""
        return drive(self.sim, gen, name=name)

    def start_wiera_instance(self, wiera_id: str,
                             spec: GlobalPolicySpec) -> list[dict]:
        """Start a one-shard namespace; returns its instances."""
        return self.drive(self.wiera.start_instances(wiera_id, spec),
                          name=f"start:{wiera_id}").all_instances()

    def start_sharded_instance(self, wiera_id: str,
                               spec: GlobalPolicySpec) -> ShardHandle:
        """Start one namespace across ``build_deployment(shards=N)``
        shards (repro.shard).  ``build_deployment(autoscale=...)``
        attaches an :class:`~repro.autoscale.controller.Autoscaler` to
        the namespace."""
        shard_map = self.drive(
            self.wiera.start_instances(wiera_id, spec, self.shards),
            name=f"start:{wiera_id}")
        if self.autoscale is not None:
            self._attach_autoscaler(wiera_id, self.autoscale)
        return ShardHandle(base_id=wiera_id, map=shard_map)

    def _attach_autoscaler(self, base_id: str,
                           aspec: AutoscaleSpec) -> Autoscaler:
        """Build, start, and register the controller for one namespace."""
        manager = self.wiera.shard_manager(base_id)

        def hosts():
            seen = []
            for sid in sorted(manager.map.shards):
                for rec in self.wiera.tim(sid).alive_records():
                    seen.append(rec.instance.host)
            return seen

        reader = SignalReader(self.obs.metrics,
                              engine_provider=lambda: self.load,
                              hosts_provider=hosts)
        scaler = Autoscaler(manager, aspec, reader)
        scaler.start()
        self.autoscalers[base_id] = scaler
        return scaler

    # -- construction helpers ----------------------------------------------------
    def add_client(self, region: str, provider: str = "aws",
                   vm: str = "generic", name: Optional[str] = None,
                   instances: Optional[list[dict]] = None,
                   request_timeout: Optional[float] = None,
                   retry_policy: Optional[RetryPolicy] = None,
                   sharded: Optional[ShardHandle] = None) -> WieraClient:
        """A client of a ``sharded`` handle's namespace, or of the
        namespace of ``instances``, whose one-shard map it starts from.
        ``instances`` seeds the map only: the client's first refresh
        replaces it with the namespace's published map."""
        cname = name or f"client-{region}-{len(self.clients)}"
        host = self.network.add_host(cname, region, provider, vm)
        client = WieraClient(self.sim, self.network, host, name=cname,
                             request_timeout=request_timeout,
                             retry_policy=retry_policy,
                             rng=self.rng.stream(f"{cname}.retry"))
        if instances or sharded is not None:
            namespace = (instances[0]["namespace"] if instances
                         else sharded.base_id)
            shard_map = self.wiera.get_shard_map(namespace)
            if instances:
                shard_map = ShardMap.single(namespace, instances,
                                            shard_map.epoch)
            client.connect(self.wiera.node, namespace, shard_map)
        self.clients[cname] = client
        return client

    def add_cohort(self, spec: CohortSpec,
                   instances: Optional[list[dict]] = None,
                   sharded: Optional[ShardHandle] = None,
                   provider: str = "aws", vm: str = "generic",
                   request_timeout: Optional[float] = None,
                   retry_policy: Optional[RetryPolicy] = None) -> ClientCohort:
        """Stand up one open-loop client cohort (see :mod:`repro.load`).

        Creates the cohort's shared router/connection-pool client in
        ``spec.region`` (attached to ``instances`` or a ``sharded``
        handle, exactly like :meth:`add_client`), registers the cohort
        with the deployment's :class:`~repro.load.engine.LoadEngine`
        (created on first use), and returns it un-started — call
        ``dep.load.run(duration)`` or ``cohort.start()`` yourself.
        """
        if self.load is None:
            self.load = LoadEngine(self.sim)
        client = self.add_client(
            spec.region, provider=provider, vm=vm,
            name=f"cohort-{spec.name}", instances=instances,
            request_timeout=request_timeout, retry_policy=retry_policy,
            sharded=sharded)
        rng = self.rng.substream("load.cohort", spec.name)
        return self.load.add(ClientCohort(self.sim, client, spec, rng))

    def add_scenario(self, scenario, **cohort_kw) -> LoadEngine:
        """Instantiate every cohort of a :class:`~repro.load.scenarios.
        Scenario` (plus its fault schedule, if it has one) and return
        the load engine.  ``cohort_kw`` is passed to each
        :meth:`add_cohort` call (``instances=...`` / ``sharded=...``)."""
        for spec in scenario.specs:
            self.add_cohort(spec, **cohort_kw)
        if scenario.faults is not None:
            scenario.faults(self)
        return self.load

    def metric_total(self, name: str, **labels) -> float:
        """Sum every counter/gauge called ``name`` whose labels include
        ``labels`` — e.g. total send failures across all instances."""
        want = set(labels.items())
        total = 0
        for metric in self.obs.metrics:
            if (metric.name == name and metric.kind in ("counter", "gauge")
                    and want <= set(metric.labels)):
                total += metric.value
        return total

    def fault_schedule(self, name: str = "faults") -> FaultSchedule:
        """A FaultSchedule wired to this deployment's network and servers
        (crashing a server host wipes volatile tiers, like a real crash)."""
        schedule = FaultSchedule(self.sim, self.network,
                                 servers=self.servers.values(), name=name)
        self.faults = schedule
        return schedule

    # -- canonical store state -------------------------------------------------
    def store_rows(self, namespaces: Optional[Sequence[str]] = None,
                   detail: bool = False) -> list[str]:
        """Canonical rows of per-instance key state, in zero sim-time.

        One row per (namespace, instance, key):
        ``{ns}/{iid}/{key}=v{latest}`` — the historical golden-fixture
        format — plus, with ``detail=True``,
        ``@{last_modified}:{origin}:{size}`` of the latest version, which
        distinguishes same-version contents rewritten by LWW.
        ``namespaces`` defaults to every running namespace (sorted).
        """
        if namespaces is None:
            namespaces = sorted(self.wiera.tims)
        rows = []
        for ns in namespaces:
            tim = self.wiera.tim(ns)
            for iid in sorted(tim.instances):
                inst = tim.instances[iid].instance
                for record in sorted(inst.meta.records(),
                                     key=lambda r: r.key):
                    row = f"{ns}/{iid}/{record.key}=v{record.latest_version}"
                    if detail:
                        meta = record.latest()
                        if meta is not None:
                            row += (f"@{meta.last_modified!r}"
                                    f":{meta.origin}:{meta.size}")
                    rows.append(row)
        return rows

    def store_digest(self, namespaces: Optional[Sequence[str]] = None,
                     detail: bool = True, sort: bool = True) -> str:
        """Stable hash over every instance's key -> version/value state.

        The canonical equivalence digest: two runs converged to the same
        stores iff their digests match.  ``sort=True`` (default) hashes
        the rows in sorted order; the golden fixture pins the historical
        un-sorted nested order via ``sort=False``.
        """
        return rows_digest(self.store_rows(namespaces=namespaces,
                                           detail=detail), sort=sort)

    def server(self, region: str, provider: str = "aws") -> TieraServer:
        return self.servers[(region, provider)]

    def tim(self, wiera_id: str):
        return self.wiera.tim(wiera_id)

    def instance(self, wiera_id: str, region: str, provider: str = "aws"):
        """The in-proc TieraInstance handle for (wiera instance, region)."""
        for rec in self.tim(wiera_id).instances.values():
            if rec.region == region and rec.provider == provider and not rec.down:
                return rec.instance
        raise KeyError(f"no live instance of {wiera_id} in {region}/{provider}")


def rows_digest(rows: Sequence[str], sort: bool = True) -> str:
    """sha256 of store-state rows (see :meth:`Deployment.store_rows`).

    With ``sort=True`` the digest is invariant to the order the rows
    were gathered in.
    """
    if sort:
        rows = sorted(rows)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def drive(sim: Simulator, gen: Generator, name: str = "main"):
    """Run ``gen`` as a process until it finishes; re-raise its failure."""
    proc = sim.process(gen, name=name)
    return sim.run(until=proc)


def build_deployment(regions: Sequence[str],
                     providers: Optional[dict[str, Iterable[str]]] = None,
                     seed: int = 0,
                     wiera_region: str = US_EAST,
                     topology: Optional[Topology] = None,
                     with_ledger: bool = False,
                     heartbeat_interval: float = 5.0,
                     with_tracing: bool = False,
                     shards: int = 1,
                     servers_per_region: int = 1,
                     autoscale: Optional[AutoscaleSpec] = None,
                     ) -> Deployment:
    """Stand up Wiera + one Tiera server per (region, provider).

    ``providers`` maps region -> iterable of providers (default: aws only).
    The Wiera service and its Zookeeper co-tenant live in ``wiera_region``.
    Tiera servers are registered with the TSM and heartbeats started.
    ``with_tracing`` turns on span recording (metrics are always live);
    the Chrome trace can then be dumped via
    :func:`repro.bench.reporting.dump_observability`.
    ``shards`` sets the partition count used by
    :meth:`Deployment.start_sharded_instance`; the default of 1 keeps
    every deployment unsharded.
    ``servers_per_region`` stands up N Tiera servers (N hosts, N egress
    links) per (region, provider) instead of one, so shard placements
    spread across real capacity — the TSM picks the least-loaded server
    per placement.  The default of 1 keeps host names and registration
    order identical to older builds.
    ``autoscale`` sets the :class:`~repro.core.global_policy.
    AutoscaleSpec` attached by :meth:`Deployment.start_sharded_instance`;
    None (the default) builds no controller.  The erasure-coded plane
    (repro.ec) is a property of the policy: ``GlobalPolicySpec.redundancy``.
    """
    sim = Simulator()
    obs = get_obs(sim)
    if with_tracing:
        obs.enable_tracing()
    network = Network(sim, topology)
    rng = RngRegistry(seed)
    ledger = CostLedger(sim) if with_ledger else None
    network.ledger = ledger
    wiera = WieraService(sim, network, region=wiera_region,
                         heartbeat_interval=heartbeat_interval)
    dep = Deployment(sim=sim, network=network, rng=rng, wiera=wiera,
                     ledger=ledger, obs=obs, shards=shards,
                     autoscale=autoscale)
    if servers_per_region < 1:
        raise ValueError(f"servers_per_region must be >= 1: "
                         f"{servers_per_region}")
    server_seq = 0
    for region in regions:
        for provider in (providers or {}).get(region, ("aws",)):
            for i in range(servers_per_region):
                # The first server keeps the historical host name and
                # (region, provider) key, so servers_per_region=1 is
                # bit-identical to older deployments.
                suffix = "" if i == 0 else f"-{i}"
                host = network.add_host(
                    f"tsrv-host-{region}-{provider}{suffix}",
                    region, provider, SERVER_VM)
                # Deployment-scoped ids reproducing the historical
                # first-build-in-process numbering: two identical builds
                # in one process get identical server ids, hence identical
                # pick_server tie-breaks.
                server_seq += 1
                server = TieraServer(sim, network, host, region, provider,
                                     rng=rng, ledger=ledger,
                                     server_id=f"tsrv-{region}-{server_seq}")
                key = ((region, provider) if i == 0
                       else (region, provider, i))
                dep.servers[key] = server
    drive(sim, wiera.register_servers(list(dep.servers.values())),
          name="bootstrap")
    return dep


def preload_object(instances, key: str, data: bytes) -> None:
    """Zero-time setup: install version 1 of ``key``, dated time 0, into
    each instance — one write, so every copy has one stamp: the empty
    origin, which any real write of version 1 at time 0 outranks.

    Creates the metadata record and places the bytes on the policy's
    default store tier.  Used to materialize large prepared
    datasets — the SysBench file, the RUBiS database, the 10 TB cold-data
    population — without simulating the load phase.
    """
    for instance in instances:
        record = instance.meta.get_record(key)
        if record is None:
            record = ObjectRecord(key=key)
            instance.meta.put_record(record)
        if 1 in record.versions:
            raise ValueError(f"{key!r} v1 already present in "
                             f"{instance.instance_id}")
        target = instance.policy.default_store_tier()
        meta = VersionMeta(version=1, size=len(data), created_at=0.0,
                           last_modified=0.0, last_accessed=0.0,
                           locations={target}, stored_size=len(data))
        record.add_version(meta)
        instance.tier(target).preload(storage_key(key, 1), data)
