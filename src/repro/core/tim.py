"""Tiera Instance Manager (TIM).

One TIM per running Wiera instance (§3.1 / §4.1): it launches the Tiera
instances via the Tiera servers, propagates the peer table, attaches the
shared consistency protocol, runs the dynamic-policy monitors, and
executes runtime changes — consistency switches (with request gating and
queue draining, §3.3.2) and primary migration — plus replica recovery
after server failures (§4.4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Generator, Optional

from repro.coordination.curator import GlobalLockClient
from repro.core.consistency import (
    EventualConsistencyProtocol,
    MultiPrimariesProtocol,
    PrimaryBackupConfig,
    PrimaryBackupProtocol,
)
from repro.core.global_policy import GlobalPolicySpec, RegionPlacement
from repro.faults.retry import TRANSIENT_ERRORS
from repro.obs.api import get_obs
from repro.sim.primitives import shielded
from repro.sim.rpc import RpcNode
from repro.tiera.instance import InstanceRef
from repro.tiera.instance_tier import InstanceTier
from repro.tiera.local_protocol import LocalOnlyProtocol


class WieraInstanceError(RuntimeError):
    pass


def gated(ctl, gate, drain, change) -> Generator:
    """A gated runtime change (§3.3.2) over the caller's ``ctl(node,
    method)``: close each ``gate`` record's gate, drain each ``drain``
    record, run ``change(drain replies)``, reopen the gates it closed.
    They reopen after a failure too — a refusal or a failed call, i.e. a
    ``RuntimeError`` (every error this system defines) or ``TimeoutError``
    — which then propagates.  A stop skips the reopen (callers are
    shielded), and so does the close of a simulation ended mid-change:
    the generator must not yield then, so the reopen is no ``finally``.
    """
    closed, failure, result = [], None, None
    try:
        for rec in gate:
            yield from ctl(rec.node, "ctl_close_gate")
            closed.append(rec)
        drained = []
        for rec in drain:
            drained.append((yield from ctl(rec.node, "ctl_drain")))
        result = yield from change(drained)
    except (RuntimeError, TimeoutError) as exc:
        failure = exc
    for rec in closed:
        try:
            yield from ctl(rec.node, "ctl_open_gate")
        except (RuntimeError, TimeoutError) as exc:
            failure = failure or exc   # the next gate still reopens
    if failure is not None:
        raise failure
    return result


@dataclass
class InstanceRecord:
    """Everything the TIM knows about one spawned Tiera instance."""

    instance_id: str
    region: str
    provider: str
    server_id: str
    node: RpcNode
    instance: object           # in-proc handle (instances run in-server)
    placement: RegionPlacement
    ref: InstanceRef = None
    down: bool = False


class TieraInstanceManager:
    """Manages the Tiera instances of one Wiera instance."""

    _seq = itertools.count(1)

    def __init__(self, sim, network, wiera, wiera_instance_id: str,
                 spec: GlobalPolicySpec, lock_node: RpcNode, manager):
        self.sim = sim
        self.network = network
        self.wiera = wiera
        self.wiera_instance_id = wiera_instance_id
        self.spec = spec
        self.lock_node = lock_node
        self.node = RpcNode(sim, network, wiera.host,
                            name=f"tim:{wiera_instance_id}:{next(self._seq)}")
        self._obs = get_obs(sim)
        self.instances: dict[str, InstanceRecord] = {}
        self.protocol = None
        self.monitors: list = []
        self.switch_log: list[tuple[float, str, str, float]] = []
        self.shared_cold_tier_name = "shared_cold"
        self.running = False
        #: the instances a client may be routed to: those launched, and a
        #: §4.4 replacement once its peers have caught it up
        self.caught_up: set[str] = set()
        self.manager = manager   # the ShardManager it is a shard of

    # ------------------------------------------------------------------
    # launch (the 8-step protocol of §4.1)
    # ------------------------------------------------------------------
    def launch(self) -> Generator:
        spec = self.spec
        # Steps 3-5: ask each region's Tiera server to spawn an instance.
        for placement in spec.placements:
            server = self.wiera.tsm.pick_server(placement.region,
                                                placement.provider)
            yield from self._spawn(server, self._instance_id(placement),
                                   placement)
        # Step 6: propagate peer info to all instances.
        yield from self._propagate_peers()
        # Attach the consistency protocol.
        self.protocol = self._build_protocol(spec.consistency)
        yield from self._install_protocol(self.protocol)
        # Centralized cold data needs shared tiers on the non-central
        # instances before its coordinator starts.
        if spec.cold is not None and spec.cold.centralize:
            yield from self._install_shared_cold_tier()
        self._start_monitors()
        if spec.failure is not None:
            self.wiera.tsm.watch(self)
        self.caught_up.update(self.instances)
        self.running = True
        return self.members()

    def _instance_id(self, placement: RegionPlacement) -> str:
        base = f"{self.wiera_instance_id}-{placement.region}"
        if placement.provider != "aws":
            base += f"-{placement.provider}"
        candidate, n = base, 1
        while candidate in self.instances:
            n += 1
            candidate = f"{base}-{n}"
        return candidate

    def _spawn(self, server, instance_id: str,
               placement: RegionPlacement) -> Generator:
        """The one way an instance comes into this TIM: ``server`` spawns
        it under ``placement``'s local policy; it is recorded where it
        actually runs and wired to the TIM and the lock service."""
        result = yield from self.node.invoke(
            server.node, "spawn_instance", {
                "instance_id": instance_id,
                "policy": placement.local_policy,
            })
        instance = result["instance"]
        record = InstanceRecord(
            instance_id=instance_id, region=server.region,
            provider=server.provider, server_id=server.server_id,
            node=result["node"], instance=instance, placement=placement,
            ref=InstanceRef(instance_id, server.region, result["node"]))
        self.instances[instance_id] = record
        instance.wiera = self
        instance.lock_client = GlobalLockClient(instance.node, self.lock_node)
        return record

    def alive_records(self) -> list[InstanceRecord]:
        """The instance records still serving (shared by switches,
        recovery, and the shard rebalancer)."""
        return [rec for rec in self.instances.values() if not rec.down]

    def _propagate_peers(self) -> Generator:
        refs = {rec.instance_id: rec.ref for rec in self.alive_records()}
        yield from self.broadcast("ctl_set_peers", {"peers": refs})

    def _install_protocol(self, protocol) -> Generator:
        yield from self.broadcast("ctl_set_protocol", {"protocol": protocol})

    def broadcast(self, method: str, args: dict) -> Generator:
        """Call ``method`` on every alive instance at once; wait for all."""
        calls = [self.node.call(rec.node, method, args)
                 for rec in self.alive_records()]
        for call in calls:
            call.defuse()  # may fail before it is waited on
        for call in calls:
            yield call

    def _start_monitors(self) -> None:
        # cycle: the monitors catch this module's WieraInstanceError
        from repro.core.monitoring import (ColdDataCoordinator,
                                           LatencyMonitor, RequestsMonitor)
        spec = self.spec
        if spec.dynamic is not None:
            self.monitors.append(LatencyMonitor(self, spec.dynamic))
        if spec.change_primary is not None:
            self.monitors.append(RequestsMonitor(self, spec.change_primary))
        if spec.cold is not None and spec.cold.centralize:
            self.monitors.append(ColdDataCoordinator(self, spec.cold))
        if spec.load_balance:
            from repro.core.loadbalance import LoadBalancer
            self.monitors.append(LoadBalancer(self))
        for monitor in self.monitors:
            monitor.loop.start()

    # ------------------------------------------------------------------
    # protocol construction
    # ------------------------------------------------------------------
    def _resolve_instance_id(self, region_or_id: Optional[str]) -> Optional[str]:
        if region_or_id in (None, "primary"):
            return region_or_id
        if region_or_id in self.instances:
            return region_or_id
        for iid, rec in self.instances.items():
            if rec.region == region_or_id:
                return iid
        raise WieraInstanceError(
            f"cannot resolve {region_or_id!r} to an instance")

    def _primary_instance_id(self) -> str:
        for iid, rec in self.instances.items():
            if rec.placement.primary:
                return iid
        raise WieraInstanceError(
            f"{self.wiera_instance_id}: no primary placement")

    def _build_protocol(self, name: str):
        spec = self.spec
        if spec.redundancy is not None:
            # The redundancy plane subsumes the consistency knob: writes
            # are synchronous fragment fan-outs, reads gather nearest-k.
            from repro.ec.protocol import ECProtocol
            if isinstance(self.protocol, ECProtocol):
                return self.protocol
            return ECProtocol(spec.redundancy)
        if name == "multi_primaries":
            return MultiPrimariesProtocol()
        plane = {"queue_interval": spec.queue_interval,
                 "repair_interval": spec.repair_interval,
                 "batch_bytes": spec.batch_bytes}
        if name == "primary_backup":
            existing = getattr(self.protocol, "config", None)
            primary_id = (existing.primary_id if existing is not None
                          else self._primary_instance_id())
            config = PrimaryBackupConfig(
                primary_id=primary_id,
                sync_replication=spec.sync_replication,
                get_from=self._resolve_instance_id(spec.get_from))
            config.history.append((self.sim.now, primary_id))
            return PrimaryBackupProtocol(config, **plane)
        if name == "eventual":
            return EventualConsistencyProtocol(**plane)
        if name == "local":
            return LocalOnlyProtocol()
        raise WieraInstanceError(f"unknown protocol {name!r}")

    # ------------------------------------------------------------------
    # runtime changes
    # ------------------------------------------------------------------
    def switch_consistency(self, to_name: str) -> Generator:
        """Gate, drain, swap, reopen (§3.3.2): requests arriving during the
        switch are blocked and queued until the change takes effect.

        The change is :func:`~repro.sim.primitives.shielded`: a stop of the
        calling process ends the caller, and the change runs on to
        completion as an ``orphan:`` process, so no gate it closed stays
        closed."""
        return shielded(self.sim, self._switch_consistency(to_name))

    def _switch_consistency(self, to_name: str) -> Generator:
        start = self.sim.now
        from_name = self.protocol.name if self.protocol else "none"
        with self._obs.tracer.span("policy:switch_consistency", cat="policy",
                                   component=self.node.name,
                                   to=to_name) as span:
            span.set(**{"from": from_name})
            alive = self.alive_records()

            def swap(drained) -> Generator:
                for rec, reply in zip(alive, drained):
                    # the swap would drop it (detach: pending_dropped)
                    if reply.get("pending"):
                        raise WieraInstanceError(
                            f"{rec.instance_id}: {reply['pending']} queued "
                            "replication entries survived ctl_drain; "
                            "refusing to drop them in a consistency switch")
                new_protocol = self._build_protocol(to_name)
                yield from self._install_protocol(new_protocol)
                self.protocol = new_protocol
            yield from gated(self.node.invoke, alive, alive, swap)
        self.switch_log.append((start, from_name, to_name, self.sim.now))
        metrics = self._obs.metrics
        metrics.counter("policy.consistency_switches",
                        wiera=self.wiera_instance_id).inc()
        metrics.histogram("policy.switch_duration",
                          wiera=self.wiera_instance_id).observe(
                              self.sim.now - start)
        return {"from": from_name, "to": to_name,
                "took": self.sim.now - start}

    def change_primary(self, new_primary_id: str) -> Generator:
        """Move the primary role (Figure 5(b)); queued updates apply first.
        Gated like :meth:`switch_consistency`, and shielded like it."""
        return shielded(self.sim, self._change_primary(new_primary_id))

    def _change_primary(self, new_primary_id: str) -> Generator:
        if not isinstance(self.protocol, PrimaryBackupProtocol):
            raise WieraInstanceError("change_primary requires primary_backup")
        if new_primary_id not in self.instances:
            raise WieraInstanceError(f"unknown instance {new_primary_id!r}")
        start = self.sim.now
        old_id = self.protocol.config.primary_id
        if old_id == new_primary_id:
            return {"primary": old_id, "changed": False}
        with self._obs.tracer.span("policy:change_primary", cat="policy",
                                   component=self.node.name,
                                   to=new_primary_id) as span:
            span.set(**{"from": old_id})
            old_rec = self.instances.get(old_id)
            drain = ([old_rec] if old_rec is not None and not old_rec.down
                     else [])

            def move(drained) -> Generator:
                self.protocol.set_primary(new_primary_id, self.sim.now)
                return
                yield  # pragma: no cover
            yield from gated(self.node.invoke, self.alive_records(), drain,
                             move)
        self._obs.metrics.counter("policy.primary_changes",
                                  wiera=self.wiera_instance_id).inc()
        return {"primary": new_primary_id, "previous": old_id,
                "changed": True, "took": self.sim.now - start}

    # ------------------------------------------------------------------
    # failure handling (§4.4)
    # ------------------------------------------------------------------
    def on_server_down(self, server_id: str) -> None:
        if not self.running:
            return
        affected = [rec for rec in self.instances.values()
                    if rec.server_id == server_id and not rec.down]
        if not affected:
            return
        for rec in affected:
            rec.down = True
        if self.spec.failure is None:
            return
        alive = sum(1 for rec in self.instances.values() if not rec.down)
        if alive < self.spec.failure.min_replicas:
            self.sim.process(self._recover(affected),
                             name=f"recover:{self.wiera_instance_id}")

    def _recover(self, lost: list[InstanceRecord]) -> Generator:
        for rec in lost:
            replacement = self.wiera.tsm.pick_server(
                rec.region, rec.provider, fallback_any=True)
            new_rec = yield from self._spawn(
                replacement, f"{rec.instance_id}-r{int(self.sim.now)}",
                rec.placement)
            # Every peer table learns of it, it gets the protocol, and
            # each live peer in turn syncs it (``sync_to``), so it ends
            # holding the greatest stamp any of them held; a racing
            # replica update is one more merge.
            yield from self._propagate_peers()
            yield from self.node.invoke(new_rec.node, "ctl_set_protocol",
                                        {"protocol": self.protocol})
            for peer in self.alive_records():
                if peer is new_rec:
                    continue
                try:
                    yield from self.node.invoke(
                        peer.node, "ctl_sync_to",
                        {"dest": new_rec.node,
                         "batch_bytes": self.spec.batch_bytes})
                except TRANSIENT_ERRORS:
                    continue    # the next live peer supplies the rest
            self.caught_up.add(new_rec.instance_id)
            yield from self._publish()

    def _publish(self) -> Generator:
        """Publish the namespace's next membership epoch: every live
        instance names it in its replies, and a client that hears it
        refreshes its map."""
        try:
            yield from self.manager.republish(self)
        except TRANSIENT_ERRORS:
            pass    # an instance missed it: it names the older epoch

    # ------------------------------------------------------------------
    # centralized cold data
    # ------------------------------------------------------------------
    def _install_shared_cold_tier(self) -> Generator:
        spec = self.spec.cold
        central = next((rec for rec in self.instances.values()
                        if rec.region == spec.central_region), None)
        if central is None:
            raise WieraInstanceError(
                f"no instance in central region {spec.central_region!r}")
        target_profile = central.instance.tier(spec.target_tier).profile
        for rec in self.instances.values():
            if rec is central:
                continue
            oneway = self.network.oneway_latency(
                rec.instance.host, central.instance.host,
                include_dynamics=False)
            shared = InstanceTier(
                self.sim, rec.instance.node, central.node, spec.target_tier,
                name=self.shared_cold_tier_name,
                remote_profile=target_profile, estimated_oneway=oneway)
            yield from self.node.invoke(rec.node, "ctl_add_tier", {
                "name": self.shared_cold_tier_name, "backend": shared})

    # ------------------------------------------------------------------
    # lifecycle & queries
    # ------------------------------------------------------------------
    def members(self) -> list[dict]:
        """The live instances a client may be routed to (never a §4.4
        replacement still catching up)."""
        return [{"instance_id": iid, "region": rec.region,
                 "provider": rec.provider, "node": rec.node,
                 "namespace": self.manager.base_id}
                for iid, rec in self.instances.items()
                if not rec.down and iid in self.caught_up]

    def stop(self) -> Generator:
        """``stopInstances`` (Table 1); a later server death is no longer
        this TIM's to repair."""
        self.running = False
        for monitor in self.monitors:
            monitor.loop.stop()
        self.monitors.clear()
        for rec in self.instances.values():
            yield from self._retire(rec)

    def _retire(self, record: InstanceRecord) -> Generator:
        """End ``record``'s instance through its server's
        ``stop_instance`` (:meth:`TieraInstance.stop`)."""
        if record.down:
            return
        server = self.wiera.tsm.servers.get(record.server_id)
        if server is None or server.host.down:
            return
        yield from self.node.invoke(server.node, "stop_instance",
                                    {"instance_id": record.instance_id})
