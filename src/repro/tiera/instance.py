"""The Tiera instance: multi-tier storage + local policy engine + RPC.

One instance runs inside a Tiera server in one data center.  It owns its
storage tiers, its metadata store, and the interpretation of its local
policy's event-response rules; its *global* behaviour (replication,
consistency, forwarding) is delegated to an attached protocol object
managed by Wiera.

The data path really moves bytes: a put stages the payload, runs the
insert rules (which decide tier placement, set dirty bits, trigger
write-through copies...), and a get locates the fastest tier holding the
chosen version and decodes any compress/encrypt chain.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Iterable, Optional

from repro.net.link import BandwidthLink
from repro.net.network import Host, Network, NetworkError
from repro.obs.api import get_obs
from repro.sim.kernel import Simulator
from repro.sim.primitives import Gate, Loop
from repro.sim.rpc import Message, RpcNode, split_batches
from repro.storage.backend import (ObjectMissingError, StorageBackend,
                                   StorageError)
from repro.storage.factory import make_tier
from repro.tiera import transforms
from repro.tiera.local_protocol import LocalOnlyProtocol
from repro.tiera.metadata_store import MetadataStore
from repro.tiera.objects import (NO_STAMP, ObjectRecord, Stamp, VersionMeta,
                                 storage_key)
from repro.tiera.events import FilledEvent
from repro.tiera.policy import LocalPolicy, Rule
from repro.tiera.responses import ResponseContext
from repro.util.rng import RngRegistry

#: fixed metadata-store update overhead charged per mutating operation
METADATA_WRITE_LATENCY = 0.0002


class TieraError(RuntimeError):
    pass


class InstanceRef:
    """Lightweight handle on a (possibly remote) peer instance."""

    def __init__(self, instance_id: str, region: str, node: RpcNode):
        self.instance_id = instance_id
        self.region = region
        self.node = node

    def __repr__(self) -> str:
        return f"<InstanceRef {self.instance_id}@{self.region}>"


class TieraInstance:
    """One policy-defined storage instance inside a single DC."""

    def __init__(self, sim: Simulator, network: Network, host: Host,
                 instance_id: str, region: str, policy: LocalPolicy,
                 rng: Optional[RngRegistry] = None, ledger=None,
                 keyring: Optional[dict[str, str]] = None,
                 extra_tiers: Optional[dict[str, StorageBackend]] = None):
        self.sim = sim
        self.network = network
        self.host = host
        self.instance_id = instance_id
        self.region = region
        self.policy = policy
        self._get_rules = policy.operation_rules("get")
        self.rng = rng or RngRegistry(0)
        self.ledger = ledger
        self.keyring = dict(keyring or {"default": f"key-{instance_id}"})

        self.node = RpcNode(sim, network, host, name=f"tiera:{instance_id}")
        self.meta = MetadataStore()
        self.gate = Gate(sim, open_=True)
        self.protocol = LocalOnlyProtocol()
        self.protocol.attach(self)
        self.peers: dict[str, InstanceRef] = {}  # instance_id -> ref
        self.wiera = None          # TIM backlink, set by core
        self.lock_client = None    # GlobalLockClient, set by core

        # Tiers, in policy order.
        self.tiers: dict[str, StorageBackend] = {}
        for spec in policy.tiers:
            backend = make_tier(
                sim, spec.profile, spec.capacity,
                name=f"{instance_id}.{spec.name}",
                rng=self.rng.stream(f"{instance_id}.{spec.name}"),
                ledger=ledger, region=region)
            self.tiers[spec.name] = backend
        if extra_tiers:
            for name, backend in extra_tiers.items():
                if name in self.tiers:
                    raise TieraError(f"duplicate tier name {name!r}")
                self.tiers[name] = backend

        # Payload staging between version creation and tier placement; a
        # merge waits on ``_written`` for a staged write to land.
        self._staging: dict[tuple[str, int], bytes] = {}
        self._written: dict[tuple[str, int], object] = {}
        self._copy_links: dict[object, BandwidthLink] = {}
        self._filled_armed: dict[int, bool] = {}  # rule index -> armed

        # In-flight data operations (a consistency switch drains these
        # before swapping protocols — "all operations in progress ...
        # applied first", §3.3.2).
        self.inflight = 0

        # Keyspace partitioning (repro.shard).  Both objects are shipped
        # in over ctl RPCs so this layer never imports shard code: the
        # guard rejects requests for keys this shard does not own
        # (epoch/redirect protocol) and the handoff spec, present only
        # during a live rebalance, dual-writes moving keys to their new
        # owner.  Both are None outside sharded deployments, leaving the
        # unsharded data path untouched.  Every app-facing reply names
        # ``epoch``, the map epoch of the namespace's last membership
        # change (§4.4) published to it.
        self.shard_guard = None
        self.shard_handoff = None
        self.epoch = 1
        self._m_handoff = None   # created on first forward

        # Load-balancing redirect installed by Wiera's load balancer: a
        # (peer_instance_id, fraction) pair makes this instance forward
        # that fraction of gets to the peer (the `forward` response for
        # RequestsMonitoring events, §3.2.3).
        self.get_redirect: Optional[tuple[str, float]] = None
        self.redirected_gets = 0
        self._lb_rng = self.rng.stream(f"{instance_id}.lb")

        # Telemetry.
        self.puts_from_app = 0
        self.gets_from_app = 0
        self.conflicts_resolved = 0
        self.request_log: deque[tuple[float, str]] = deque()  # (t, source)
        self.get_log: deque[float] = deque()                  # get arrivals
        self._obs = get_obs(sim)
        self._op_hists: dict = {}  # (op, src) -> registry histogram
        periodic = [(rule, rule.event.period, "timer")
                    for rule in policy.timer_rules()]
        periodic += [(rule, rule.event.check_interval, "cold")
                     for rule in policy.cold_rules()]
        self.loops = [
            Loop(sim, f"{instance_id}:{kind}", period,
                 lambda rule=rule: self._run_rule(
                     rule, ResponseContext(event=rule.event)))
            for rule, period, kind in periodic]

        self._register_rpc()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the background policy loops (timers, cold scanners)."""
        for loop in self.loops:
            loop.start()

    def stop(self) -> None:
        """End this instance (its server's ``stop_instance``): the loops
        stop and the protocol, with its queue and repairer, is swapped for
        a local one, so a late request starts nothing."""
        for loop in self.loops:
            loop.stop()
        self._set_protocol(LocalOnlyProtocol())

    def _set_protocol(self, protocol):
        """Swap in ``protocol``; returns the detached one."""
        old = self.protocol
        old.detach(self)
        self.protocol = protocol
        protocol.attach(self)
        return old

    def on_host_crash(self) -> None:
        """Volatile tiers lose their contents; the loops stop (a recovered
        server restarts them); the protocol stays."""
        for loop in self.loops:
            loop.stop()
        for backend in self.tiers.values():
            if backend.profile.volatile:
                backend.wipe()
                for record in self.meta.records():
                    for meta in record.versions.values():
                        meta.locations.discard(self._tier_name(backend))

    def _tier_name(self, backend: StorageBackend) -> str:
        for name, b in self.tiers.items():
            if b is backend:
                return name
        raise TieraError("backend not part of this instance")

    # ------------------------------------------------------------------
    # tiers
    # ------------------------------------------------------------------
    def tier(self, name: str) -> StorageBackend:
        try:
            return self.tiers[name]
        except KeyError:
            raise TieraError(
                f"{self.instance_id}: no tier {name!r} "
                f"(has {sorted(self.tiers)})") from None

    def read_preference(self, locations: Iterable[str]) -> list[str]:
        """Locations ordered fastest-first by profile read latency."""
        known = [loc for loc in locations if loc in self.tiers]
        if len(known) > 1:
            known.sort(key=lambda n: self.tiers[n].profile.read_latency)
        return known

    def copy_limiter(self, response) -> BandwidthLink:
        link = self._copy_links.get(response)
        if link is None:
            link = BandwidthLink(self.sim, response.bandwidth,
                                 name=f"{self.instance_id}.copy")
            self._copy_links[response] = link
        return link

    # ------------------------------------------------------------------
    # version primitives (used by responses and protocols)
    # ------------------------------------------------------------------
    def _payload(self, key: str, version: int, meta: VersionMeta,
                 order: Optional[list[str]] = None) -> Generator:
        """Fetch raw (encoded) bytes for a version, cheapest source first
        (``order``: the caller's ``read_preference(meta.locations)``)."""
        staged = self._staging.get((key, version))
        if staged is not None:
            return staged
            yield  # pragma: no cover
        if order is None:
            order = self.read_preference(meta.locations)
        for tier_name in order:
            backend = self.tiers[tier_name]
            skey = storage_key(key, version)
            if skey in backend:
                data = yield from backend.read(skey)
                return data
        raise ObjectMissingError(
            f"{self.instance_id}: no readable copy of {key!r} v{version}")

    def local_put(self, key: str, data: bytes, version: Optional[int] = None,
                  tags: Iterable[str] = (), origin: str = "",
                  last_modified: Optional[float] = None,
                  run_rules: bool = True,
                  replacing: Optional[VersionMeta] = None,
                  pending: bool = False) -> Generator:
        """Create (or install) a version locally, honouring insert rules.

        Returns the version number.  ``version``/``last_modified`` are
        supplied when installing a replica update so the metadata matches
        the originating instance.  ``replacing``: the held metadata of
        ``version`` the merge swaps out at once (the new bytes are served
        from staging until written over the same storage key).
        ``pending``: install it not yet final (:meth:`finalise`).
        """
        now = self.sim.now
        record = self.meta.get_record(key)
        if record is None:
            record = ObjectRecord(key=key)
            self.meta.put_record(record)
        if version is None:
            version = record.next_version()
        if record.versions.get(version) is not replacing:
            raise TieraError(
                f"{self.instance_id}: version {version} of {key!r} exists")
        meta = VersionMeta(
            version=version, size=len(data), created_at=now,
            last_modified=last_modified if last_modified is not None else now,
            last_accessed=now, origin=origin or self.instance_id,
            pending=pending)
        record.add_version(meta)
        record.tags.update(tags)
        self._staging[(key, version)] = bytes(data)
        try:
            ctx = ResponseContext(key=key, version=version)
            if run_rules:
                for rule in self.policy.insert_rules(None):
                    for response in rule.responses:
                        yield from response.execute(self, ctx)
            if not meta.locations:
                yield from self.store_version(
                    key, version, self.policy.default_store_tier())
            if run_rules:
                for placed in list(meta.locations):
                    for rule in self.policy.insert_rules(placed):
                        ctx_t = ResponseContext(key=key, version=version,
                                                tier=placed)
                        for response in rule.responses:
                            yield from response.execute(self, ctx_t)
        finally:
            self._staging.pop((key, version), None)
            written = self._written.pop((key, version), None)
            if written is not None:
                written.succeed()
        if replacing is not None:
            skey = storage_key(key, version)
            for tier_name in sorted(replacing.locations - meta.locations):
                backend = self.tiers.get(tier_name)
                if backend is not None and skey in backend:
                    yield from backend.delete(skey)
        yield self.sim.timeout(METADATA_WRITE_LATENCY)
        yield from self._garbage_collect(record)
        yield from self._check_filled()
        return version

    def store_version(self, key: str, version: int, tier_name: str) -> Generator:
        record = self._record_or_raise(key)
        meta = self._meta_or_raise(record, version)
        backend = self.tier(tier_name)
        data = yield from self._payload(key, version, meta)
        yield from backend.write(storage_key(key, version), data)
        meta.locations.add(tier_name)
        meta.stored_size = len(data)

    def move_version(self, key: str, version: int, tier_name: str,
                     from_tier: Optional[str] = None) -> Generator:
        record = self._record_or_raise(key)
        meta = self._meta_or_raise(record, version)
        if tier_name not in meta.locations:
            yield from self.store_version(key, version, tier_name)
        sources = ([from_tier] if from_tier
                   else [t for t in list(meta.locations) if t != tier_name])
        for src in sources:
            if src is None or src == tier_name or src not in meta.locations:
                continue
            backend = self.tier(src)
            skey = storage_key(key, version)
            if skey in backend:
                yield from backend.delete(skey)
            meta.locations.discard(src)

    def purge_version(self, key: str, version: int) -> Generator:
        record = self._record_or_raise(key)
        meta = self._meta_or_raise(record, version)
        skey = storage_key(key, version)
        for tier_name in list(meta.locations):
            backend = self.tiers.get(tier_name)
            if backend is not None and skey in backend:
                yield from backend.delete(skey)
        record.drop_version(version)
        if not record.versions:
            self.meta.delete_record(key)
        elif record.versions[record.latest_version].dirty:
            self.meta.dirty_keys.add(key)   # an older dirty version is latest
        yield self.sim.timeout(METADATA_WRITE_LATENCY)

    def transform_version(self, key: str, version: int, name: str,
                          level: int = 6) -> Generator:
        """Apply a compress/encrypt transform in place on every location."""
        record = self._record_or_raise(key)
        meta = self._meta_or_raise(record, version)
        if name in meta.encodings:
            return  # idempotent
        data = yield from self._payload(key, version, meta)
        encoded = transforms.encode(name, data, self.keyring, level=level)
        skey = storage_key(key, version)
        for tier_name in list(meta.locations):
            backend = self.tier(tier_name)
            yield from backend.write(skey, encoded)
        meta.encodings = meta.encodings + (name,)
        meta.stored_size = len(encoded)

    def read_version(self, key: str, version: Optional[int] = None,
                     run_rules: bool = True) -> Generator:
        """Return (decoded bytes, version meta, record) for key/version.

        ``run_rules`` triggers the policy's get-operation rules (e.g. a
        promotion rule copying a slow-tier object into the cache); they
        run in the background so the read reply is not delayed.
        """
        record = self._record_or_raise(key)
        if version is None:
            meta = record.latest()
            if meta is None:
                raise ObjectMissingError(f"{self.instance_id}: {key!r} empty")
        else:
            meta = self._meta_or_raise(record, version)
        while True:
            order = self.read_preference(meta.locations)
            try:
                raw = yield from self._payload(key, meta.version, meta, order)
                missing = None
            except ObjectMissingError as exc:
                missing = exc
            # A merge replaced this version mid-read: read again under its
            # metadata, so the bytes and their metadata are one write.
            current = record.versions.get(meta.version)
            if current is meta or current is None:
                break
            meta = current
        if missing is not None:
            raise missing
        served_from = order[0] if order else None
        data = (transforms.decode_chain(meta.encodings, raw, self.keyring)
                if meta.encodings else raw)
        meta.touch(self.sim.now)
        if run_rules and self._get_rules:
            self._fire_get_rules(key, meta.version, served_from)
        return data, meta, record

    def _fire_get_rules(self, key: str, version: int,
                        served_from: Optional[str]) -> None:
        """Run matching get-operation rules asynchronously."""
        rules = [r for r in self._get_rules
                 if r.event.tier is None or r.event.tier == served_from]
        if not rules:
            return
        ctx = ResponseContext(key=key, version=version, tier=served_from)

        def runner():
            for rule in rules:
                yield from self._run_rule(rule, ctx)
        self.sim.process(runner(), name=f"{self.instance_id}:get-rules")

    def local_remove(self, key: str, version: Optional[int] = None) -> Generator:
        record = self.meta.get_record(key)
        if record is None:
            return 0
        victims = [version] if version is not None else record.version_list()
        removed = 0
        for v in victims:
            if record.has_version(v):
                yield from self.purge_version(key, v)
                removed += 1
        return removed

    def _record_or_raise(self, key: str) -> ObjectRecord:
        record = self.meta.get_record(key)
        if record is None:
            raise ObjectMissingError(f"{self.instance_id}: no object {key!r}")
        return record

    @staticmethod
    def _meta_or_raise(record: ObjectRecord, version: int) -> VersionMeta:
        meta = record.versions.get(version)
        if meta is None:
            raise ObjectMissingError(
                f"no version {version} of {record.key!r} "
                f"(has {record.version_list()})")
        return meta

    # ------------------------------------------------------------------
    # conflict handling (last-write-wins, §4.2)
    # ------------------------------------------------------------------
    def apply_replica_update(self, key: str, version: int,
                             last_modified: float, data: bytes,
                             origin: str, pending: bool = False) -> Generator:
        """The merge, the only way a held version's contents change: install
        a version held nowhere here; replace a held copy with a lower
        :data:`~repro.tiera.objects.Stamp`, or an equal one whose bytes are
        unreadable, once any write of it in flight lands; else refuse.
        ``pending``: what it installs is not yet final (:meth:`finalise`)."""
        origin = origin or self.instance_id
        stamp = (version, last_modified, origin)
        while True:
            record = self.meta.get_record(key)
            held = record.versions.get(version) if record is not None else None
            if held is None:
                break
            in_flight = (key, version) in self._staging
            if stamp < held.stamp or stamp == held.stamp and (
                    in_flight or self.readable(key, version)):
                return {"applied": False, "reason": "lww-older"}
            if not in_flight:
                if stamp > held.stamp:
                    self.conflicts_resolved += 1
                break
            yield self._written.setdefault((key, version), self.sim.event())
        yield from self.local_put(key, data, version=version, origin=origin,
                                  last_modified=last_modified,
                                  replacing=held, pending=pending)
        return {"applied": True}

    def finalise(self, key: str, version: int) -> None:
        """Mark a pending version final: metadata only, in zero sim-time
        (nothing to do when ``version`` of ``key`` is not held)."""
        record = self.meta.get_record(key)
        meta = record.versions.get(version) if record is not None else None
        if meta is not None:
            meta.pending = False

    def replica_args(self, key: str,
                     version: Optional[int] = None) -> Generator:
        """``replica_update`` args for a local version (the latest by
        default) — the payload shape every push path ships."""
        data, meta, _ = yield from self.read_version(key, version,
                                                     run_rules=False)
        return {"key": key, "version": meta.version,
                "last_modified": meta.last_modified,
                "origin": meta.origin or self.instance_id, "data": data,
                "pending": meta.pending}

    def sync_to(self, node: RpcNode, keys: Optional[Iterable[str]] = None,
                *, batch_bytes: float) -> Generator:
        """Bring the replica at ``node`` up to date with this one: the one
        catch-up path of anti-entropy, shard migration and §4.4 recovery.

        One ``digest`` RPC fetches the peer's stamps; every key (of
        ``keys``, default all) whose latest stamp here is greater ships as
        a ``replica_update`` in batches of at most ``batch_bytes`` (0: one
        key each), which the peer's merge (:meth:`apply_replica_update`)
        lands.  Returns ``(landed, failed, theirs)``: the keys the peer
        answered for, those a lost batch, a refused entry or an unreadable
        copy left, and the peer's digest.  A failed digest raises.
        """
        digest = yield from self.node.invoke(node, "digest")
        theirs = digest["keys"]
        ours = self.key_state()
        stale = [key for key in (ours if keys is None else keys)
                 if key in ours and theirs.get(key, NO_STAMP) < ours[key]]
        landed, failed = [], []
        payload: list[tuple[str, dict]] = []
        for key in stale:
            try:
                args = yield from self.replica_args(key)
            except ObjectMissingError:
                continue    # removed or GC'd since: nothing left to push
            except StorageError:
                failed.append(key)
                continue
            payload.append(("replica_update", args))
        for entries in split_batches(payload, batch_bytes):
            call = self.node.call_batch(node, entries)
            call.defuse()
            try:
                results = yield call
            except NetworkError:
                results = [{}] * len(entries)   # the whole batch is lost
            for (_method, args), res in zip(entries, results):
                (landed if res.get("ok") else failed).append(args["key"])
        return landed, failed, theirs

    # ------------------------------------------------------------------
    # keyspace partitioning (repro.shard)
    # ------------------------------------------------------------------
    def _shard_check(self, key: str) -> None:
        if self.shard_guard is not None:
            self.shard_guard.check(key)

    def _forward_handoff(self, key: str, version: Optional[int],
                         remove: bool = False) -> None:
        """Dual-write a just-acknowledged write to the key's new owner.

        Fire-and-forget on purpose: the forward must not add latency to
        the acknowledged operation, and a forward lost to a fault is
        re-covered by the rebalancer's gated cutover sweep.
        """
        handoff = self.shard_handoff
        if handoff is None:
            return
        dest = handoff.moves(key)
        if dest is None:
            return
        if not remove and version is None:
            return
        for node in handoff.dest_nodes(dest):
            if remove:
                self.node.send_oneway(node, "replica_remove",
                                      {"key": key, "version": version})
            else:
                self.sim.process(
                    self._handoff_push(node, key, version),
                    name=f"{self.instance_id}:handoff")
        if self._m_handoff is None:
            self._m_handoff = self._obs.metrics.counter(
                "shard.handoff_forwards", instance=self.instance_id)
        self._m_handoff.inc()

    def _handoff_push(self, node, key: str, version: int) -> Generator:
        """Read the committed version and push it to one destination."""
        try:
            args = yield from self.replica_args(key, version)
        except ObjectMissingError:
            return   # removed/GC'd between ack and push; sweep reconciles
        yield from self.node._oneway(node, "replica_update", args)

    # ------------------------------------------------------------------
    # background policy engines
    # ------------------------------------------------------------------
    def _run_rule(self, rule: Rule, ctx: ResponseContext) -> Generator:
        for response in rule.responses:
            yield from response.execute(self, ctx)
        # Background copies/moves change tier occupancy too — fill rules
        # must see it (write-back flushes can push a tier past threshold).
        if not isinstance(rule.event, FilledEvent):
            yield from self._check_filled()

    def _check_filled(self) -> Generator:
        for idx, rule in enumerate(self.policy.filled_rules()):
            event = rule.event
            backend = self.tiers.get(event.tier)
            if backend is None:
                continue
            armed = self._filled_armed.get(idx, True)
            frac = backend.fill_fraction
            if armed and frac >= event.fraction:
                self._filled_armed[idx] = False
                yield from self._run_rule(
                    rule, ResponseContext(event=event, tier=event.tier))
            elif not armed and frac < event.fraction:
                self._filled_armed[idx] = True

    def _garbage_collect(self, record: ObjectRecord) -> Generator:
        """Keep the ``keep_versions`` newest final versions and anything
        newer; a pending version is not counted, so it never evicts the
        newest final one."""
        keep = self.policy.keep_versions
        if keep is None or len(record.versions) <= keep:
            return
        final = record.final_versions()
        if len(final) <= keep:
            return
        for version in record.version_list():
            if version == final[-keep]:
                break
            yield from self.purge_version(record.key, version)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def note_request(self, source: str) -> None:
        self.request_log.append((self.sim.now, source))
        horizon = self.sim.now - 3600.0
        while self.request_log and self.request_log[0][0] < horizon:
            self.request_log.popleft()

    def _note_get(self) -> None:
        self.get_log.append(self.sim.now)
        horizon = self.sim.now - 3600.0
        while self.get_log and self.get_log[0] < horizon:
            self.get_log.popleft()

    def gets_in_window(self, window: float) -> int:
        """Gets over the trailing ``window`` seconds."""
        cutoff = self.sim.now - window
        count = 0
        for t in reversed(self.get_log):
            if t < cutoff:
                break
            count += 1
        return count

    def requests_in_window(self, window: float) -> dict[str, int]:
        """Request counts per source over the trailing ``window`` seconds."""
        cutoff = self.sim.now - window
        counts: dict[str, int] = {}
        for t, src in reversed(self.request_log):
            if t < cutoff:
                break
            counts[src] = counts.get(src, 0) + 1
        return counts

    def _notify_latency(self, op: str, elapsed: float, src: str) -> None:
        hist = self._op_hists.get((op, src))
        if hist is None:
            hist = self._obs.metrics.histogram(
                "tiera.op_latency", instance=self.instance_id, op=op, src=src)
            self._op_hists[(op, src)] = hist
        hist.observe(elapsed)

    def note_target_gone(self) -> None:
        """A rule's target was removed or GC-purged before its turn."""
        self._obs.metrics.counter("tiera.rule_targets_gone",
                                  instance=self.instance_id).inc()

    # ------------------------------------------------------------------
    # RPC surface
    # ------------------------------------------------------------------
    def _register_rpc(self) -> None:
        n = self.node
        n.register("put", self.rpc_put)
        n.register("get", self.rpc_get)
        n.register("get_version", self.rpc_get_version)
        n.register("get_version_list", self.rpc_get_version_list)
        n.register("update", self.rpc_update)
        n.register("remove", self.rpc_remove)
        n.register("remove_version", self.rpc_remove)
        n.register("replica_update", self.rpc_replica_update)
        n.register("replica_remove", self.rpc_replica_remove)
        n.register("forward_put", self.rpc_forward_put)
        n.register("forward_remove", self.rpc_forward_remove)
        n.register("digest", self.rpc_digest)
        n.register("check_readable", self.rpc_check_readable)
        n.register("reconstruct_fragment", self.rpc_reconstruct_fragment)
        n.register("manifest_remap", self.rpc_manifest_remap)
        n.register("ec_prewrite", self.rpc_ec_prewrite)
        n.register("finalise", self.rpc_finalise)
        n.register("peer_get", self.rpc_peer_get)
        n.register("probe", self.rpc_probe)
        n.register("stats", self.rpc_stats)
        n.register("tier_put", self.rpc_tier_put)
        n.register("tier_get", self.rpc_tier_get)
        n.register("tier_delete", self.rpc_tier_delete)
        n.register("ctl_close_gate", self.rpc_ctl_close_gate)
        n.register("ctl_open_gate", self.rpc_ctl_open_gate)
        n.register("ctl_drain", self.rpc_ctl_drain)
        n.register("ctl_set_protocol", self.rpc_ctl_set_protocol)
        n.register("ctl_set_peers", self.rpc_ctl_set_peers)
        n.register("ctl_add_tier", self.rpc_ctl_add_tier)
        n.register("ctl_set_redirect", self.rpc_ctl_set_redirect)
        n.register("ctl_set_shard", self.rpc_ctl_set_shard)
        n.register("ctl_set_handoff", self.rpc_ctl_set_handoff)
        n.register("ctl_sync_to", self.rpc_ctl_sync_to)
        n.register("ctl_purge_misowned", self.rpc_ctl_purge_misowned)
        n.register("ctl_demote_cold", self.rpc_ctl_demote_cold)
        n.register("ctl_adopt_remote_cold", self.rpc_ctl_adopt_remote_cold)

    def rpc_put(self, msg: Message) -> Generator:
        yield from self.gate.passage
        self._shard_check(msg.args["key"])
        start = self.sim.now
        self.puts_from_app += 1
        self.note_request("app")
        self.inflight += 1
        try:
            result = yield from self.protocol.on_put(
                self, msg.args["key"], msg.args["data"],
                tags=msg.args.get("tags", ()), src="app")
        finally:
            self.inflight -= 1
        self._forward_handoff(msg.args["key"], result.get("version"))
        self._notify_latency("put", self.sim.now - start, "app")
        result["epoch"] = self.epoch
        return result

    def rpc_get(self, msg: Message) -> Generator:
        yield from self.gate.passage
        self._shard_check(msg.args["key"])
        start = self.sim.now
        self.gets_from_app += 1
        self._note_get()
        redirect = self.get_redirect
        if redirect is not None:
            peer_id, fraction = redirect
            peer = self.peers.get(peer_id)
            if peer is not None and self._lb_rng.random() < fraction:
                self.redirected_gets += 1
                result = yield from self.node.invoke(
                    peer.node, "peer_get",
                    {"key": msg.args["key"],
                     "version": msg.args.get("version")})
                self._notify_latency("get", self.sim.now - start, "app")
                result["epoch"] = self.epoch
                return result
        result = yield from self.protocol.on_get(self, msg.args["key"],
                                                 msg.args.get("version"))
        self._notify_latency("get", self.sim.now - start, "app")
        result["epoch"] = self.epoch
        return result

    def rpc_get_version(self, msg: Message) -> Generator:
        yield from self.gate.passage
        self._shard_check(msg.args["key"])
        result = yield from self.protocol.on_get(
            self, msg.args["key"], msg.args["version"])
        result["epoch"] = self.epoch
        return result

    def rpc_get_version_list(self, msg: Message) -> Generator:
        yield self.sim.timeout(METADATA_WRITE_LATENCY)
        record = self.meta.get_record(msg.args["key"])
        return {"versions": record.version_list() if record else [],
                "epoch": self.epoch}

    def rpc_update(self, msg: Message) -> Generator:
        """Table 2 ``update``: rewrite the contents of a specific version."""
        yield from self.gate.passage
        key, version = msg.args["key"], msg.args["version"]
        self._shard_check(key)
        record = self._record_or_raise(key)
        self._meta_or_raise(record, version)
        self.inflight += 1
        try:
            result = yield from self.apply_replica_update(
                key, version, self.sim.now, msg.args["data"],
                self.instance_id)
        finally:
            self.inflight -= 1
        self._forward_handoff(key, version)
        return {"version": version, "updated": result["applied"],
                "epoch": self.epoch}

    def rpc_remove(self, msg: Message) -> Generator:
        """``remove`` (every version) and ``remove_version`` (one)."""
        yield from self.gate.passage
        key, version = msg.args["key"], msg.args.get("version")
        self._shard_check(key)
        self.inflight += 1
        try:
            result = yield from self.protocol.on_remove(self, key, version)
        finally:
            self.inflight -= 1
        self._forward_handoff(key, version, remove=True)
        result["epoch"] = self.epoch
        return result

    def rpc_replica_update(self, msg: Message) -> Generator:
        self.note_request(msg.args.get("origin", msg.src))
        result = yield from self.protocol.on_replica_update(self, msg.args)
        return result

    def rpc_replica_remove(self, msg: Message) -> Generator:
        result = yield from self.protocol.on_replica_remove(self, msg.args)
        return result

    def rpc_forward_put(self, msg: Message) -> Generator:
        yield from self.gate.passage
        start = self.sim.now
        origin = msg.args.get("origin", msg.src)
        self.note_request(origin)
        self.inflight += 1
        try:
            result = yield from self.protocol.on_put(
                self, msg.args["key"], msg.args["data"],
                tags=msg.args.get("tags", ()), src=origin)
        finally:
            self.inflight -= 1
        self._notify_latency("put", self.sim.now - start, origin)
        return result

    def rpc_forward_remove(self, msg: Message) -> Generator:
        yield from self.gate.passage
        start = self.sim.now
        origin = msg.args.get("origin", msg.src)
        self.note_request(origin)
        self.inflight += 1
        try:
            result = yield from self.protocol.on_remove(
                self, msg.args["key"], msg.args.get("version"), src=origin)
        finally:
            self.inflight -= 1
        self._notify_latency("remove", self.sim.now - start, origin)
        return result

    def key_state(self) -> dict[str, Stamp]:
        """The latest version's stamp per key, in zero sim-time.

        The shared walk behind the anti-entropy digest RPC and the
        harness's canonical store rows
        (:meth:`repro.bench.harness.Deployment.store_rows`).
        """
        keys = {}
        for record in self.meta.records():
            meta = record.latest()
            if meta is not None:
                keys[record.key] = meta.stamp
        return keys

    def readable(self, key: str, version: int) -> bool:
        """Whether a tier here holds the bytes of ``key`` v``version``, not
        just its metadata (a host crash wipes volatile tiers only)."""
        record = self.meta.get_record(key)
        meta = record.versions.get(version) if record is not None else None
        if meta is None:
            return False
        skey = storage_key(key, version)
        return any(skey in self.tiers[t]
                   for t in meta.locations if t in self.tiers)

    def rpc_digest(self, msg: Message) -> Generator:
        """The latest stamp per key: what :meth:`sync_to` compares its own
        against."""
        yield self.sim.timeout(METADATA_WRITE_LATENCY)
        return {"keys": self.key_state(), "instance": self.instance_id}

    def rpc_check_readable(self, msg: Message) -> Generator:
        """:meth:`readable` for specific (key, version) pairs: unlike
        ``digest`` it checks the *bytes*, which the EC fragment repairer
        relies on."""
        yield self.sim.timeout(METADATA_WRITE_LATENCY)
        missing = [key for key, version in msg.args["items"]
                   if not self.readable(key, version)]
        return {"missing": missing, "instance": self.instance_id}

    def rpc_reconstruct_fragment(self, msg: Message) -> Generator:
        """Rebuild one erasure-coded fragment locally from named sources.

        Delegated to the consistency protocol: only protocols that manage
        fragments (:class:`repro.ec.protocol.ECProtocol`) implement it.
        """
        handler = getattr(self.protocol, "on_reconstruct_fragment", None)
        if handler is None:
            raise TieraError(
                f"{self.instance_id}: protocol {self.protocol.name!r} "
                f"does not reconstruct fragments")
        self.note_request(msg.args.get("origin", msg.src))
        result = yield from handler(self, msg.args)
        return result

    def rpc_manifest_remap(self, msg: Message) -> Generator:
        """Apply a repair round's fragment-map deltas to locally held EC
        manifests."""
        handler = getattr(self.protocol, "on_manifest_remap", None)
        if handler is None:
            raise TieraError(
                f"{self.instance_id}: protocol {self.protocol.name!r} "
                f"does not hold EC manifests")
        result = yield from handler(self, msg.args)
        return result

    def rpc_ec_prewrite(self, msg: Message) -> Generator:
        """An EC put's pre-write of this holder's fragment and pending
        manifest (:meth:`repro.ec.protocol.ECProtocol.on_prewrite`)."""
        self.note_request(msg.args["origin"])
        result = yield from self.protocol.on_prewrite(self, msg.args)
        return result

    def rpc_finalise(self, msg: Message) -> Generator:
        """:meth:`finalise`: no storage op and no sim time, so a batch
        entry of it costs the holder nothing beyond its message."""
        self.finalise(msg.args["key"], msg.args["version"])
        return
        yield  # pragma: no cover

    def rpc_peer_get(self, msg: Message) -> Generator:
        """A local version (the latest by default; with ``final``, the
        newest one not pending) and its metadata."""
        key, version = msg.args["key"], msg.args.get("version")
        if msg.args.get("final"):
            final = self._record_or_raise(key).final_versions()
            if not final:
                raise ObjectMissingError(
                    f"{self.instance_id}: no final version of {key!r}")
            version = final[-1]
        data, meta, record = yield from self.read_version(key, version)
        return {"data": data, "version": meta.version,
                "latest_local": record.latest_version,
                "last_modified": meta.last_modified,
                "origin": meta.origin, "pending": meta.pending}

    def rpc_probe(self, msg: Message) -> Generator:
        yield self.sim.timeout(0.00005)
        return {"t": self.sim.now, "instance": self.instance_id}

    def rpc_stats(self, msg: Message) -> Generator:
        yield self.sim.timeout(METADATA_WRITE_LATENCY)
        return {
            "instance": self.instance_id,
            "region": self.region,
            "objects": self.meta.record_count(),
            "puts_from_app": self.puts_from_app,
            "gets_from_app": self.gets_from_app,
            "tiers": {name: {"used": b.used_bytes, "objects": len(b)}
                      for name, b in self.tiers.items()},
        }

    # -- raw tier access (modular instances, §3.2.2) -----------------------
    def rpc_tier_put(self, msg: Message) -> Generator:
        backend = self.tier(msg.args["tier"])
        yield from backend.write(msg.args["skey"], msg.args["data"])
        return {"stored": True}

    def rpc_tier_get(self, msg: Message) -> Generator:
        backend = self.tier(msg.args["tier"])
        data = yield from backend.read(msg.args["skey"])
        return {"data": data}

    def rpc_tier_delete(self, msg: Message) -> Generator:
        backend = self.tier(msg.args["tier"])
        skey = msg.args["skey"]
        if skey in backend:
            yield from backend.delete(skey)
            return {"deleted": True}
        return {"deleted": False}

    # -- control plane (driven by Wiera's Tiera Instance Manager) -----------
    def rpc_ctl_close_gate(self, msg: Message) -> Generator:
        """Block new application requests (consistency switch in progress)."""
        yield self.sim.timeout(0.00005)
        self.gate.close()
        return {"closed": True}

    def rpc_ctl_open_gate(self, msg: Message) -> Generator:
        yield self.sim.timeout(0.00005)
        self.gate.open()
        return {"opened": True}

    def rpc_ctl_drain(self, msg: Message) -> Generator:
        """Apply all in-progress and queued operations before a policy
        change ("all operations in progress (or queued) ... applied
        first", §3.3.2)."""
        while self.inflight > 0:
            yield self.sim.timeout(0.005)
        yield from self.protocol.drain(self)
        # Report what is *still* queued so the caller (the TIM's
        # switch_consistency) can refuse to silently drop it.
        return {"drained": True,
                "pending": self.protocol.pending_count(self)}

    def rpc_ctl_set_protocol(self, msg: Message) -> Generator:
        yield self.sim.timeout(0.0001)
        old = self._set_protocol(msg.args["protocol"])
        return {"protocol": self.protocol.name, "previous": old.name}

    def rpc_ctl_set_peers(self, msg: Message) -> Generator:
        """Install the peer table propagated by the TIM (step 6 of §4.1)."""
        yield self.sim.timeout(0.0001)
        self.peers = dict(msg.args["peers"])
        self.peers.pop(self.instance_id, None)
        return {"peers": sorted(self.peers)}

    def rpc_ctl_add_tier(self, msg: Message) -> Generator:
        """Attach an externally-built tier (e.g. a shared InstanceTier)."""
        yield self.sim.timeout(0.0001)
        name, backend = msg.args["name"], msg.args["backend"]
        if name in self.tiers:
            raise TieraError(f"{self.instance_id}: tier {name!r} exists")
        self.tiers[name] = backend
        return {"added": name}

    def rpc_ctl_set_redirect(self, msg: Message) -> Generator:
        """Install/clear a get-forwarding redirect (load balancing)."""
        yield self.sim.timeout(0.00005)
        peer_id = msg.args.get("peer")
        if peer_id is None:
            self.get_redirect = None
        else:
            self.get_redirect = (peer_id, float(msg.args["fraction"]))
        return {"redirect": self.get_redirect}

    def rpc_ctl_set_shard(self, msg: Message) -> Generator:
        """Install this instance's ownership guard under a published map
        (None: the namespace has one shard) and, when the map changed
        the namespace's members (§4.4), the epoch its replies name."""
        yield self.sim.timeout(0.00005)
        self.shard_guard = msg.args["guard"]
        self.epoch = msg.args.get("epoch", self.epoch)
        return {"epoch": self.epoch}

    def rpc_ctl_set_handoff(self, msg: Message) -> Generator:
        """Open/close the dual-write window of a live rebalance."""
        yield self.sim.timeout(0.00005)
        self.shard_handoff = msg.args.get("handoff")
        return {"handoff": self.shard_handoff is not None}

    def rpc_ctl_sync_to(self, msg: Message) -> Generator:
        """:meth:`sync_to` the replica at ``dest``, instance to instance
        (Wiera off the data path): a shard migration's bulk copy and a
        §4.4 replacement's catch-up."""
        landed, failed, theirs = yield from self.sync_to(
            msg.args["dest"], msg.args.get("keys"),
            batch_bytes=msg.args.get("batch_bytes", 0.0))
        return {"landed": landed, "failed": failed, "theirs": theirs,
                "instance": self.instance_id}

    def rpc_ctl_purge_misowned(self, msg: Message) -> Generator:
        """Drop local copies of keys the (new) shard guard assigns
        elsewhere — run after a rebalance cutover has landed them on
        their new owner, so ceded ranges don't linger as stale state."""
        yield self.sim.timeout(METADATA_WRITE_LATENCY)
        guard = self.shard_guard
        purged = 0
        if guard is None:
            return {"purged": 0}
        for record in list(self.meta.records()):
            if not guard.owns(record.key):
                yield from self.local_remove(record.key)
                purged += 1
        return {"purged": purged}

    def rpc_ctl_demote_cold(self, msg: Message) -> Generator:
        """Move versions idle for >= ``age`` seconds to ``to_tier``;
        returns the demoted (key, version) pairs."""
        age, to_tier = msg.args["age"], msg.args["to_tier"]
        now = self.sim.now
        demoted = []
        for record in list(self.meta.records()):
            meta = record.latest()
            if meta is None or now - meta.last_accessed < age:
                continue
            if meta.locations == {to_tier}:
                continue
            yield from self.move_version(record.key, meta.version, to_tier)
            demoted.append((record.key, meta.version))
        return {"demoted": demoted}

    def rpc_ctl_adopt_remote_cold(self, msg: Message) -> Generator:
        """Drop local bytes for the given versions and point their location
        at a shared remote tier (the centralized cold store of §5.3)."""
        tier_name = msg.args["tier"]
        shared = self.tier(tier_name)
        adopted = 0
        for key, version in msg.args["objects"]:
            record = self.meta.get_record(key)
            if record is None or version not in record.versions:
                continue
            meta = record.versions[version]
            skey = storage_key(key, version)
            for loc in list(meta.locations):
                backend = self.tiers.get(loc)
                if backend is not None and loc != tier_name and skey in backend:
                    yield from backend.delete(skey)
                meta.locations.discard(loc)
            if hasattr(shared, "mark_known"):
                shared.mark_known(skey)
            meta.locations.add(tier_name)
            adopted += 1
        yield self.sim.timeout(METADATA_WRITE_LATENCY)
        return {"adopted": adopted}

    def __repr__(self) -> str:
        return (f"<TieraInstance {self.instance_id}@{self.region} "
                f"policy={self.policy.name} tiers={list(self.tiers)}>")
