"""Live rebalancing: grow or shrink a sharded namespace under traffic.

Adding (or removing) a shard changes the ring, which remaps ~K/N of K
keys — and nothing else.  The :class:`Rebalancer` moves exactly those
ranges without losing an acknowledged write:

1. **Dual-write window** — a :class:`~repro.shard.map.HandoffSpec` is
   installed on every source instance, so each acknowledged write whose
   key moves is also forwarded (fire-and-forget, through the existing
   ``replica_update``/``replica_remove`` machinery) to the new owner's
   instances while the old owner keeps serving.
2. **Bulk copy** — one live digest-driven pass per (source instance,
   destination instance) pair, the source's ``sync_to``, pushes the
   current contents of the moving ranges; deliveries are idempotent (the
   destination's merge), so this can race freely with the dual writes.
3. **Cutover on drain** — source gates close (new requests queue, §3.3.2
   style), replication queues drain, and the digest sweep repeats until
   a full pass finds nothing left to move — so a partition mid-migration
   only *delays* the cutover until the network heals, it cannot make the
   cutover drop writes.  Then the new-epoch guards land on every
   instance, the map is published, moved keys are purged from the
   sources, and the gates reopen.  Clients still holding the old map get
   a ``WrongShardError`` redirect and refresh.

Every control call retries transient failures with capped backoff; the
whole migration is traced (``shard:migrate`` span) and metered
(``shard.keys_moved``, ``shard.migrations``, ``shard.migration_duration``).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.tim import gated
from repro.faults.retry import TRANSIENT_ERRORS, RetryPolicy
from repro.obs.api import get_obs
from repro.shard.map import HandoffSpec, ShardError, ShardMap
from repro.sim.primitives import window

#: retry posture for migration control traffic: patient, capped backoff.
#: max_attempts is intentionally large — a migration must outwait a
#: partition, not abandon half-moved ranges.
MIGRATION_RETRIES = RetryPolicy(max_attempts=200, base_delay=0.1,
                                max_delay=5.0, jitter=0.0)


class Rebalancer:
    """One add/remove-shard migration for one sharded namespace."""

    def __init__(self, manager, retry_policy: Optional[RetryPolicy] = None):
        self.manager = manager
        self.sim = manager.sim
        self.node = manager.wiera.node
        self.retry_policy = retry_policy or MIGRATION_RETRIES
        #: keys actually pushed to a new owner during this migration
        self.moved_keys: set[str] = set()
        self.sweep_rounds = 0
        self._obs = get_obs(self.sim)
        labels = {"namespace": manager.base_id}
        self._m_migrations = self._obs.metrics.counter("shard.migrations",
                                                       **labels)
        self._m_keys = self._obs.metrics.counter("shard.keys_moved", **labels)
        self._h_duration = self._obs.metrics.histogram(
            "shard.migration_duration", **labels)

    # -- public entry points -------------------------------------------------
    def add_shard(self) -> Generator:
        """Launch one more shard and migrate its ranges in."""
        mgr = self.manager
        old_map = mgr.map
        shard_id = mgr._next_shard_id()
        with self._obs.tracer.span("shard:add", cat="shard",
                                   component=f"shardmgr:{mgr.base_id}",
                                   shard=shard_id) as span:
            yield from mgr.start_shard(shard_id)
            ring_new = old_map.ring.copy()
            ring_new.add(shard_id)
            shards_new = mgr.members([*old_map.shards, shard_id])
            # Every existing shard cedes a slice to the newcomer.
            yield from self._migrate(old_map, ring_new, shards_new,
                                     sources=sorted(old_map.shards))
            span.set(keys_moved=len(self.moved_keys),
                     epoch=mgr.map.epoch)
        return {"shard": shard_id, "epoch": mgr.map.epoch,
                "keys_moved": len(self.moved_keys)}

    def remove_shard(self, shard_id: str) -> Generator:
        """Drain ``shard_id``'s ranges to the survivors and retire it."""
        mgr = self.manager
        old_map = mgr.map
        if shard_id not in old_map.shards:
            raise ShardError(f"{shard_id!r} is not a shard of "
                             f"{mgr.base_id!r}")
        if len(old_map.shards) == 1:
            raise ShardError("cannot remove the last shard")
        with self._obs.tracer.span("shard:remove", cat="shard",
                                   component=f"shardmgr:{mgr.base_id}",
                                   shard=shard_id) as span:
            ring_new = old_map.ring.copy()
            ring_new.remove(shard_id)
            shards_new = mgr.members(sid for sid in old_map.shards
                                     if sid != shard_id)
            yield from self._migrate(old_map, ring_new, shards_new,
                                     sources=[shard_id], retiring=shard_id)
            yield from mgr.stop_shard(shard_id)
            span.set(keys_moved=len(self.moved_keys),
                     epoch=mgr.map.epoch)
        return {"removed": shard_id, "epoch": mgr.map.epoch,
                "keys_moved": len(self.moved_keys)}

    # -- the migration state machine ----------------------------------------
    def _migrate(self, old_map: ShardMap, ring_new, shards_new: dict,
                 sources: list[str],
                 retiring: Optional[str] = None) -> Generator:
        mgr = self.manager
        started = self.sim.now
        self._m_migrations.inc()
        # 1. Dual-write window: forwards cover writes racing the copy.
        handoffs = []
        for shard_id in sources:
            dest_nodes = {sid: tuple(info["node"] for info in infos)
                          for sid, infos in shards_new.items()
                          if sid != shard_id}
            handoff = HandoffSpec(shard_id, ring_new, dest_nodes)
            for rec in self._source_records(shard_id):
                yield from self._ctl(rec.node, "ctl_set_handoff",
                                     {"handoff": handoff})
                handoffs.append(rec)
        # 2. Bulk copy, live: one best-effort pass while traffic flows.
        yield from self._sweep_pass(old_map, ring_new, shards_new, sources,
                                    reconcile_removes=False)
        # 3. Cutover: gate, drain, sweep to convergence.
        sourced = [rec for shard_id in sources
                   for rec in self._source_records(shard_id)]

        def cutover(drained) -> Generator:
            rounds = 0
            while True:
                pending = yield from self._sweep_pass(
                    old_map, ring_new, shards_new, sources,
                    reconcile_removes=True)
                if pending == 0:
                    break
                rounds += 1
                yield self.sim.timeout(
                    self.retry_policy.backoff(min(rounds - 1, 6)))
            # 4. New epoch: guards first (under closed gates), then the
            # map, listing each shard's members now (§4.4 may have moved
            # them).  Replies keep naming the membership epoch: a client
            # learns of a ring change from a redirect.
            new_map = ShardMap(epoch=mgr.epoch + 1, ring=ring_new,
                               shards=mgr.members(shards_new))
            for shard_id in sorted(new_map.shards):
                yield from self._install_guard(new_map, shard_id)
            if retiring is not None:
                # The retiring shard keeps a guard too, so any straggler
                # request is redirected rather than served from dying
                # state.
                yield from self._install_guard(
                    new_map, retiring,
                    records=self._source_records(retiring))
            mgr.commit(new_map)
            # 5. Clear the dual-write window and drop ceded ranges.
            for rec in handoffs:
                yield from self._ctl(rec.node, "ctl_set_handoff",
                                     {"handoff": None})
            for shard_id in sources:
                if shard_id == retiring:
                    continue   # about to be stopped wholesale
                for rec in self._source_records(shard_id):
                    yield from self._ctl(rec.node, "ctl_purge_misowned")
        yield from gated(self._ctl, sourced, sourced, cutover)
        self._h_duration.observe(self.sim.now - started)

    def _install_guard(self, shard_map: ShardMap, shard_id: str,
                       records=None) -> Generator:
        args = {"guard": shard_map.guard(shard_id)}
        if records is not None:
            nodes = [rec.node for rec in records]
        else:
            nodes = [info["node"] for info in shard_map.shards[shard_id]]
        for node in nodes:
            yield from self._ctl(node, "ctl_set_shard", args)

    def _sweep_pass(self, old_map: ShardMap, ring_new, shards_new: dict,
                    sources: list[str],
                    reconcile_removes: bool) -> Generator:
        """One digest-driven copy pass; returns how much remains unmoved.

        For each source instance, the keys whose owner changes under
        ``ring_new`` are synced (source → destination directly, through
        :meth:`~repro.tiera.instance.TieraInstance.sync_to`; Wiera stays
        off the data path) to every instance of the new owner.  With
        ``reconcile_removes`` (cutover only, when no new source writes
        can race), keys the source has removed are also removed from the
        destination.
        """
        self.sweep_rounds += 1
        pending = 0
        for shard_id in sources:
            for rec in self._source_records(shard_id):
                try:
                    src_digest = yield from self.node.invoke(
                        rec.node, "digest", {})
                except TRANSIENT_ERRORS:
                    pending += 1
                    continue
                src_keys = src_digest["keys"]
                moving: dict[str, list[str]] = {}
                for key in src_keys:
                    dest = ring_new.owner(key)
                    if dest != shard_id:
                        moving.setdefault(dest, []).append(key)
                dest_ids = (sorted(set(shards_new) - {shard_id})
                            if reconcile_removes else sorted(moving))
                pairs = [(dest_id, info["node"],
                          sorted(moving.get(dest_id, ())))
                         for dest_id in dest_ids
                         for info in shards_new[dest_id]]
                # The live pass syncs one destination at a time beside the
                # traffic the source still serves.  The cutover's pairs run
                # side by side: its gates are closed, so every second of it
                # is load queued or shed, and after the live pass most of
                # its pairs are a digest exchange alone.
                if pairs:
                    unmoved = yield from window(
                        self.sim, len(pairs) if reconcile_removes else 1,
                        pairs, lambda pair: self._sync_pair(
                            rec, *pair, src_keys, old_map, ring_new,
                            shard_id, reconcile_removes),
                        f"rebalance:{rec.instance_id}:%d")
                    pending += sum(unmoved)
        return pending

    def _sync_pair(self, src_rec, dest_id: str, dest_node, to_dest: list,
                   src_keys: dict, old_map: ShardMap, ring_new,
                   source_id: str, reconcile_removes: bool) -> Generator:
        """Bring one destination instance up to date from one source."""
        try:
            result = yield from self.node.invoke(
                src_rec.node, "ctl_sync_to",
                {"dest": dest_node, "keys": to_dest,
                 "batch_bytes": self.manager.spec.batch_bytes})
        except TRANSIENT_ERRORS:
            return len(to_dest) or 1
        self.moved_keys.update(result["landed"])
        self._m_keys.inc(len(result["landed"]))
        failed = len(result["failed"])
        if reconcile_removes:
            # Keys the source removed after an earlier pass copied them.
            extra = [key for key in result["theirs"]
                     if key not in src_keys
                     and ring_new.owner(key) == dest_id
                     and old_map.ring.owner(key) == source_id]
            for key in sorted(extra):
                try:
                    yield from self.node.invoke(dest_node, "replica_remove",
                                                {"key": key, "version": None})
                except TRANSIENT_ERRORS:
                    failed += 1
        return failed

    # -- plumbing -----------------------------------------------------------
    def _source_records(self, shard_id: str):
        return self.manager.wiera.tim(shard_id).alive_records()

    def _ctl(self, node, method: str, args: Optional[dict] = None) -> Generator:
        """A control RPC that outwaits transient faults with capped backoff."""
        policy = self.retry_policy
        for attempt in range(policy.max_attempts):
            if attempt:
                yield self.sim.timeout(policy.backoff(min(attempt - 1, 6)))
            try:
                result = yield from self.node.invoke(node, method, args or {})
                return result
            except TRANSIENT_ERRORS as exc:
                last_error = exc
        raise last_error
