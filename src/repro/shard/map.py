"""Shard map, ownership guard, and the per-namespace shard manager.

Every namespace is N >= 1 ordinary Wiera instances, each running its own
consistency protocol over its own replica group, with the keyspace split
between them by a :class:`~repro.shard.ring.HashRing`.  One shard is
named after its namespace (``{base}``); N > 1 shards are ``{base}-s0`` ..
``{base}-s{N-1}``, and a later shard takes the next ordinal.  The
:class:`ShardManager` on the WieraService owns the authoritative,
epoch-numbered :class:`ShardMap`; clients cache a snapshot and, once the
namespace has more than one shard, instances enforce it with a
:class:`ShardGuard`.

The epoch/redirect protocol: every map publication bumps ``epoch``.  An
instance whose guard says a key belongs elsewhere raises
:class:`WrongShardError` (carrying its epoch) instead of serving the
request; the client catches it, refreshes its cached map from the
service (``get_instances``), and retries against the new owner.  A stale
client therefore never silently reads or writes the wrong shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.core.tim import TieraInstanceManager
from repro.obs.api import get_obs
from repro.shard.ring import HashRing
from repro.sim.primitives import Gate, shielded


class ShardError(RuntimeError):
    pass


class WrongShardError(RuntimeError):
    """The contacted shard does not own the key under its current map.

    Deliberately *not* a NetworkError/RpcError subclass: the client must
    treat it as a redirect (refresh the map, re-route), not as an
    instance failure to sweep past.
    """

    def __init__(self, message: str, key: str, owner: str, epoch: int):
        super().__init__(message)
        self.key = key
        self.owner = owner     # shard id that owns the key now
        self.epoch = epoch     # epoch of the rejecting guard


@dataclass(frozen=True)
class ShardMap:
    """One immutable published partition of the namespace."""

    epoch: int
    ring: HashRing
    #: shard id -> instance-info dicts (the ``TIM.members()`` shape)
    shards: dict[str, tuple[dict, ...]] = field(default_factory=dict)

    @classmethod
    def single(cls, shard_id: str, instances, epoch: int) -> "ShardMap":
        return cls(epoch=epoch, ring=HashRing([shard_id]),
                   shards={shard_id: tuple(instances)})

    def owner(self, key: str) -> str:
        return self.ring.owner(key)

    def guard(self, shard_id: str) -> "ShardGuard":
        return ShardGuard(shard_id, self.ring, self.epoch)

    def all_instances(self) -> list[dict]:
        return [info for shard_id in sorted(self.shards)
                for info in self.shards[shard_id]]


class ShardGuard:
    """Server-side ownership check installed on every Tiera instance.

    The guard is shipped to instances over ``ctl_set_shard`` so the tiera
    layer never imports shard code; it only calls ``check(key)`` on the
    app-facing RPC paths.
    """

    def __init__(self, shard_id: str, ring: HashRing, epoch: int):
        self.shard_id = shard_id
        self.ring = ring
        self.epoch = epoch

    def owns(self, key: str) -> bool:
        return self.ring.owner(key) == self.shard_id

    def check(self, key: str) -> None:
        owner = self.ring.owner(key)
        if owner != self.shard_id:
            raise WrongShardError(
                f"{key!r} belongs to {owner} (epoch {self.epoch}), "
                f"not {self.shard_id}", key=key, owner=owner,
                epoch=self.epoch)

    def __repr__(self) -> str:
        return f"<ShardGuard {self.shard_id} epoch={self.epoch}>"


class HandoffSpec:
    """Dual-write window descriptor installed on a migration *source*.

    While a rebalance is in flight, every acknowledged write on the
    source shard whose key moves under ``ring_new`` is also forwarded
    (fire-and-forget ``replica_update``/``replica_remove``) to all
    instances of the key's new owner, so the destination converges live
    and the final cutover sweep only has to cover forwards lost to
    faults.
    """

    def __init__(self, shard_id: str, ring_new: HashRing,
                 dest_nodes: dict[str, tuple]):
        self.shard_id = shard_id
        self.ring_new = ring_new
        self._dest_nodes = dest_nodes   # shard id -> tuple[RpcNode]

    def moves(self, key: str) -> Optional[str]:
        """The new owning shard id if ``key`` leaves this shard, else None."""
        owner = self.ring_new.owner(key)
        return owner if owner != self.shard_id else None

    def dest_nodes(self, shard_id: str) -> tuple:
        return self._dest_nodes.get(shard_id, ())


@dataclass
class ShardHandle:
    """What the harness hands back for one namespace."""

    base_id: str
    map: ShardMap


class ShardManager:
    """Authoritative shard state for one namespace.

    Lives on the WieraService; launches the per-shard Wiera instances,
    publishes :class:`ShardMap` epochs, and installs/updates the guards.
    Add/remove of shards delegates the data motion to
    :class:`~repro.shard.rebalance.Rebalancer`.
    """

    def __init__(self, sim, wiera, base_id: str, spec, shards: int):
        if shards < 1:
            raise ShardError("a namespace needs at least one shard")
        if shards > 1 and spec.redundancy is not None:
            raise ShardError(
                f"{base_id}: redundancy requires an unsharded namespace "
                "(fragment keys would hash away from their manifests)")
        self.sim = sim
        self.wiera = wiera
        self.base_id = base_id
        self.spec = spec
        self.initial_shards = shards
        self._seq = 0              # next shard ordinal
        self.epoch = 0
        self.map: Optional[ShardMap] = None
        self._publishing = Gate(sim)    # closed while one publisher runs
        self._obs = get_obs(sim)
        self._g_epoch = self._obs.metrics.gauge("shard.epoch",
                                                namespace=base_id)
        self._g_shards = self._obs.metrics.gauge("shard.count",
                                                 namespace=base_id)

    # -- bootstrap -----------------------------------------------------------
    def launch(self) -> Generator:
        """Start the initial shard set, publish epoch 1 and, over more
        than one shard, push each instance its guard."""
        return self.exclusive(self._launch())

    def _launch(self) -> Generator:
        shard_ids = [self._next_shard_id()
                     for _ in range(self.initial_shards)]
        for shard_id in shard_ids:
            yield from self.start_shard(shard_id)
        shard_map = self.publish(HashRing(shard_ids),
                                 self.members(shard_ids))
        if len(shard_ids) == 1:
            return shard_map   # one shard owns every key: no guard
        for shard_id in sorted(shard_ids):
            args = {"guard": shard_map.guard(shard_id)}
            for info in shard_map.shards[shard_id]:
                yield from self.wiera.node.invoke(
                    info["node"], "ctl_set_shard", args)
        return shard_map

    def start_shard(self, shard_id: str) -> Generator:
        """Launch shard ``shard_id``'s Wiera instance (§4.1 steps 1-8)."""
        tims = self.wiera.tims
        if shard_id in tims:
            raise ShardError(f"{shard_id!r} already names a wiera instance")
        tims[shard_id] = tim = TieraInstanceManager(
            self.sim, self.wiera.network, self.wiera, shard_id, self.spec,
            self.wiera.lock_node, self)
        yield from tim.launch()

    def stop_shard(self, shard_id: str) -> Generator:
        """Stop shard ``shard_id``'s instances and forget it."""
        yield from self.wiera.tims.pop(shard_id).stop()

    def _next_shard_id(self) -> str:
        if self._seq == 0 and self.initial_shards == 1:
            shard_id = self.base_id   # one shard is named after its namespace
        else:
            shard_id = f"{self.base_id}-s{self._seq}"
        self._seq += 1
        return shard_id

    def members(self, shard_ids) -> dict[str, tuple[dict, ...]]:
        return {shard_id: tuple(self.wiera.tim(shard_id).members())
                for shard_id in shard_ids}

    # -- map publication -----------------------------------------------------
    def publish(self, ring: HashRing,
                shards: dict[str, tuple[dict, ...]]) -> ShardMap:
        return self.commit(ShardMap(epoch=self.epoch + 1, ring=ring,
                                    shards=dict(shards)))

    def republish(self, tim) -> Generator:
        """§4.4 recovery in shard ``tim``: the next epoch, same ring,
        current members; ``tim``'s instances get their guard under it and
        the epoch to name."""
        return self.exclusive(self._republish(tim))

    def _republish(self, tim) -> Generator:
        shard_map = self.publish(self.map.ring, self.members(self.map.shards))
        guard = (shard_map.guard(tim.wiera_instance_id)
                 if len(shard_map.shards) > 1 else None)
        yield from tim.broadcast("ctl_set_shard", {
            "guard": guard, "epoch": shard_map.epoch})

    def exclusive(self, body: Generator) -> Generator:
        """Run ``body`` as the namespace's one publisher.  A launch, a
        migration and a §4.4 republish each commit the next epoch and push
        guards under it; run at once, two would commit the same epoch and
        leave instances guarding a ring the map does not use."""
        while self._publishing.passage:
            yield from self._publishing.passage
        self._publishing.close()
        try:
            return (yield from body)
        finally:
            self._publishing.open()

    def commit(self, shard_map: ShardMap) -> ShardMap:
        """Make ``shard_map`` the authoritative published map."""
        if shard_map.epoch != self.epoch + 1:
            raise ShardError(
                f"epoch must advance by one: {self.epoch} -> "
                f"{shard_map.epoch}")
        self.epoch = shard_map.epoch
        self.map = shard_map
        self._g_epoch.set(self.epoch)
        self._g_shards.set(len(shard_map.shards))
        return self.map

    # -- elasticity ----------------------------------------------------------
    # A migration gates sources and installs handoffs over many calls, so
    # it is shielded like TIM.switch_consistency: a stop ends the caller.
    def add_shard(self, retry_policy=None) -> Generator:
        """Grow the namespace by one shard, migrating only remapped ranges."""
        from repro.shard.rebalance import Rebalancer
        rebalancer = Rebalancer(self, retry_policy=retry_policy)
        return shielded(self.sim, self.exclusive(rebalancer.add_shard()))

    def remove_shard(self, shard_id: str, retry_policy=None) -> Generator:
        """Shrink the namespace, draining ``shard_id``'s keys to the rest."""
        from repro.shard.rebalance import Rebalancer
        rebalancer = Rebalancer(self, retry_policy=retry_policy)
        return shielded(self.sim,
                        self.exclusive(rebalancer.remove_shard(shard_id)))
