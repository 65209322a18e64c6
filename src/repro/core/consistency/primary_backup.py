"""PrimaryBackup consistency (Figure 3(b)).

One instance is the *primary*; every other instance forwards puts to it.
The primary propagates updates to backups either synchronously (the
``copy`` response — minimizes get staleness) or asynchronously (the
``queue`` response — minimizes put latency), per configuration; removes
take the same path.  The queue, repairer and local read are
``GlobalProtocol``'s.

The shared :class:`PrimaryBackupConfig` is the single source of truth for
who the primary is; Wiera's ChangePrimary dynamic policy (Figure 5(b))
rewrites it after quiescing the group, and all instances immediately
follow the new primary.

Forwarded requests are retried with backoff: each attempt re-resolves the
primary from the shared config, so a retry issued while ChangePrimary is
in flight lands on the *new* primary instead of hammering the dead one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.core.consistency.base import GlobalProtocol, ProtocolError
from repro.faults.retry import call_with_retries


@dataclass
class PrimaryBackupConfig:
    """Shared, mutable protocol configuration."""

    primary_id: str
    sync_replication: bool = True     # copy (sync) vs queue (async)
    get_from: Optional[str] = None    # None=local; "primary"; or instance id
    history: list = field(default_factory=list)  # (time, primary_id)


class PrimaryBackupProtocol(GlobalProtocol):
    """Single-primary replication with configurable update propagation."""

    name = "primary_backup"

    def __init__(self, config: PrimaryBackupConfig, **plane):
        super().__init__(**plane)  # queue_interval, repair_interval, ...
        self.config = config
        self.forwarded_puts = 0
        self.forwarded_removes = 0

    @property
    def lazy(self) -> bool:
        return not self.config.sync_replication

    def _new_repairer(self, instance):
        # Only the primary originates updates, so only it pushes repairs;
        # the gate re-checks at every round so it follows ChangePrimary.
        return super()._new_repairer(instance, should_push=self.is_primary)

    # -- helpers -------------------------------------------------------------
    def is_primary(self, instance) -> bool:
        return instance.instance_id == self.config.primary_id

    def set_primary(self, new_primary_id: str, now: float) -> str:
        previous = self.config.primary_id
        self.config.primary_id = new_primary_id
        self.config.history.append((now, new_primary_id))
        return previous

    def _replicate(self, instance, method: str, args: dict) -> Generator:
        """Ship the primary's write to the backups: copy or queue."""
        if self.config.sync_replication:
            yield from self.broadcast_sync(instance, method, args)
        else:
            self.queue_for(instance).enqueue(args)

    def _refuse_reforward(self, instance, op: str, src: str) -> None:
        # The primary may have just changed under us: never re-forward.
        if src != "app":
            raise ProtocolError(
                f"{instance.instance_id}: forwarded {op} arrived at "
                f"non-primary (primary is {self.config.primary_id})")

    def _forward(self, instance, method: str, args: dict) -> Generator:
        """Forward a request to the primary with retry/backoff.

        The target is re-resolved from the shared config on every attempt,
        so retries survive a primary change (or restart) mid-request.
        """
        def make_call():
            ref = instance.peers.get(self.config.primary_id)
            if ref is None:
                raise ProtocolError(
                    f"{instance.instance_id}: primary "
                    f"{self.config.primary_id!r} not in peer table "
                    f"{sorted(instance.peers)}")
            return instance.node.call(ref.node, method, args)

        result = yield from call_with_retries(
            instance.sim, make_call, self.retry_policy,
            rng=instance.rng.stream(f"{instance.instance_id}.fwd"),
            label=method)
        return result

    # -- data path -------------------------------------------------------------
    def on_put(self, instance, key: str, data: bytes, tags=(),
               src: str = "app") -> Generator:
        if self.is_primary(instance):
            version = yield from instance.local_put(key, data, tags=tags)
            yield from self._replicate(
                instance, "replica_update",
                self.update_args(instance, key, version, data))
            return {"version": version, "region": instance.region,
                    "primary": instance.instance_id, "consistency": self.name}
        self._refuse_reforward(instance, "put", src)
        self.forwarded_puts += 1
        result = yield from self._forward(
            instance, "forward_put",
            {"key": key, "data": data, "tags": tuple(tags),
             "origin": instance.instance_id})
        return result

    def on_get(self, instance, key: str,
               version: Optional[int] = None) -> Generator:
        target = self.config.get_from
        if target == "primary":
            target = self.config.primary_id
        ref = (instance.peers.get(target)
               if target != instance.instance_id else None)
        if ref is not None:
            result = yield from instance.node.invoke(
                ref.node, "peer_get", {"key": key, "version": version})
            return result
        result = yield from super().on_get(instance, key, version)
        return result

    def on_remove(self, instance, key: str,
                  version: Optional[int] = None,
                  src: str = "app") -> Generator:
        if self.is_primary(instance):
            removed = yield from instance.local_remove(key, version)
            yield from self._replicate(
                instance, "replica_remove",
                self.remove_args(instance, key, version))
            return {"removed": removed, "primary": instance.instance_id}
        self._refuse_reforward(instance, "remove", src)
        self.forwarded_removes += 1
        result = yield from self._forward(
            instance, "forward_remove",
            {"key": key, "version": version, "origin": instance.instance_id})
        return result
