"""PrimaryBackup consistency (Figure 3(b)).

One instance is the *primary*; every other instance forwards puts to it.
The primary propagates updates to backups either synchronously (the
``copy`` response — minimizes get staleness) or asynchronously (the
``queue`` response — minimizes put latency), per configuration.

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

from repro.core.consistency.base import (
    GlobalProtocol,
    ProtocolError,
    ReplicationQueue,
)
from repro.core.consistency.repair import AntiEntropyRepairer
from repro.faults.retry import RetryPolicy, call_with_retries


@dataclass
class PrimaryBackupConfig:
    """Shared, mutable protocol configuration."""

    primary_id: str
    sync_replication: bool = True     # copy (sync) vs queue (async)
    queue_interval: float = 1.0       # flush period for async mode
    get_from: Optional[str] = None    # None=local; "primary"; or instance id
    repair_interval: Optional[float] = None  # anti-entropy period (off=None)
    batch_bytes: float = 0.0          # early-flush / repair-batch size
    history: list = field(default_factory=list)  # (time, primary_id)


class PrimaryBackupProtocol(GlobalProtocol):
    """Single-primary replication with configurable update propagation."""

    name = "primary_backup"

    def __init__(self, config: PrimaryBackupConfig,
                 retry_policy: Optional[RetryPolicy] = None):
        self.config = config
        self.retry_policy = retry_policy or RetryPolicy()
        self.forwarded_puts = 0
        self.forwarded_removes = 0
        self._queues: dict[str, ReplicationQueue] = {}
        self._repairers: dict[str, AntiEntropyRepairer] = {}

    # -- lifecycle -----------------------------------------------------------
    def attach(self, instance) -> None:
        if not self.config.sync_replication:
            self.queue_for(instance)
        if self.config.repair_interval is not None:
            # Only the primary originates updates, so only it pushes repairs;
            # the gate re-checks at every round so it follows ChangePrimary.
            repairer = AntiEntropyRepairer(
                instance, self.config.repair_interval,
                queue_for=lambda inst: self._queues.get(inst.instance_id),
                should_push=self.is_primary,
                batch_bytes=self.config.batch_bytes)
            self._repairers[instance.instance_id] = repairer
            repairer.start()

    def detach(self, instance) -> None:
        repairer = self._repairers.pop(instance.instance_id, None)
        if repairer is not None:
            repairer.stop()
        queue = self._queues.pop(instance.instance_id, None)
        if queue is not None:
            queue.stop()  # anything still queued is counted pending_dropped

    def queue_for(self, instance) -> ReplicationQueue:
        queue = self._queues.get(instance.instance_id)
        if queue is None:
            queue = ReplicationQueue(instance, self.config.queue_interval,
                                     retry_policy=self.retry_policy,
                                     batch_bytes=self.config.batch_bytes)
            self._queues[instance.instance_id] = queue
            queue.start()
        return queue

    # -- helpers -------------------------------------------------------------
    def is_primary(self, instance) -> bool:
        return instance.instance_id == self.config.primary_id

    def primary_ref(self, instance):
        ref = instance.peers.get(self.config.primary_id)
        if ref is None:
            raise ProtocolError(
                f"{instance.instance_id}: primary {self.config.primary_id!r} "
                f"not in peer table {sorted(instance.peers)}")
        return ref

    def set_primary(self, new_primary_id: str, now: float) -> str:
        previous = self.config.primary_id
        self.config.primary_id = new_primary_id
        self.config.history.append((now, new_primary_id))
        return previous

    def _forward(self, instance, method: str, args: dict,
                 size: int) -> Generator:
        """Forward a request to the primary with retry/backoff.

        The target is re-resolved from the shared config on every attempt,
        so retries survive a primary change (or restart) mid-request.
        """
        def make_call():
            ref = self.primary_ref(instance)
            return instance.node.call(ref.node, method, args, size=size)

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
            args = self.update_args(instance, key, version, data)
            if self.config.sync_replication:
                yield from self.broadcast_sync(instance, "replica_update",
                                               args, size=len(data) + 512)
            else:
                self.queue_for(instance).enqueue(args)
            return {"version": version, "region": instance.region,
                    "primary": instance.instance_id, "consistency": self.name}
        # Not the primary: forward (never re-forward a forwarded request —
        # the primary may have just changed under us).
        if src != "app":
            raise ProtocolError(
                f"{instance.instance_id}: forwarded put arrived at "
                f"non-primary (primary is {self.config.primary_id})")
        self.forwarded_puts += 1
        result = yield from self._forward(
            instance, "forward_put",
            {"key": key, "data": data, "tags": tuple(tags),
             "origin": instance.instance_id},
            size=len(data) + 512)
        return result

    def on_get(self, instance, key: str,
               version: Optional[int] = None) -> Generator:
        target = self.config.get_from
        if target == "primary" and not self.is_primary(instance):
            target = self.config.primary_id
        if target and target != instance.instance_id and target != "primary":
            ref = instance.peers.get(target)
            if ref is not None:
                result = yield from instance.node.invoke(
                    ref.node, "peer_get", {"key": key, "version": version})
                return result
        data, meta, record = yield from instance.read_version(key, version)
        return {"data": data, "version": meta.version,
                "latest_local": record.latest_version}

    def on_remove(self, instance, key: str,
                  version: Optional[int] = None,
                  src: str = "app") -> Generator:
        """Removes follow the same propagation mode as puts: applied at the
        primary, replicated synchronously (copy) or via the queue (queue),
        and forwarded from backups — never broadcast out-of-band."""
        if self.is_primary(instance):
            removed = yield from instance.local_remove(key, version)
            args = self.remove_args(instance, key, version)
            if self.config.sync_replication:
                yield from self.broadcast_sync(instance, "replica_remove",
                                               args, size=256)
            else:
                self.queue_for(instance).enqueue(args)
            return {"removed": removed, "primary": instance.instance_id}
        if src != "app":
            raise ProtocolError(
                f"{instance.instance_id}: forwarded remove arrived at "
                f"non-primary (primary is {self.config.primary_id})")
        self.forwarded_removes += 1
        result = yield from self._forward(
            instance, "forward_remove",
            {"key": key, "version": version, "origin": instance.instance_id},
            size=256)
        return result

    def drain(self, instance) -> Generator:
        queue = self._queues.get(instance.instance_id)
        if queue is not None:
            yield from queue.drain()

    def pending_count(self, instance) -> int:
        queue = self._queues.get(instance.instance_id)
        if queue is None:
            return 0
        return len(queue.pending) + queue.backlog_size()
