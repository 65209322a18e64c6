"""Protocol base class, replication queue, and broadcast helper.

A single protocol object is shared by every instance of one Wiera
instance: all its methods take the acting ``instance`` explicitly and any
per-instance state (replication queues, repairers) is keyed by instance
id.  Sharing one object is what makes runtime changes cheap — flipping the
primary is one field write in a shared config, after the TIM has quiesced
the group.

Failure handling: a lazy update whose send fails is *never* silently
dropped.  It moves to a per-peer retry backlog and is re-shipped with
capped exponential backoff (:class:`~repro.faults.RetryPolicy`); entries
that exhaust their attempts are left to the anti-entropy repairer
(:mod:`repro.core.consistency.repair`).  The queue tracks every
(peer, key) delivery failure until something — a retry, a fresh write, or
a repair round — lands that key on that peer, so ``outstanding_failures``
is the live count of known replica divergence.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, Optional

from repro.core.consistency.repair import AntiEntropyRepairer
from repro.faults.retry import RetryPolicy
from repro.net.network import NetworkError
from repro.obs.api import get_obs
from repro.sim.rpc import request_size


class ProtocolError(RuntimeError):
    pass


class GlobalProtocol:
    """What every consistency protocol shares: the per-instance queue and
    repairer, the local read and the LWW apply.  A subclass adds how a
    write propagates (``on_put``/``on_remove``) and sets ``lazy`` if it
    queues."""

    name = "abstract"
    #: writes ship through a per-instance ReplicationQueue, started at attach
    lazy = False

    def __init__(self, queue_interval: float = 1.0,
                 repair_interval: Optional[float] = None,
                 batch_bytes: float = 0.0):
        self.queue_interval = queue_interval
        self.repair_interval = repair_interval  # None: no repairer
        self.batch_bytes = batch_bytes          # early-flush / repair batch
        self.retry_policy = RetryPolicy()
        self._queues: dict[str, ReplicationQueue] = {}
        self._repairers: dict[str, object] = {}

    # -- per-instance lifecycle ----------------------------------------------
    def attach(self, instance) -> None:
        """Called when this protocol becomes active on ``instance``."""
        if self.lazy:
            self.queue_for(instance)
        if self.repair_interval is not None:
            repairer = self._new_repairer(instance)
            self._repairers[instance.instance_id] = repairer
            repairer.start()

    def detach(self, instance) -> None:
        """Called when the protocol is being replaced on ``instance``."""
        repairer = self._repairers.pop(instance.instance_id, None)
        if repairer is not None:
            repairer.stop()
        queue = self._queues.pop(instance.instance_id, None)
        if queue is not None:
            queue.stop()  # anything still queued is counted pending_dropped

    def queue_for(self, instance) -> ReplicationQueue:
        queue = self._queues.get(instance.instance_id)
        if queue is None:
            queue = ReplicationQueue(instance, self.queue_interval,
                                     retry_policy=self.retry_policy,
                                     batch_bytes=self.batch_bytes)
            self._queues[instance.instance_id] = queue
            queue.start()
        return queue

    def repairer(self, instance_id: str):
        """The repair loop attached for ``instance_id`` (None if absent)."""
        return self._repairers.get(instance_id)

    def _new_repairer(self, instance, should_push=None):
        """The repairer :meth:`attach` starts: anti-entropy, pushing from
        every instance unless ``should_push`` gates it."""
        return AntiEntropyRepairer(
            instance, self.repair_interval,
            queue_for=lambda inst: self._queues.get(inst.instance_id),
            should_push=should_push, batch_bytes=self.batch_bytes)

    def repair_once(self, instance) -> Generator:
        """One repair round at ``instance``: its running repairer's, or that
        of a repairer of its kind built for the round and never started."""
        repairer = (self._repairers.get(instance.instance_id)
                    or self._new_repairer(instance))
        yield from repairer.repair_round()

    def drain(self, instance) -> Generator:
        queue = self._queues.get(instance.instance_id)
        if queue is not None:
            yield from queue.drain()

    def pending_count(self, instance) -> int:
        """Updates still queued/backlogged for ``instance`` (0 if none)."""
        queue = self._queues.get(instance.instance_id)
        if queue is None:
            return 0
        return len(queue.pending) + queue.backlog_size()

    # -- data path (a subclass adds on_put and on_remove) ---------------------
    def on_get(self, instance, key: str,
               version: Optional[int] = None) -> Generator:
        """Local read, tagging whether it is the known-latest version."""
        data, meta, record = yield from instance.read_version(key, version)
        return {"data": data, "version": meta.version,
                "latest_local": record.latest_version}

    def on_replica_update(self, instance, args: dict) -> Generator:
        """Last-write-wins merge of a peer's update (§4.2); an EC put's
        pre-written manifest arrives ``pending``."""
        return instance.apply_replica_update(
            key=args["key"], version=args["version"],
            last_modified=args["last_modified"], data=args["data"],
            origin=args.get("origin", ""),
            pending=args.get("pending", False))

    def on_replica_remove(self, instance, args: dict) -> Generator:
        removed = yield from instance.local_remove(args["key"],
                                                   args.get("version"))
        return {"removed": removed}

    # -- shared helpers -------------------------------------------------------
    @staticmethod
    def update_args(instance, key: str, version: int, data: bytes) -> dict:
        record = instance.meta.get_record(key)
        meta = record.versions[version]
        return {"key": key, "version": version,
                "last_modified": meta.last_modified,
                "origin": instance.instance_id, "data": data}

    @staticmethod
    def remove_args(instance, key: str, version: Optional[int]) -> dict:
        return {"op": "remove", "key": key, "version": version,
                "last_modified": instance.sim.now,
                "origin": instance.instance_id}

    def broadcast_sync(self, instance, method: str, args: dict) -> Generator:
        """Call every peer in parallel; wait for all replies.

        A peer that is down/partitioned — or whose handler rejects the
        update — raises: MultiPrimaries treats that as a failed put
        (strong consistency cannot silently lose a replica).
        """
        calls = [instance.node.call(peer.node, method, args)
                 for peer in instance.peers.values()]
        if calls:
            yield instance.sim.all_of(calls)


def _entry_sort_key(args: dict) -> tuple:
    """Ordering key for one instance's own queued entries: time, then
    version.

    Not the last-write-wins order (:data:`~repro.tiera.objects.Stamp`,
    which the receiving replica's merge applies): it picks which of this
    instance's pending entries for a key ships, and a remove-all (version
    None), which has no stamp, supersedes every earlier write of the key
    at the same timestamp, hence the ``inf`` version stand-in.
    """
    version = args.get("version")
    return (args["last_modified"],
            float("inf") if version is None else version)


def _supersedes(new: dict, old: dict) -> bool:
    """True if ``new`` may replace ``old`` in a pending/backlog slot."""
    return _entry_sort_key(new) >= _entry_sort_key(old)


def _entry_method(args: dict) -> str:
    return ("replica_remove" if args.get("op") == "remove"
            else "replica_update")


class ReplicationQueue:
    """Per-instance queue of lazy updates (the ``queue`` response).

    Coalesces by key — if a key is updated twice before the flush, only the
    newest version ships, "to reduce on update traffic".  A background
    process flushes every ``interval`` seconds; ``drain`` flushes
    immediately and waits for delivery (used before consistency switches).

    Failed sends go to a per-peer retry backlog (version-aware: a failed
    entry never overwrites a newer one pending for the same key) and are
    retried with capped, jittered exponential backoff on subsequent flush
    rounds.  Entries that exhaust ``retry_policy.max_attempts`` rounds are
    abandoned to anti-entropy repair; the (peer, key) divergence stays in
    ``outstanding_failures`` until something delivers the key.

    A flush groups pending + due-retry entries *by peer* and ships one
    ``call_batch`` per peer (one envelope, one egress reservation, one
    process), never one RPC per (key, peer).  Per-entry outcomes feed the
    requeue/backoff/outstanding machinery — a poisoned entry requeues
    alone, a transport failure requeues the whole batch.

    ``batch_bytes`` is the early-flush threshold: once the pending payload
    reaches it the queue flushes without waiting out the timer (group
    commit), bounding staleness under write bursts without shrinking the
    quiet-time flush interval.  0 means timer-only.
    """

    def __init__(self, instance, interval: float,
                 retry_policy: Optional[RetryPolicy] = None,
                 batch_bytes: float = 0.0):
        self.instance = instance
        self.interval = interval
        self.retry_policy = retry_policy or RetryPolicy()
        self.batch_bytes = batch_bytes
        self.pending: OrderedDict[str, dict] = OrderedDict()
        self._pending_bytes = 0
        self._kick = None   # size-trigger event armed by the flush loop
        self._timer = None  # flush timer armed by the flush loop
        self._backlog: dict[str, OrderedDict[str, dict]] = {}
        self._attempts: dict[str, int] = {}      # peer -> failed rounds
        self._retry_at: dict[str, float] = {}    # peer -> next-eligible time
        self._outstanding: set[tuple[str, str]] = set()  # (peer, key)
        self._rng = instance.rng.stream(f"{instance.instance_id}.replq")
        self._proc = None
        self.flushes = 0
        self.updates_sent = 0
        self.coalesced = 0
        self.send_failures = 0
        self.retries = 0
        self.repaired = 0
        self.abandoned = 0
        self.batches = 0
        metrics = get_obs(instance.sim).metrics
        labels = {"instance": instance.instance_id}
        self._m_failures = metrics.counter("replication.send_failures",
                                           **labels)
        self._m_retries = metrics.counter("replication.retries", **labels)
        self._m_repaired = metrics.counter("replication.repaired", **labels)
        self._m_abandoned = metrics.counter("replication.abandoned", **labels)
        self._m_dropped = metrics.counter("replication.pending_dropped",
                                          **labels)
        self._m_batches = metrics.counter("replication.batches", **labels)
        self._h_batch_entries = metrics.histogram("replication.batch_entries",
                                                  **labels)

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.instance.sim.process(
                self._loop(), name=f"replq:{self.instance.instance_id}")

    def stop(self) -> None:
        """Stop the flush loop; surface anything still queued as dropped."""
        dropped = len(self.pending) + self.backlog_size()
        if dropped:
            self._m_dropped.inc(dropped)
        if self._timer is not None:
            self._timer.cancel()    # no live event outlives the stop
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("queue stopped")
        self._proc = None

    # -- bookkeeping ----------------------------------------------------------
    def backlog_size(self) -> int:
        return sum(len(entries) for entries in self._backlog.values())

    @property
    def outstanding_failures(self) -> int:
        """(peer, key) deliveries that failed and have not yet been
        repaired by a retry, a newer write, or anti-entropy."""
        return len(self._outstanding)

    def mark_delivered(self, peer_id: str, key: str) -> None:
        """Record that ``key`` reached ``peer_id`` (any path, incl. repair)."""
        if (peer_id, key) in self._outstanding:
            self._outstanding.discard((peer_id, key))
            self.repaired += 1
            self._m_repaired.inc()
        backlog = self._backlog.get(peer_id)
        if backlog is not None:
            backlog.pop(key, None)
            if not backlog:
                self._backlog.pop(peer_id, None)

    def enqueue(self, args: dict) -> None:
        key = args["key"]
        current = self.pending.get(key)
        if current is not None:
            self.coalesced += 1
            if not _supersedes(args, current):
                return
            self._pending_bytes -= request_size(_entry_method(current),
                                                current)
        self.pending[key] = args
        self.pending.move_to_end(key)
        self._pending_bytes += request_size(_entry_method(args), args)
        # A fresh update ships to every peer on the next flush, making any
        # older backlogged copy of the key redundant.
        for peer_id in list(self._backlog):
            stale = self._backlog[peer_id].get(key)
            if stale is not None and _supersedes(args, stale):
                self._backlog[peer_id].pop(key)
                if not self._backlog[peer_id]:
                    self._backlog.pop(peer_id)
        # Adaptive size trigger: a pending payload past the batch budget
        # flushes now rather than waiting out the timer (group commit).
        if (self._over_threshold()
                and self._kick is not None and not self._kick.triggered):
            self._kick.succeed()

    def _over_threshold(self) -> bool:
        """Pending payload has reached the early-flush threshold (a
        threshold of 0 never kicks: the queue is timer-only)."""
        return 0 < self.batch_bytes <= self._pending_bytes

    def _requeue(self, peer_id: str, args: dict) -> None:
        """Put a failed send back for retry, never burying a newer entry."""
        key = args["key"]
        fresh = self.pending.get(key)
        if fresh is not None and _supersedes(fresh, args):
            return  # the next flush ships something newer to this peer
        backlog = self._backlog.setdefault(peer_id, OrderedDict())
        current = backlog.get(key)
        if current is not None and not _supersedes(args, current):
            return
        backlog[key] = args
        backlog.move_to_end(key)

    # -- the flush machinery ----------------------------------------------------
    def _loop(self) -> Generator:
        sim = self.instance.sim
        while True:
            # Race the flush timer against the size trigger armed in
            # enqueue(); whichever fires first flushes.
            self._kick = sim.event()
            if self._over_threshold():
                # Enqueues that landed while the loop was flushing
                # (kick unarmed) already crossed the threshold.
                self._kick.succeed()
            self._timer = sim.timeout(self.interval)
            yield sim.any_of([self._timer, self._kick])
            self._kick = None
            self._timer.cancel()   # no-op if the timer won the race
            yield from self.flush()

    def _reap_departed_peers(self) -> None:
        """Forget retry state for peers no longer in the peer table.

        A detach or rebalance that shrinks ``instance.peers`` used to reap
        only the backlog (entries for missing peers can never ship); the
        per-peer ``_attempts``/``_retry_at`` bookkeeping leaked forever.
        """
        peers = self.instance.peers
        for state in (self._attempts, self._retry_at):
            for peer_id in [p for p in state if p not in peers]:
                del state[peer_id]

    def flush(self) -> Generator:
        """Ship pending updates plus due retries: one batch RPC per peer,
        per-entry outcomes into the retry machinery."""
        self._reap_departed_peers()
        instance = self.instance
        now = instance.sim.now
        batch = list(self.pending.values())
        self.pending.clear()
        self._pending_bytes = 0
        if batch:
            self.flushes += 1
        # (args, is_retry) per peer, pending first then that peer's due
        # retries — the destination applies them in this order.
        per_peer: dict[str, list[tuple[dict, bool]]] = {}
        if batch:
            for peer_id in instance.peers:
                per_peer[peer_id] = [(args, False) for args in batch]
        for peer_id in list(self._backlog):
            if now < self._retry_at.get(peer_id, 0.0):
                continue
            if peer_id not in instance.peers:
                continue  # peer left the table; repair owns it now
            entries = list(self._backlog.pop(peer_id).values())
            bucket = per_peer.setdefault(peer_id, [])
            for args in entries:
                bucket.append((args, True))
                self.retries += 1
                self._m_retries.inc()
        calls = []  # (call, peer_id, entries)
        for peer_id, entries in per_peer.items():
            peer = instance.peers[peer_id]
            wire = [(_entry_method(args), args) for args, _ in entries]
            call = instance.node.call_batch(peer.node, wire)
            # Pre-defuse: the transport may fail before we yield on it.
            call.defuse()
            calls.append((call, peer_id, entries))
            self.batches += 1
            self._m_batches.inc()
            self._h_batch_entries.observe(len(entries))
            self.updates_sent += len(entries)
        failed_peers: set[str] = set()
        healthy_peers: set[str] = set()
        for call, peer_id, entries in calls:
            try:
                results = yield call
            except NetworkError:
                # Transport failure (crash/partition mid-batch): nothing
                # was acknowledged, so every entry is outstanding.
                for args, is_retry in entries:
                    self._note_entry_failure(peer_id, args, is_retry)
                failed_peers.add(peer_id)
                continue
            healthy_peers.add(peer_id)
            for (args, is_retry), res in zip(entries, results):
                if res.get("ok"):
                    self.mark_delivered(peer_id, args["key"])
                else:
                    # Poisoned entry: the batch landed but this entry
                    # was rejected — requeue it alone.
                    self._note_entry_failure(peer_id, args, is_retry)
                    failed_peers.add(peer_id)
        self._schedule_retries(failed_peers, healthy_peers, now)

    def _note_entry_failure(self, peer_id: str, args: dict,
                            is_retry: bool) -> None:
        if not is_retry:
            self.send_failures += 1
            self._m_failures.inc()
        self._outstanding.add((peer_id, args["key"]))
        self._requeue(peer_id, args)

    def _schedule_retries(self, failed_peers: set, healthy_peers: set,
                          now: float) -> None:
        policy = self.retry_policy
        for peer_id in healthy_peers - failed_peers:
            # The peer answered again: forget its backoff history.
            self._attempts.pop(peer_id, None)
            self._retry_at.pop(peer_id, None)
        for peer_id in failed_peers:
            attempts = self._attempts.get(peer_id, 0) + 1
            if attempts >= policy.max_attempts:
                # Capped out: hand the divergence to anti-entropy repair.
                abandoned = self._backlog.pop(peer_id, None)
                if abandoned:
                    self.abandoned += len(abandoned)
                    self._m_abandoned.inc(len(abandoned))
                self._attempts.pop(peer_id, None)
                self._retry_at.pop(peer_id, None)
            else:
                self._attempts[peer_id] = attempts
                self._retry_at[peer_id] = now + policy.backoff(
                    attempts - 1, self._rng)

    def drain(self) -> Generator:
        """Flush until empty; give the retry backlog a bounded last chance."""
        while self.pending:
            yield from self.flush()
        rounds = 0
        while self.backlog_size() and rounds < self.retry_policy.max_attempts:
            yield self.instance.sim.timeout(
                self.retry_policy.backoff(rounds, self._rng))
            self._retry_at.clear()  # due immediately: we are draining
            yield from self.flush()
            rounds += 1
