"""Anti-entropy repair: periodic per-peer digest exchange.

The retry backlog (:class:`~repro.core.consistency.base.ReplicationQueue`)
caps its attempts, so a long outage can still leave a replica behind.  The
:class:`AntiEntropyRepairer` is the backstop: every ``interval`` seconds it
brings each peer up to date through the one catch-up path,
:meth:`~repro.tiera.instance.TieraInstance.sync_to` (the peer's digest,
then a ``replica_update`` for every key where the local latest has the
greater stamp).  Push-only repair cannot resurrect *removed* keys on the
remote side (a purged record is indistinguishable from a never-seen one);
removes are instead retried by the queue itself.

Repair is off by default — an idle repairer would perturb experiment
timings — and enabled per Wiera instance via
``GlobalPolicySpec.repair_interval``.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.net.network import NetworkError
from repro.obs.api import get_obs
from repro.sim.primitives import Loop


class AntiEntropyRepairer:
    """One background digest/repair loop for one Tiera instance."""

    def __init__(self, instance, interval: float,
                 queue_for: Optional[Callable] = None,
                 should_push: Optional[Callable] = None,
                 batch_bytes: float = 0.0):
        self.instance = instance
        self.loop = Loop(instance.sim, f"repair:{instance.instance_id}",
                         interval, self._round)
        # Hook back to the protocol's replication queue so a successful
        # repair clears the matching outstanding-failure record.
        self._queue_for = queue_for
        # Gate for asymmetric protocols (PrimaryBackup: only the primary
        # originates updates, so only it pushes repairs).
        self._should_push = should_push
        #: payload bound of one push message: a peer's stale keys ship as
        #: ``call_batch`` messages of at most this many bytes (0 = one key
        #: per message)
        self.batch_bytes = batch_bytes
        self.rounds = 0
        self.keys_pushed = 0
        metrics = get_obs(instance.sim).metrics
        labels = {"instance": instance.instance_id}
        self._m_rounds = metrics.counter("repair.rounds", **labels)
        self._m_pushed = metrics.counter("repair.keys_pushed", **labels)

    def start(self) -> None:
        self.loop.start()

    def stop(self) -> None:
        self.loop.stop()

    def _round(self) -> Generator:
        if self._should_push is None or self._should_push(self.instance):
            yield from self.repair_round()

    def repair_round(self) -> Generator:
        """Sync every reachable peer; what a lost batch or a refused entry
        left is the next round's."""
        instance = self.instance
        self.rounds += 1
        self._m_rounds.inc()
        for peer_id, peer in list(instance.peers.items()):
            try:
                landed, _failed, theirs = yield from instance.sync_to(
                    peer.node, batch_bytes=self.batch_bytes)
            except NetworkError:
                continue  # unreachable peer: next round will see it
            self.keys_pushed += len(landed)
            self._m_pushed.inc(len(landed))
            # A key the peer already held at our stamp — possibly via a
            # third replica's repair — has any recorded delivery failure
            # resolved, as has every key that landed.
            held = [key for key, stamp in instance.key_state().items()
                    if theirs.get(key) == stamp]
            for key in landed + held:
                self._mark_delivered(peer_id, key)

    def _mark_delivered(self, peer_id: str, key: str) -> None:
        if self._queue_for is not None:
            queue = self._queue_for(self.instance)
            if queue is not None:
                queue.mark_delivered(peer_id, key)
