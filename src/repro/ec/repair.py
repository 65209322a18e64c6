"""Background fragment repair for the erasure-coded redundancy plane.

Plain anti-entropy (:mod:`repro.core.consistency.repair`) compares
metadata digests — but a crashed host that wiped a volatile tier still
*advertises* the fragment version, only the bytes are gone.  The EC
repairer therefore checks actual readability: every ``interval`` seconds
each instance scans its manifests, and for each object where it is the
*repair leader* (the first alive fragment holder in index order — every
holder has the manifest, so exactly one leader emerges per object) it
verifies all ``n`` fragment slots and has anything missing rebuilt from
``k`` survivors — on the original holder if it is alive again, or on a
substitute instance otherwise (rewriting and re-broadcasting the
manifest to match).

A round is one pipeline: scan local manifests through a window of
``concurrency`` readers → probe every peer once, in parallel (one
round-level liveness cache, no per-object re-probing) → one batched
``check_readable`` envelope per holder → a window of ``concurrency``
worker processes, each repairing one object at a time → one
``manifest_remap`` request per live peer carrying every delta of the
round, which the peer applies through a window of its own.  All three
windows are :func:`~repro.sim.primitives.window`; ``concurrency = 1`` is
simply a window of one.  The scan keeps record order, so which objects
this instance leads and which spares it picks are what a serial walk
gives.

Fragments are installed by *holder-local reconstruction*: the leader
names the survivors and the target runs ``reconstruct_fragment`` — it
pulls only the fragments it is missing, rebuilds its row
(:meth:`~repro.ec.codec.Codec.rebuild`) and installs it, so no fragment
bytes transit the leader.  A fragment of the leader's own is rebuilt by
the same handler called in-process.  Only when a remote target refuses
or fails does the leader fall back to gathering ``k`` fragments itself
and pushing the rebuilt one.

Rebuilt fragments and rewritten manifests carry a *bumped*
``last_modified``, so their stamp outranks the copy of the same version a
holder still has the metadata of, and the merge
(:meth:`~repro.tiera.instance.TieraInstance.apply_replica_update`)
replaces it.

A version bump racing the repair must never resurrect the stale
version's fragments: the leader re-checks the manifest's latest version
(a pure metadata lookup) before every install and gives up with
``ec.repair_superseded`` when the object moved on, and the
``reconstruct_fragment`` handler refuses on the target side as well.

``stop()`` interrupts the periodic loop *and* the round's readers and
workers at the current instant; nothing is counted, re-homed or
broadcast afterwards (RPCs already on the wire still complete at their
destination).  A worker counts a :data:`REPAIR_ERRORS` failure of one
object in ``ec.repair_errors`` and goes on; anything else fails the round.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.ec.protocol import (decode_manifest, encode_manifest,
                               fragment_key, is_fragment_key)
from repro.ec.codec import Codec
from repro.net.network import NetworkError
from repro.obs.api import get_obs
from repro.obs.trace import NULL_SPAN
from repro.sim.primitives import Loop, window
from repro.storage.backend import ObjectMissingError, StorageError
from repro.tiera.instance import TieraError

#: what repairing one object, or applying its remap at a peer, can raise
#: besides a transport failure: a local read or write that fails (a full
#: tier, a version already installed) or a peer that refuses the request
#: (its protocol no longer holds EC manifests)
REPAIR_ERRORS = (StorageError, TieraError)


class ECRepairer:
    """One fragment-repair loop for one Tiera instance."""

    def __init__(self, instance, protocol, interval: float,
                 concurrency: int):
        self.instance = instance
        self.protocol = protocol
        self.loop = Loop(instance.sim, f"ec-repair:{instance.instance_id}",
                         interval, self.repair_round)
        #: window width: manifest reads or object repairs in flight
        self.concurrency = concurrency
        self._workers: list = []  # the window in flight, for stop()
        self.rounds = 0
        self.fragments_rebuilt = 0
        obs = get_obs(instance.sim)
        self._tracer = obs.tracer
        metrics = obs.metrics
        labels = {"instance": instance.instance_id}
        self._m_rounds = metrics.counter("ec.repair_rounds", **labels)
        self._m_rebuilt = metrics.counter("ec.fragments_rebuilt", **labels)
        # Distinct failure counters (one overloaded "skipped" before):
        # gather couldn't reach k survivors / no live target or push
        # refused / an object's repair raised / a racing write superseded
        # the version mid-repair.
        self._m_unrepairable = metrics.counter("ec.repair_unrepairable",
                                               **labels)
        self._m_push_failed = metrics.counter("ec.repair_push_failed",
                                              **labels)
        self._m_errors = metrics.counter("ec.repair_errors", **labels)
        self._m_superseded = metrics.counter("ec.repair_superseded",
                                             **labels)
        self._m_bytes = metrics.counter("ec.repair_bytes_moved", **labels)
        self._h_object = metrics.histogram("ec.repair_object_seconds",
                                           **labels)
        self._h_round = metrics.histogram("ec.repair_round_seconds",
                                          **labels)

    def start(self) -> None:
        self.loop.start()

    def stop(self) -> None:
        """Stop the loop and any round in flight, now."""
        self.loop.stop()
        for proc in self._workers:
            if proc.is_alive:
                proc.interrupt("repairer stopped")
        self._workers = []

    # ------------------------------------------------------------------
    def repair_round(self) -> Generator:
        self.rounds += 1
        self._m_rounds.inc()
        span = (self._tracer.span("ec:repair_round", cat="ec",
                                  component=self.instance.instance_id)
                if self._tracer.enabled else NULL_SPAN)
        start = self.instance.sim.now
        with span:
            yield from self._round()
        self._h_round.observe(self.instance.sim.now - start)

    def _superseded(self, key: str, version: int) -> bool:
        """True when ``version`` is no longer the object's latest — a
        racing write moved the manifest on, or a remove took it;
        repairing it would resurrect stale fragments.  Pure metadata
        lookup, consumes no sim time."""
        record = self.instance.meta.get_record(key)
        return (record is None or not record.has_version(version)
                or record.moved_past(version))

    def _scan_manifests(self) -> Generator:
        """Read the local manifests through a window of readers; return
        [(key, vmeta, manifest)] in record order for every EC object this
        instance has a manifest of.  A pending manifest is no one's to
        repair: its put is in flight, or was refused."""
        instance = self.instance
        keys = [record.key for record in instance.meta.records()
                if not is_fragment_key(record.key)
                and record.latest() is not None
                and not record.latest().pending]
        found = yield from window(
            instance.sim, self.concurrency, keys, self._read_manifest,
            f"ec-repair-r%d:{instance.instance_id}", self._workers)
        return [item for item in found if item is not None]

    def _read_manifest(self, key: str) -> Generator:
        try:
            data, vmeta, _ = yield from self.instance.read_version(
                key, run_rules=False)
        except ObjectMissingError:
            return None  # unreadable manifest: the get-path fallback heals it
        manifest = decode_manifest(data)
        return None if manifest is None else (key, vmeta, manifest)

    def _round(self) -> Generator:
        instance = self.instance

        # Phase 1: scan local manifests (local tier reads, W at a time).
        work = yield from self._scan_manifests()
        if not work:
            return

        # Phase 2: probe every peer once, all probes in flight together.
        # Every later decision (leadership, broken slots, spare choice,
        # manifest push targets) reuses this one round-level cache — no
        # per-object re-probing.
        alive: dict[str, bool] = {instance.instance_id: True}
        yield from self._probe_all(alive)
        ring = self.protocol.ring(instance)

        # Phase 3: leadership filter, then one batched check_readable per
        # holder covering every led object's slots in a single envelope.
        led = [item for item in work
               if self._leads(item[2]["frags"], alive)]
        if not led:
            return
        readable = yield from self._check_batch(led, alive)

        broken = []
        for key, vmeta, manifest in led:
            missing = self._broken_slots(key, vmeta.version, manifest,
                                         alive, readable)
            if missing:
                broken.append((key, vmeta, manifest, missing))
        if not broken:
            return

        # Phase 4: repair window — up to W objects in flight, each worker
        # pulling the next object as soon as its current one completes.
        remaps: list = []
        yield from window(
            instance.sim, self.concurrency, broken,
            lambda item: self._repair_one(item, alive, ring, remaps),
            f"ec-repair-w%d:{instance.instance_id}", self._workers)

        # Phase 5: flush manifest remap deltas, one request per peer.
        if remaps:
            yield from self._flush_remaps(remaps, alive, ring)

    def _probe_all(self, alive: dict[str, bool]) -> Generator:
        instance = self.instance
        calls = []
        for iid in sorted(instance.peers):
            call = instance.node.call(instance.peers[iid].node, "probe", {})
            call.defuse()  # may fail before its turn to be waited on
            calls.append((iid, call))
        for iid, call in calls:
            try:
                yield call
                alive[iid] = True
            except NetworkError:
                alive[iid] = False

    def _leads(self, frag_map: dict, alive: dict[str, bool]) -> bool:
        me = self.instance.instance_id
        for idx in sorted(frag_map):
            holder = frag_map[idx]
            if holder == me:
                return True
            if alive.get(holder):
                return False
        return False  # we hold no fragment of this object

    def _check_batch(self, led: list, alive: dict[str, bool]) -> Generator:
        """One ``check_readable`` entry per holder spanning all led
        objects; returns the set of (holder, fragment-key) pairs whose
        bytes the holder confirmed readable."""
        instance = self.instance
        by_holder: dict[str, list[tuple[str, int]]] = {}
        for key, vmeta, manifest in led:
            for idx, holder in manifest["frags"].items():
                if holder == instance.instance_id or not alive.get(holder):
                    continue
                by_holder.setdefault(holder, []).append(
                    (fragment_key(key, idx), vmeta.version))
        readable: set[tuple[str, str]] = set()
        calls = []
        for holder in sorted(by_holder):
            items = by_holder[holder]
            call = instance.node.call_batch(
                instance.peers[holder].node,
                [("check_readable", {"items": items})])
            call.defuse()
            calls.append((holder, items, call))
        for holder, items, call in calls:
            try:
                entry = (yield call)[0]
            except NetworkError:
                entry = {}
            if not entry.get("ok"):
                alive[holder] = False  # all its slots count as broken
                continue
            gone = set(entry["result"]["missing"])
            readable.update((holder, fkey) for fkey, _ in items
                            if fkey not in gone)
        return readable

    def _broken_slots(self, key: str, version: int, manifest: dict,
                      alive: dict[str, bool],
                      readable: set[tuple[str, str]]) -> list[int]:
        instance = self.instance
        n = manifest["k"] + manifest["m"]
        frag_map = manifest["frags"]
        missing = []
        for idx in range(n):
            holder = frag_map.get(idx)
            fkey = fragment_key(key, idx)
            if holder == instance.instance_id:
                if not instance.readable(fkey, version):
                    missing.append(idx)
            elif holder is None or not alive.get(holder):
                missing.append(idx)
            elif (holder, fkey) not in readable:
                missing.append(idx)
        return missing

    def _repair_one(self, item: tuple, alive: dict[str, bool], ring: list,
                    remaps: list) -> Generator:
        instance = self.instance
        key, vmeta, manifest, missing = item
        span = (self._tracer.span("ec:repair_object", cat="ec",
                                  component=instance.instance_id, key=key)
                if self._tracer.enabled else NULL_SPAN)
        start = instance.sim.now
        try:
            with span:
                yield from self._repair_object(
                    key, vmeta, manifest, missing, alive, ring, remaps)
        except REPAIR_ERRORS:
            # One stubborn object must not starve the rest of the round.
            self._m_errors.inc()
        self._h_object.observe(instance.sim.now - start)

    def _repair_object(self, key: str, vmeta, manifest: dict,
                       missing: list[int], alive: dict[str, bool],
                       ring: list, remaps: list) -> Generator:
        instance = self.instance
        k, m, size = manifest["k"], manifest["m"], manifest["size"]
        version = vmeta.version
        frag_map = dict(manifest["frags"])
        if self._superseded(key, version):
            self._m_superseded.inc()
            return

        # Survivors were verified readable by the round's batched check.
        sources = sorted((idx, holder) for idx, holder in frag_map.items()
                         if idx not in missing)
        if len(sources) < k:
            self._m_unrepairable.inc()
            return

        lm = instance.sim.now  # bumped so LWW accepts the reinstall
        holders = set(frag_map.values())
        spares = deque((iid, peer) for iid, peer in ring
                       if iid not in holders and alive.get(iid))
        remap: dict[int, str] = {}
        gathered = None  # the fallback's k fragments, fetched at most once

        # Re-home each missing fragment: original holder if alive, else the
        # nearest live instance not already holding one.
        for idx in sorted(missing):
            holder = frag_map.get(idx)
            if holder is not None and alive.get(holder):
                target, peer = holder, instance.peers.get(holder)
            elif spares:
                target, peer = spares.popleft()
            else:
                self._m_push_failed.inc()
                continue

            # Holder-local reconstruction: the target pulls only the
            # fragments it is missing and installs the result itself — no
            # fragment bytes transit the leader.  Our own fragment goes
            # through the same handler, without the RPC.
            args = {"key": key, "version": version, "k": k, "m": m,
                    "size": size, "index": idx, "sources": sources,
                    "last_modified": lm, "origin": instance.instance_id}
            if peer is None:
                res = yield from self.protocol.on_reconstruct_fragment(
                    instance, args)
            else:
                try:
                    res = yield from instance.node.invoke(
                        peer.node, "reconstruct_fragment", args)
                except (NetworkError, StorageError, TieraError):
                    res = {}
            if res.get("reason") == "superseded":
                self._m_superseded.inc()
                return
            if res.get("ok"):
                self._m_bytes.inc(res.get("pulled", 0))
            elif peer is None:
                self._m_unrepairable.inc()  # every source was just tried
                return
            else:
                # The remote target refused or failed: gather k fragments
                # here, rebuild its row and push it.
                if gathered is None:
                    gathered, pulled, _ = yield from (
                        self.protocol.gather_fragments(
                            instance, key, version, k, size, sources))
                    self._m_bytes.inc(pulled)
                    if len(gathered) < k:
                        self._m_unrepairable.inc()
                        return
                frag = Codec.rebuild(gathered, k, k + m, size, idx)
                if self._superseded(key, version):
                    self._m_superseded.inc()
                    return
                push = {"key": fragment_key(key, idx), "version": version,
                        "last_modified": lm, "origin": instance.instance_id,
                        "data": frag}
                call = instance.node.call_batch(
                    peer.node, [("replica_update", push)])
                call.defuse()
                try:
                    entry = (yield call)[0]
                except NetworkError:
                    entry = {}
                if not entry.get("ok"):
                    self._m_push_failed.inc()
                    continue
                self._m_bytes.inc(len(frag))

            if holder != target:
                frag_map[idx] = target
                remap[idx] = target
            self.fragments_rebuilt += 1
            self._m_rebuilt.inc()

        if remap:
            if self._superseded(key, version):
                self._m_superseded.inc()
                return
            manifest_bytes = encode_manifest(k, m, size, frag_map)
            yield from instance.apply_replica_update(
                key, version, lm, manifest_bytes, instance.instance_id)
            remaps.append((key, version, remap, lm))

    def _flush_remaps(self, remaps: list, alive: dict[str, bool],
                      ring: list) -> Generator:
        """Broadcast the round's manifest changes as deltas: one
        ``manifest_remap`` request per live peer carrying a delta per
        repaired object — instead of one full manifest push per object per
        peer.  Peers that cannot apply a delta get the full manifest
        pushed."""
        instance = self.instance
        origin = instance.instance_id
        args = {"items": [{"key": key, "version": version,
                           "remap": {str(idx): iid
                                     for idx, iid in sorted(delta.items())},
                           "last_modified": lm}
                          for key, version, delta, lm in remaps],
                "origin": origin}
        calls = []
        for iid, peer in ring[1:]:
            if not alive.get(iid):
                continue
            call = instance.node.call(peer.node, "manifest_remap", args)
            call.defuse()
            calls.append((peer.node, call))
        for peer_node, call in calls:
            try:
                results = (yield call)["results"]
            except NetworkError:
                self._m_push_failed.inc()
                continue
            except REPAIR_ERRORS:
                results = [{}] * len(remaps)  # the peer applied none
            for (key, version, delta, lm), res in zip(remaps, results):
                if res.get("applied") or res.get("reason") == "superseded":
                    continue
                # Fallback: the peer is missing this manifest version (or
                # could not rewrite it) — push the full rewritten manifest.
                try:
                    data, _, _ = yield from instance.read_version(
                        key, version, run_rules=False)
                except StorageError:
                    continue
                margs = {"key": key, "version": version,
                         "last_modified": lm, "origin": origin,
                         "data": data}
                push = instance.node.call_batch(
                    peer_node, [("replica_update", margs)])
                push.defuse()
                try:
                    pushed = (yield push)[0]
                except NetworkError:
                    pushed = {}
                if pushed.get("ok"):
                    self._m_bytes.inc(len(data))
                else:
                    self._m_push_failed.inc()
