"""Erasure-coded redundancy as a consistency protocol.

A put under :class:`ECProtocol` does not replicate the whole object.  It
encodes the payload into ``n = k + m`` fragments (:mod:`repro.ec.codec`),
stores each fragment as a first-class object ``{key}#ecf{i}`` on a
distinct Tiera instance, and records the fragment map in a small JSON
*manifest* stored under the logical key itself.  The manifest is
broadcast to every peer, so any instance can coordinate a read: fetch the
``k`` nearest fragments, decode, done.  When a fragment holder is down
the read degrades gracefully — further holders are tried and the payload
is reconstructed from any ``k`` survivors.

Replication is the ``k = 1`` point of the same design: ``EC(1, m)`` keeps
``m + 1`` full copies and never needs reconstruction, so one protocol
serves both redundancy shapes and the
:class:`~repro.ec.optimizer.RedundancyOptimizer` can move objects between
them per key-class.

Both directions are one overlapped wave: the coordinator launches its
WAN calls first and does its own disk I/O under them, inside its own
process.

* **Read** — :meth:`ECProtocol.gather_fragments` is the one "collect k of
  these sources, nearest first" loop (gets, holder-local reconstruction
  and the repairer's fallback all call it).  It launches ``peer_get``s
  until ``k`` sources are in hand or in flight, reads the local fragment
  under them, then waits the pulls in order.  A source that drops out —
  unknown peer, call already dead when it returns (the network refuses
  an unreachable destination at send time), local read or pull failed —
  is replaced from the next-nearest source at that moment, so a holder
  that was down beforehand costs no second round trip.
* **Write** — one wave, in LEGOStore's CAS shape: a pre-write, then a
  finalise.  Fan-out rides the batch data plane (``call_batch``), one
  ``ec_prewrite`` entry per holder carrying that holder's fragment, the
  manifest and their version metadata once.  The holder stores the two
  side by side (:meth:`ECProtocol.on_prewrite`): the manifest, installed
  *pending*, merges in a child process while the fragment merges in the
  handler, so a holder pays the later of its two writes, not their sum;
  its reply means both are stored, and the entry has landed when the
  fragment has.  They are distinct keys, and merges of distinct keys
  commute.  The version is peeked, the entries are launched, and only
  then are the coordinator's own pending manifest and fragment written,
  under them.  A holder whose call is dead on return hands its slot to
  the next spare inside the wave; one that fails later is substituted
  afterwards.  Either is a *degraded write*, with the manifest rewritten
  to match.  The put acks once every envelope is back and at least
  ``min(n, k + 1)`` fragments landed (enough to read the object and
  survive one more fault); the coordinator's manifest is final from that
  instant.  A refused put takes nothing back: its manifest stays pending.
* **What still waits** — nothing on the put's path but the wave.  The
  coordinator's own two writes stay serial: they already sit under the
  wave, which pays a round trip on top of a holder's write, so overlapping
  them moves no put and costs an event.  The finalise wave leaves at the
  ack and settles behind it, one message per peer: a data-free
  ``finalise`` entry to each holder (metadata only), or the final
  manifest when a substitution changed the map or the holder's pending
  manifest failed, and the final manifest to every non-holder.  The
  coordinator's next put or remove of the key waits for it.  The reader
  rule: a get that meets a pending version with ``k`` fragments in place
  finalises it and returns it; one it cannot decode yields to the newest
  version the put's coordinator holds final (its own at the coordinator;
  elsewhere one ``peer_get`` to the coordinator, whose manifest is final
  from the ack).  So a get at a holder after the ack sees the acked
  version or newer, or fails, even where its finalise was lost; one at a
  non-holder may see the previous version until its manifest lands (or,
  if the holders purged that, installs a holder's).  A manifest copied
  from a peer stays pending if it is pending there.

Every wait on a call catches what that call can raise and nothing else:
:class:`~repro.net.network.NetworkError` for a fragment or manifest
push, ``StorageError`` as well for a pull, and :data:`MERGE_ERRORS` for
a holder's merge of a pre-written half.  A stop of the waiting
process (an ``Interrupt``) therefore stops it instead of being booked as
a failed fragment, and any other exception is a bug and propagates.
Lost fragments are re-established in the background by
:class:`~repro.ec.repair.ECRepairer`.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Generator, Optional

from repro.core.consistency.base import GlobalProtocol, ProtocolError
from repro.ec.codec import Codec
from repro.net.network import NetworkError
from repro.obs.api import get_obs
from repro.obs.trace import traced
from repro.sim.primitives import window
from repro.storage.backend import ObjectMissingError, StorageError
from repro.tiera.instance import TieraError

#: manifests are JSON objects whose serialization starts with this tag
MANIFEST_MAGIC = b'{"ec": 1'

#: separator between a logical key and its fragment index
FRAGMENT_SEP = "#ecf"

#: what a holder's merge of a pre-written half can raise: a local write
#: that fails (a full tier) or a version already installed
MERGE_ERRORS = (StorageError, TieraError)


def dead_on_return(call) -> bool:
    """A call the network refused at send time has already failed when
    ``node.call`` returns it (admission raises before any time passes)."""
    return call.triggered and not call.ok


def fragment_key(key: str, index: int) -> str:
    return f"{key}{FRAGMENT_SEP}{index}"


def is_fragment_key(key: str) -> bool:
    return FRAGMENT_SEP in key


def encode_manifest(k: int, m: int, size: int,
                    frags: dict[int, str]) -> bytes:
    """Serialize a fragment map; deterministic byte-for-byte."""
    doc = {"ec": 1, "k": k, "m": m, "size": size,
           "frags": {str(i): iid for i, iid in sorted(frags.items())}}
    return json.dumps(doc, sort_keys=True).encode()


def decode_manifest(data: Optional[bytes]) -> Optional[dict]:
    """Parse a manifest; None for anything that is not one (plain bytes
    preloaded under the key, or an unreadable payload)."""
    if data is None or not data.startswith(MANIFEST_MAGIC):
        return None
    doc = json.loads(data.decode())
    doc["frags"] = {int(i): iid for i, iid in doc["frags"].items()}
    return doc


class ECProtocol(GlobalProtocol):
    """Fragmented writes, nearest-k reads, LWW fragment merge."""

    name = "ec"

    def __init__(self, spec):
        super().__init__(repair_interval=spec.repair_interval)
        self.spec = spec
        #: per-key-class (prefix) scheme overrides, longest prefix wins.
        self._overrides: dict[str, tuple[int, int]] = {
            prefix: (k, m) for prefix, k, m in spec.overrides}
        self._metrics = None
        #: (coordinator id, key) -> the process settling a put's finalise
        #: wave after its ack; dropped once settled
        self._unsettled: dict[tuple[str, str], object] = {}

    # -- schemes ----------------------------------------------------------
    def scheme_for(self, key: str) -> tuple[int, int]:
        best = None
        for prefix, scheme in self._overrides.items():
            if key.startswith(prefix) and (best is None
                                           or len(prefix) > len(best[0])):
                best = (prefix, scheme)
        if best is not None:
            return best[1]
        return (self.spec.k, self.spec.m)

    # -- lifecycle --------------------------------------------------------
    def attach(self, instance) -> None:
        if self._metrics is None:
            metrics = get_obs(instance.sim).metrics
            self._metrics = {
                "puts": metrics.counter("ec.puts"),
                "gets": metrics.counter("ec.gets"),
                "fragments_written": metrics.counter("ec.fragments_written"),
                "degraded_writes": metrics.counter("ec.degraded_writes"),
                "degraded_reads": metrics.counter("ec.degraded_reads"),
                "manifest_fallbacks": metrics.counter(
                    "ec.manifest_fallbacks"),
                "manifest_push_failures": metrics.counter(
                    "ec.manifest_push_failures"),
            }
        super().attach(instance)

    def _new_repairer(self, instance):
        from repro.ec.repair import ECRepairer  # cycle: repair uses helpers
        return ECRepairer(instance, self, self.repair_interval,
                          self.spec.repair_concurrency)

    def _count(self, name: str, value: int = 1) -> None:
        if self._metrics is not None:
            self._metrics[name].inc(value)

    # -- topology helpers -------------------------------------------------
    def ring(self, instance) -> list[tuple[str, object]]:
        """(instance_id, peer_ref_or_None) nearest-first, self at rank 0.

        Order is deterministic: one-way latency, ties broken by id.
        """
        entries = [(-1.0, instance.instance_id, None)]
        for iid, peer in instance.peers.items():
            lat = instance.network.oneway_latency(instance.host,
                                                  peer.node.host)
            entries.append((lat, iid, peer))
        entries.sort(key=lambda e: (e[0], e[1]))
        return [(iid, peer) for _, iid, peer in entries]

    # -- put --------------------------------------------------------------
    def on_put(self, instance, key: str, data: bytes, tags=(),
               src: str = "app") -> Generator:
        tracer = get_obs(instance.sim).tracer
        if tracer.enabled:
            return traced(tracer, self._put(instance, key, data, tags),
                          "ec:put", cat="ec", component=instance.instance_id,
                          key=key)
        return self._put(instance, key, data, tags)

    @staticmethod
    def _entry(call) -> Generator:
        """The first entry's result of a batch (``{"ok": ..., ...}``), or
        ``{}`` when the batch was lost."""
        try:
            return (yield call)[0]
        except NetworkError:
            return {}

    def _after_unsettled(self, instance, key: str) -> Generator:
        pending = self._unsettled.get((instance.instance_id, key))
        if pending is not None:
            yield pending

    def _settle_behind(self, sim, pkey, prior, calls) -> Generator:
        if prior is not None:
            yield prior
        for call in calls:
            if not (yield from self._entry(call)).get("ok"):
                self._count("manifest_push_failures")
        if self._unsettled[pkey] is sim.active_process:
            del self._unsettled[pkey]

    def _put(self, instance, key: str, data: bytes, tags) -> Generator:
        yield from self._after_unsettled(instance, key)
        k, m = self.scheme_for(key)
        n = k + m
        ring = self.ring(instance)
        if len(ring) < n:
            raise ProtocolError(
                f"EC({k},{m}) needs {n} instances, group has {len(ring)}")
        # Self is rank 0 of the ring, so slot 0 is the coordinator's own.
        frag_map = {i: iid for i, (iid, _) in enumerate(ring[:n])}
        spares = deque(ring[n:])
        manifest = encode_manifest(k, m, len(data), frag_map)
        fragments = Codec.encode(data, k, n)

        # Peek the version local_put is about to assign.  Nothing runs
        # between here and local_put's first step (launching a call takes
        # no sim time), so the reservation is as atomic as the put itself.
        record = instance.meta.get_record(key)
        version = record.next_version() if record is not None else 1
        lm = instance.sim.now

        def send(idx, peer):
            # The pre-write: one entry carries the fragment and the
            # manifest, which its holder stores side by side
            # (:meth:`on_prewrite`), the manifest pending.
            args = {"key": key, "index": idx, "version": version,
                    "last_modified": lm, "origin": instance.instance_id,
                    "data": fragments[idx], "manifest": manifest}
            call = instance.node.call_batch(peer.node,
                                            [("ec_prewrite", args)])
            call.defuse()  # a wave member may fail before it is waited on
            return call

        # Launch the remote fragments first, one batched envelope per
        # holder; a holder unreachable at send time (the call is dead on
        # return) hands its slot to the next spare inside the wave.
        substituted = False
        wave = []
        for idx, (_, peer) in enumerate(ring[1:n], 1):
            call = send(idx, peer)
            while dead_on_return(call) and spares:
                frag_map[idx], peer = spares.popleft()
                substituted = True
                call = send(idx, peer)
            wave.append((idx, call))

        # The coordinator's own disk I/O runs under the wave: the pending
        # manifest (visible from its first step, i.e. now) and fragment 0.
        yield from instance.local_put(key, manifest, version=version,
                                      tags=tags, pending=True)
        yield from instance.local_put(
            fragment_key(key, 0), fragments[0], version=version,
            origin=instance.instance_id, last_modified=lm)
        landed = {0}
        failed: list[int] = []
        unmanifested = set()    # holders whose pending manifest failed
        for idx, call in wave:
            entry = yield from self._entry(call)
            if entry.get("ok"):
                landed.add(idx)
                if "manifest_error" in entry["result"]:
                    unmanifested.add(frag_map[idx])
            else:
                failed.append(idx)

        # A holder that failed after send time: substitute further live
        # ring members so the full fragment count is still established.
        for idx in list(failed):
            while spares:
                iid, peer = spares.popleft()
                if (yield from self._entry(send(idx, peer))).get("ok"):
                    frag_map[idx] = iid
                    landed.add(idx)
                    failed.remove(idx)
                    substituted = True
                    break

        # Refused, the put leaves its manifest pending everywhere, and a
        # get that cannot decode it reads the last final version.
        ack_floor = min(n, k + 1)
        if len(landed) < ack_floor:
            raise ProtocolError(
                f"EC put of {key!r} landed {len(landed)}/{n} fragments, "
                f"needs {ack_floor}")

        # The ack finalises the coordinator's manifest.  Unreachable slots
        # are dropped from it first, so readers and the repairer know
        # exactly which fragments exist and where.
        rewritten = substituted or bool(failed)
        if rewritten:
            for idx in failed:
                frag_map.pop(idx, None)
            manifest = encode_manifest(k, m, len(data), frag_map)
            lm = instance.sim.now
            yield from instance.apply_replica_update(
                key, version, lm, manifest, instance.instance_id)
            self._count("degraded_writes")
        else:
            instance.finalise(key, version)

        # The finalise wave settles behind the ack, one message per peer:
        # a holder whose pending manifest is right flips it final, every
        # other peer (a holder whose manifest failed too) gets the final
        # manifest, so any instance can coordinate a read.  Failures are
        # tolerated: the get path's reader rule and fallbacks, and the
        # repairer, cover them.
        final = {"key": key, "version": version}
        full = {"key": key, "version": version, "last_modified": lm,
                "origin": instance.instance_id, "data": manifest}
        holders = set(frag_map.values()) - unmanifested
        behind = []
        for iid, peer in ring[1:]:
            entry = (("finalise", final) if iid in holders and not rewritten
                     else ("replica_update", full))
            call = instance.node.call_batch(peer.node, [entry])
            call.defuse()
            if dead_on_return(call):
                self._count("manifest_push_failures")
            else:
                behind.append(call)
        if behind:
            pkey = (instance.instance_id, key)
            prior = self._unsettled.get(pkey)
            self._unsettled[pkey] = instance.sim.process(
                self._settle_behind(instance.sim, pkey, prior, behind))

        self._count("puts")
        self._count("fragments_written", len(landed))
        return {"version": version, "region": instance.region,
                "consistency": self.name, "scheme": (k, m),
                "fragments": len(landed), "degraded": rewritten}

    def on_prewrite(self, instance, args: dict) -> Generator:
        """A holder's half of the pre-write: the pending manifest's merge
        runs in a child process while the fragment's runs here, so the two
        storage writes overlap.  The child is joined only if it is still
        running (one that finished first costs no event), and on every
        path, so the reply means both halves are stored.  The entry fails
        only if the fragment's merge raises ("landed" is the fragment); a
        manifest merge that fails is reported under ``manifest_error``."""
        child = instance.sim.process(
            self._merge_pending(instance, args),
            name=f"ec-prewrite:{instance.instance_id}")
        child.defuse()      # a bug it raises reaches the entry, not run()
        try:
            result = yield from instance.apply_replica_update(
                fragment_key(args["key"], args["index"]), args["version"],
                args["last_modified"], args["data"], args["origin"])
        except MERGE_ERRORS:
            if child.is_alive:
                yield child
            raise
        manifest = (yield child) if child.is_alive else child.value
        if not child.ok:
            raise manifest
        if "error" in manifest:
            result = dict(result, manifest_error=manifest["error"])
        return result

    @staticmethod
    def _merge_pending(instance, args: dict) -> Generator:
        """The pre-write's manifest, merged pending; a failure is returned
        under ``error``."""
        try:
            return (yield from instance.apply_replica_update(
                args["key"], args["version"], args["last_modified"],
                args["manifest"], args["origin"], pending=True))
        except MERGE_ERRORS as exc:
            return {"applied": False, "error": repr(exc)}

    # -- get --------------------------------------------------------------
    def on_get(self, instance, key: str,
               version: Optional[int] = None) -> Generator:
        tracer = get_obs(instance.sim).tracer
        if tracer.enabled:
            return traced(tracer, self._get(instance, key, version),
                          "ec:get", cat="ec", component=instance.instance_id,
                          key=key)
        return self._get(instance, key, version)

    def _get(self, instance, key: str,
             version: Optional[int]) -> Generator:
        try:
            data, meta, record = yield from instance.read_version(key,
                                                                  version)
            mversion, latest = meta.version, record.latest_version
            pending, origin = meta.pending, meta.origin
        except ObjectMissingError:
            # No readable local manifest (fresh instance, or wiped by a
            # crash): fetch it from the nearest peer and install it.
            res = yield from self._manifest_fallback(instance, key, version)
            data, mversion, latest = (res["data"], res["version"],
                                      res["latest_local"])
            pending, origin = res["pending"], res["origin"]
            record = instance.meta.get_record(key)
        manifest = decode_manifest(data)
        if manifest is None:
            # Plain object (e.g. preloaded fixture) — serve it as-is.
            return {"data": data, "version": mversion,
                    "latest_local": latest}

        k, m, size = manifest["k"], manifest["m"], manifest["size"]
        n = k + m
        collected, _, degraded = yield from self.gather_fragments(
            instance, key, mversion, k, size, list(manifest["frags"].items()))
        if pending and version is None and len(collected) < k:
            # The reader rule: a pending version short of k fragments (a
            # put still in its wave, one refused, or one acked whose
            # finalise never reached here) yields to the newest version
            # its coordinator holds final.
            final = yield from self._final_at_origin(instance, key, origin,
                                                     record)
            if final is not None:
                return (yield from self._get(instance, key, final))
        elif len(collected) < k and version is None:
            # A stale manifest (its push has not landed here, and the
            # holders have purged its version): install a holder's, once.
            try:
                fresh = (yield from self._manifest_fallback(
                    instance, key, None, manifest["frags"].values()))[
                        "version"]
            except ObjectMissingError:
                fresh = mversion
            if fresh > mversion:
                return (yield from self._get(instance, key, fresh))
        if len(collected) < k:
            raise ProtocolError(
                f"EC get of {key!r} v{mversion}: only {len(collected)} of "
                f"{k} required fragments reachable")
        if pending:
            instance.finalise(key, mversion)    # k fragments are in place
        value = Codec.decode(collected, k, n, size)
        self._count("gets")
        if degraded:
            self._count("degraded_reads")
        return {"data": value, "version": mversion, "latest_local": latest,
                "degraded": degraded}

    def _final_at_origin(self, instance, key: str, origin: str,
                         record) -> Generator:
        """The newest version of ``key`` that its coordinator ``origin``
        holds final, installed here; None if that cannot be learned.  At
        the coordinator itself that is its own newest final version (a
        peer's, when it holds none); elsewhere one call to the
        coordinator, whose manifest is final from the ack."""
        holders = (origin,)
        if origin == instance.instance_id:
            final = record.final_versions()
            if final:
                return final[-1]
            holders = None
        try:
            res = yield from self._manifest_fallback(instance, key, None,
                                                     holders, final=True)
        except ObjectMissingError:
            return None
        return res["version"]

    def _manifest_fallback(self, instance, key: str, version: Optional[int],
                           holders=None, final: bool = False) -> Generator:
        """Install the nearest answering peer's (of ``holders``) manifest
        (its newest final one, with ``final``) and return its
        ``peer_get`` reply."""
        self._count("manifest_fallbacks")
        args = {"key": key, "version": version}
        if final:
            args["final"] = True
        last_error = None
        for iid, peer in self.ring(instance)[1:]:
            if holders is not None and iid not in holders:
                continue
            try:
                res = yield from instance.node.invoke(peer.node, "peer_get",
                                                      args)
            except (NetworkError, StorageError) as exc:
                last_error = exc
                continue
            # Install the fetched manifest locally so later reads are
            # coordinated without a WAN hop; the merge re-installs a local
            # copy of that version whose bytes a crash wiped.  It stays
            # pending if it is pending there, and one final there is final
            # here even where the merge keeps the local copy.
            yield from instance.apply_replica_update(
                key, res["version"], res["last_modified"], res["data"],
                res.get("origin", iid), pending=res["pending"])
            if not res["pending"]:
                instance.finalise(key, res["version"])
            return res
        raise ObjectMissingError(
            f"{instance.instance_id}: no reachable manifest for {key!r}"
        ) from last_error

    # -- fragment gathering (reads and repair) ------------------------------
    def gather_fragments(self, instance, key: str, version: int, k: int,
                         size: int,
                         sources: list[tuple[int, str]]) -> Generator:
        """Collect ``k`` fragments of ``key`` v``version`` at ``instance``
        from the ``(index, holder)`` ``sources``, nearest-first, as one
        overlapped wave: launch ``peer_get``s until ``k`` sources are in
        hand or in flight, read the local fragment under them, then wait
        the pulls in order.  Whenever a source drops out — unknown peer,
        call dead at send time, local read or pull failed — the wave is
        topped up from the next-nearest source at that moment.

        Returns ``({index: bytes}, bytes pulled over the network, whether
        any source dropped out)``; fewer than ``k`` entries means
        unreadable from here.
        """
        rank = {iid: pos for pos, (iid, _) in enumerate(self.ring(instance))}
        queue = deque(sorted(
            sources, key=lambda e: (rank.get(e[1], len(rank)), e[0])))
        # A fragment pull's reply is declared at the fragment's length
        # plus a 512 B header: 192 B over the rpc rule's reply envelope.
        reply_size = Codec.fragment_length(size, k) + 512
        available: dict[int, bytes] = {}
        local: list[int] = []
        calls: deque = deque()
        pulled = 0

        def top_up() -> None:
            """Launch until k sources are in hand or in flight."""
            while queue and len(available) + len(local) + len(calls) < k:
                idx, holder = queue.popleft()
                peer = instance.peers.get(holder)
                if holder == instance.instance_id:
                    local.append(idx)
                elif peer is not None:
                    call = instance.node.call(
                        peer.node, "peer_get",
                        {"key": fragment_key(key, idx), "version": version},
                        reply_size=reply_size)
                    call.defuse()  # may fail before it is waited on
                    if not dead_on_return(call):
                        calls.append((idx, call))

        top_up()
        while local or calls:
            if local:
                idx = local.pop()
                try:
                    frag, _, _ = yield from instance.read_version(
                        fragment_key(key, idx), version, run_rules=False)
                except StorageError:
                    frag = None
            else:
                idx, call = calls.popleft()
                try:
                    frag = (yield call)["data"]
                    pulled += len(frag)
                except (NetworkError, StorageError):
                    frag = None
            if frag is None:
                top_up()
            else:
                available[idx] = frag
        # Every source taken off the queue is in hand by now, or dropped out.
        degraded = len(sources) - len(queue) > len(available)
        return available, pulled, degraded

    def on_reconstruct_fragment(self, instance, args: dict) -> Generator:
        """Holder-local reconstruction: rebuild fragment ``index`` *here*.

        The repair leader names the surviving ``sources``; this instance
        pulls only the fragments it does not already hold (nearest-first,
        first wave in parallel), runs the codec's target-row
        :meth:`~repro.ec.codec.Codec.rebuild`, and installs the result
        locally — the fragment bytes never transit the leader.  Refuses
        with ``superseded`` when a racing write already advanced the
        manifest past ``version``, so a slow repair cannot resurrect a
        stale fragment.
        """
        key, version = args["key"], args["version"]
        k, m, size = args["k"], args["m"], args["size"]
        index = args["index"]
        n = k + m
        record = instance.meta.get_record(key)
        if record is not None and record.moved_past(version):
            return {"ok": False, "reason": "superseded"}

        sources = [(int(idx), holder) for idx, holder in args["sources"]
                   if int(idx) != index]
        available, pulled, _ = yield from self.gather_fragments(
            instance, key, version, k, size, sources)
        if len(available) < k:
            return {"ok": False, "reason": "unrepairable", "pulled": pulled}

        frag = Codec.rebuild(available, k, n, size, index)
        record = instance.meta.get_record(key)
        if record is not None and record.moved_past(version):
            return {"ok": False, "reason": "superseded", "pulled": pulled}
        merged = yield from instance.apply_replica_update(
            fragment_key(key, index), version, args["last_modified"], frag,
            args.get("origin", instance.instance_id))
        if not merged["applied"]:
            return {"ok": False, "reason": merged["reason"], "pulled": pulled}
        return {"ok": True, "pulled": pulled,
                "instance": instance.instance_id}

    def on_manifest_remap(self, instance, args: dict) -> Generator:
        """Apply a repair round's fragment-map deltas to the local
        manifest copies, ``repair_concurrency`` at a time.

        The repairer sends each peer one request whose ``items`` are
        ``{index: new_holder}`` deltas (a few tens of bytes each) instead
        of one full manifest per object.  Returns ``{"results": [...]}``,
        one per delta in order (:meth:`_apply_remap`).
        """
        origin = args.get("origin", instance.instance_id)
        results = yield from window(
            instance.sim, self.spec.repair_concurrency, args["items"],
            lambda delta: self._apply_remap(instance, delta, origin),
            f"ec-remap-w%d:{instance.instance_id}")
        return {"results": results}

    def _apply_remap(self, instance, args: dict, origin: str) -> Generator:
        """One delta.  Applies only to the exact ``version`` the leader
        repaired; anything else is refused with a reason so the leader
        can fall back to a full manifest push — except ``superseded``,
        where the stale manifest must stay dead."""
        key, version = args["key"], args["version"]
        record = instance.meta.get_record(key)
        if record is None or not record.has_version(version):
            return {"applied": False, "reason": "no-manifest"}
        if record.moved_past(version):
            return {"applied": False, "reason": "superseded"}
        try:
            data, _, _ = yield from instance.read_version(
                key, version, run_rules=False)
        except ObjectMissingError:
            return {"applied": False, "reason": "unreadable"}
        manifest = decode_manifest(data)
        if manifest is None:
            return {"applied": False, "reason": "not-manifest"}
        frag_map = dict(manifest["frags"])
        for idx, iid in args["remap"].items():
            frag_map[int(idx)] = iid
        manifest_bytes = encode_manifest(manifest["k"], manifest["m"],
                                         manifest["size"], frag_map)
        return (yield from instance.apply_replica_update(
            key, version, args["last_modified"], manifest_bytes, origin))

    # -- remove -----------------------------------------------------------
    def on_remove(self, instance, key: str,
                  version: Optional[int] = None,
                  src: str = "app") -> Generator:
        yield from self._after_unsettled(instance, key)
        frag_keys: set[str] = set()
        record = instance.meta.get_record(key)
        if record is not None:
            victims = ([version] if version is not None
                       else record.version_list())
            for v in victims:
                if not record.has_version(v):
                    continue
                try:
                    data, _, _ = yield from instance.read_version(
                        key, v, run_rules=False)
                except ObjectMissingError:
                    data = None
                manifest = decode_manifest(data)
                if manifest is not None:
                    total = manifest["k"] + manifest["m"]
                    frag_keys.update(fragment_key(key, i)
                                     for i in range(total))
        removed = yield from instance.local_remove(key, version)
        for fk in sorted(frag_keys):
            yield from instance.local_remove(fk, version)
        entries = [("replica_remove", {"key": key, "version": version})]
        entries += [("replica_remove", {"key": fk, "version": version})
                    for fk in sorted(frag_keys)]
        for iid, peer in self.ring(instance)[1:]:
            instance.node.send_oneway_batch(peer.node, entries)
        return {"removed": removed}
