"""Policy response actions.

A *response* is "the action executed on the occurrence of an event" (§2.1).
Each response is a declarative object whose ``execute(instance, ctx)`` is a
generator run by the instance's policy engine — so responses consume
simulated time exactly where real ones consume wall time (tier reads/
writes, rate-limited transfers).

``what`` arguments are either the literal ``INSERT_OBJECT`` sentinel (the
object that triggered an action event) or an :class:`ObjectSelector`
matching objects' latest versions by location/dirty/tags/age — the DSL's
``object.location == tier2 && object.dirty == true`` notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.storage.backend import ObjectMissingError
from repro.tiera.objects import ObjectRecord, VersionMeta

#: Sentinel for "the object of the triggering insert" (``insert.object``).
INSERT_OBJECT = "insert.object"


@dataclass
class ResponseContext:
    """What the engine knows when a rule fires."""

    key: Optional[str] = None
    version: Optional[int] = None
    tier: Optional[str] = None      # tier involved in the triggering event
    event: object = None
    source: str = "app"             # who caused it: app | peer | policy


@dataclass(frozen=True)
class ObjectSelector:
    """Predicate over an object's latest version."""

    location: Optional[str] = None   # version resident on this tier
    dirty: Optional[bool] = None
    tags: frozenset[str] = frozenset()
    min_idle: Optional[float] = None  # seconds since last access
    key_prefix: Optional[str] = None

    def matches(self, record: ObjectRecord, meta: VersionMeta,
                now: float) -> bool:
        if self.key_prefix is not None and not record.key.startswith(self.key_prefix):
            return False
        if self.location is not None and self.location not in meta.locations:
            return False
        if self.dirty is not None and meta.dirty != self.dirty:
            return False
        if self.tags and not self.tags.issubset(record.tags):
            return False
        if self.min_idle is not None and (now - meta.last_accessed) < self.min_idle:
            return False
        return True


class Response:
    """Base response action."""

    def execute(self, instance, ctx: ResponseContext) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover

    # -- shared helpers -------------------------------------------------------
    def _targets(self, instance, what, ctx: ResponseContext):
        """Resolve ``what`` into concrete (record, meta) pairs.  A selector
        sees each object's latest version; a ``dirty=True`` one walks only
        the metadata store's dirty index, in the same key order."""
        if what == INSERT_OBJECT:
            if ctx.key is None or ctx.version is None:
                return []
            record = instance.meta.get_record(ctx.key)
            if record is None or ctx.version not in record.versions:
                return []
            return [(record, record.versions[ctx.version])]
        if isinstance(what, ObjectSelector):
            now = instance.sim.now
            records = (instance.meta.dirty_records() if what.dirty
                       else instance.meta.records())
            hits = []
            for record in records:
                meta = record.versions[record.latest_version]
                if what.matches(record, meta, now):
                    hits.append((record, meta))
            return hits
        raise TypeError(f"unsupported 'what' argument: {what!r}")

    @staticmethod
    def _act(instance, action: Generator) -> Generator:
        """Run one target's ``action``; returns whether it ran.  Targets
        are resolved once and acted on one by one over sim time, so one
        removed or GC-purged before its turn is skipped and counted."""
        try:
            yield from action
        except ObjectMissingError:
            instance.note_target_gone()
            return False
        return True


@dataclass(frozen=True)
class SetAttrResponse(Response):
    """Set a metadata attribute on the triggering object
    (``insert.object.dirty = true``)."""

    attr: str = "dirty"
    value: object = True

    _ALLOWED = ("dirty",)

    def execute(self, instance, ctx: ResponseContext) -> Generator:
        if self.attr not in self._ALLOWED:
            raise ValueError(f"cannot set attribute {self.attr!r} via policy")
        for record, meta in self._targets(instance, INSERT_OBJECT, ctx):
            setattr(meta, self.attr, self.value)
            if self.value:
                instance.meta.dirty_keys.add(record.key)
        return
        yield  # pragma: no cover


@dataclass(frozen=True)
class StoreResponse(Response):
    """Place the inserted object's bytes on tier ``to`` (Figure 1(a))."""

    to: str = "tier1"

    def execute(self, instance, ctx: ResponseContext) -> Generator:
        if ctx.key is None or ctx.version is None:
            raise ValueError("store response requires an insert context")
        yield from instance.store_version(ctx.key, ctx.version, self.to)
        ctx.tier = self.to


@dataclass(frozen=True)
class CopyResponse(Response):
    """Copy selected object bytes to tier ``to``.

    ``bandwidth`` (bytes/sec) rate-limits the transfer as in Figure 1(b)'s
    ``bandwidth: 40KB/s``; concurrent copies from the same rule share the
    limiter.  ``clear_dirty`` models write-back completion: copied versions
    are marked clean (Figure 1(a)'s timer flush).
    """

    what: object = INSERT_OBJECT
    to: str = "tier2"
    bandwidth: Optional[float] = None
    clear_dirty: bool = False

    def execute(self, instance, ctx: ResponseContext) -> Generator:
        limiter = instance.copy_limiter(self) if self.bandwidth else None
        for record, meta in self._targets(instance, self.what, ctx):
            if self.to in meta.locations:
                if self.clear_dirty:
                    meta.dirty = False
                continue
            if limiter is not None:
                yield from limiter.transmit(meta.stored_size or meta.size)
            copied = yield from self._act(instance, instance.store_version(
                record.key, meta.version, self.to))
            if copied and self.clear_dirty:
                meta.dirty = False


@dataclass(frozen=True)
class MoveResponse(Response):
    """Copy selected objects to ``to`` then drop them from ``from_tier``
    (or from every other tier when ``from_tier`` is None) — the cold-data
    demotion of Figure 6(a)."""

    what: object = INSERT_OBJECT
    to: str = "tier2"
    from_tier: Optional[str] = None
    bandwidth: Optional[float] = None

    def execute(self, instance, ctx: ResponseContext) -> Generator:
        limiter = instance.copy_limiter(self) if self.bandwidth else None
        for record, meta in self._targets(instance, self.what, ctx):
            if limiter is not None:
                yield from limiter.transmit(meta.stored_size or meta.size)
            yield from self._act(instance, instance.move_version(
                record.key, meta.version, self.to, from_tier=self.from_tier))


@dataclass(frozen=True)
class DeleteResponse(Response):
    """Remove selected versions entirely (bytes + metadata)."""

    what: object = INSERT_OBJECT

    def execute(self, instance, ctx: ResponseContext) -> Generator:
        for record, meta in self._targets(instance, self.what, ctx):
            yield from self._act(instance, instance.purge_version(
                record.key, meta.version))


@dataclass(frozen=True)
class CompressResponse(Response):
    """zlib-compress selected versions in place on their tiers."""

    what: object = INSERT_OBJECT
    level: int = 6

    def execute(self, instance, ctx: ResponseContext) -> Generator:
        for record, meta in self._targets(instance, self.what, ctx):
            yield from self._act(instance, instance.transform_version(
                record.key, meta.version, "zlib", level=self.level))


@dataclass(frozen=True)
class EncryptResponse(Response):
    """Encrypt selected versions in place with the instance key."""

    what: object = INSERT_OBJECT
    key_id: str = "default"

    def execute(self, instance, ctx: ResponseContext) -> Generator:
        for record, meta in self._targets(instance, self.what, ctx):
            yield from self._act(instance, instance.transform_version(
                record.key, meta.version, f"xor:{self.key_id}"))


@dataclass(frozen=True)
class GrowResponse(Response):
    """Extend a tier's provisioned capacity by ``amount`` bytes."""

    tier: str = "tier1"
    amount: float = 0.0

    def execute(self, instance, ctx: ResponseContext) -> Generator:
        instance.tier(self.tier).grow(self.amount)
        return
        yield  # pragma: no cover
