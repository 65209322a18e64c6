"""Tiera/Wiera object data model.

Objects are uninterpreted byte sequences addressed by a globally unique
key.  They are immutable: a "modification" creates a new *version* (the
Wiera extension of §3.2.1).  Each version carries the metadata attributes
the paper lists — size, access count, dirty bit, created/modified/accessed
times, and the set of tiers currently holding its bytes — plus an encoding
chain recording compress/encrypt transformations.  Objects (not versions)
carry the application-assigned *tags* used to define object classes for
policies (e.g. a "tmp" tag routed to volatile storage).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


#: A version's place in the last-write-wins order (§4.2), compared as a
#: tuple: number, then time, then origin, so same-instant writes from two
#: origins still rank.  The merge, anti-entropy and the rebalancer compare
#: stamps and nothing else.
Stamp = tuple[int, float, str]

#: the stamp of a key a replica does not hold: below every write
NO_STAMP: Stamp = (0, -1.0, "")


def storage_key(key: str, version: int) -> str:
    """The key under which one version's bytes live inside a tier."""
    return f"{key}#v{version}"


@dataclass
class VersionMeta:
    """Metadata for one immutable version of an object."""

    version: int
    size: int
    created_at: float
    last_modified: float
    last_accessed: float
    access_count: int = 0
    dirty: bool = False
    locations: set[str] = field(default_factory=set)
    encodings: tuple[str, ...] = ()   # applied transforms, outermost last
    stored_size: int = 0              # on-tier size after transforms
    origin: str = ""                  # region/instance that created it
    #: installed but not yet final: an erasure-coded put's manifest from
    #: its pre-write until its ack (read at the reader's risk, never
    #: counted by version GC)
    pending: bool = False

    def touch(self, now: float) -> None:
        self.last_accessed = now
        self.access_count += 1

    @property
    def stamp(self) -> Stamp:
        return (self.version, self.last_modified, self.origin)


@dataclass
class ObjectRecord:
    """All versions and object-level metadata for one key."""

    key: str
    versions: dict[int, VersionMeta] = field(default_factory=dict)
    tags: set[str] = field(default_factory=set)
    latest_version: int = 0

    def has_version(self, version: int) -> bool:
        return version in self.versions

    def latest(self) -> Optional[VersionMeta]:
        return self.versions.get(self.latest_version)

    def moved_past(self, version: int) -> bool:
        """Whether a racing write moved the key past ``version`` (so it
        must not be rebuilt or rewritten)."""
        return self.latest_version > version

    def version_list(self) -> list[int]:
        return sorted(self.versions)

    def final_versions(self) -> list[int]:
        """:meth:`version_list` without the pending versions."""
        return [v for v in sorted(self.versions)
                if not self.versions[v].pending]

    def add_version(self, meta: VersionMeta) -> None:
        self.versions[meta.version] = meta
        if meta.version > self.latest_version:
            self.latest_version = meta.version

    def drop_version(self, version: int) -> VersionMeta:
        meta = self.versions.pop(version)
        if version == self.latest_version:
            self.latest_version = max(self.versions, default=0)
        return meta

    def next_version(self) -> int:
        return self.latest_version + 1
