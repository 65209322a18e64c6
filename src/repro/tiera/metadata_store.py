"""BerkeleyDB-substitute metadata store.

The paper persists all object metadata in BerkeleyDB.  We provide the same
role in memory: an ordered key/value store with prefix cursors, holding
:class:`~repro.tiera.objects.ObjectRecord` entries (and any other instance
state a policy keeps).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Optional

from repro.tiera.objects import ObjectRecord


class MetadataStore:
    """Sorted in-memory KV store with prefix scans."""

    def __init__(self):
        self._data: dict[str, Any] = {}
        self._sorted_keys: list[str] = []
        self._keys_dirty = False
        #: object keys whose latest version may be dirty: every key whose
        #: latest version is dirty is here (see :meth:`dirty_records`)
        self.dirty_keys: set[str] = set()

    # -- basic KV ---------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        if key not in self._data:
            self._keys_dirty = True
        self._data[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def delete(self, key: str) -> None:
        if self._data.pop(key, None) is not None:
            self._keys_dirty = True

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def _keys(self) -> list[str]:
        if self._keys_dirty:
            self._sorted_keys = sorted(self._data)
            self._keys_dirty = False
        return self._sorted_keys

    def cursor(self, prefix: str = "") -> Iterator[tuple[str, Any]]:
        """Iterate (key, value) pairs with keys starting with ``prefix``,
        in key order — the BerkeleyDB btree-cursor idiom."""
        keys = self._keys()
        start = bisect.bisect_left(keys, prefix)
        for i in range(start, len(keys)):
            key = keys[i]
            if not key.startswith(prefix):
                break
            if key in self._data:  # tolerate deletion during iteration
                yield key, self._data[key]

    # -- object records ---------------------------------------------------
    _OBJ_PREFIX = "obj/"

    def put_record(self, record: ObjectRecord) -> None:
        self.put(self._OBJ_PREFIX + record.key, record)

    def get_record(self, key: str) -> Optional[ObjectRecord]:
        return self._data.get(self._OBJ_PREFIX + key)

    def delete_record(self, key: str) -> None:
        self.delete(self._OBJ_PREFIX + key)
        self.dirty_keys.discard(key)

    def records(self) -> Iterator[ObjectRecord]:
        for _, value in self.cursor(self._OBJ_PREFIX):
            yield value

    def dirty_records(self) -> list[ObjectRecord]:
        """Records whose latest version is dirty, in key order, in O(d log d)
        for ``d`` indexed keys; a key found clean or gone leaves the index."""
        found = []
        for key in sorted(self.dirty_keys):
            record = self.get_record(key)
            if (record is not None
                    and record.versions[record.latest_version].dirty):
                found.append(record)
            else:
                self.dirty_keys.discard(key)
        return found

    def record_count(self) -> int:
        return sum(1 for _ in self.cursor(self._OBJ_PREFIX))
