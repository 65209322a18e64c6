"""Tests for the versioned object data model and metadata store."""

from repro.tiera import MetadataStore, ObjectRecord, VersionMeta, storage_key
from repro.tiera.objects import NO_STAMP


def meta(version, mtime=0.0, origin=""):
    return VersionMeta(version=version, size=10, created_at=0.0,
                       last_modified=mtime, last_accessed=0.0, origin=origin)


class TestVersionMeta:
    def test_lww_higher_version_wins(self):
        assert meta(2, 0.0).stamp > meta(1, 99.0).stamp

    def test_lww_same_version_newer_mtime_wins(self):
        assert meta(3, 5.0).stamp > meta(3, 4.0).stamp

    def test_lww_identical_is_not_newer(self):
        assert meta(3, 5.0, "a").stamp == meta(3, 5.0, "a").stamp

    def test_lww_same_instant_ranks_by_origin(self):
        assert meta(3, 5.0, "b").stamp > meta(3, 5.0, "a").stamp

    def test_no_stamp_is_below_every_write(self):
        assert NO_STAMP < meta(1, 0.0).stamp

    def test_touch(self):
        m = meta(1)
        m.touch(42.0)
        m.touch(43.0)
        assert m.last_accessed == 43.0
        assert m.access_count == 2


class TestObjectRecord:
    def test_add_and_latest(self):
        rec = ObjectRecord(key="k")
        rec.add_version(meta(1))
        rec.add_version(meta(3))
        rec.add_version(meta(2))
        assert rec.latest_version == 3
        assert rec.latest().version == 3
        assert rec.version_list() == [1, 2, 3]

    def test_drop_latest_falls_back(self):
        rec = ObjectRecord(key="k")
        for v in (1, 2, 3):
            rec.add_version(meta(v))
        rec.drop_version(3)
        assert rec.latest_version == 2
        rec.drop_version(2)
        rec.drop_version(1)
        assert rec.latest() is None

    def test_moved_past(self):
        rec = ObjectRecord(key="k")
        rec.add_version(meta(2))
        assert rec.moved_past(1)
        assert not rec.moved_past(2)
        assert not rec.moved_past(3)

    def test_next_version_monotonic(self):
        rec = ObjectRecord(key="k")
        assert rec.next_version() == 1
        rec.add_version(meta(5))
        assert rec.next_version() == 6

    def test_storage_key_format(self):
        assert storage_key("photo", 3) == "photo#v3"


class TestMetadataStore:
    def test_basic_kv(self):
        store = MetadataStore()
        store.put("a", 1)
        assert store.get("a") == 1
        assert "a" in store and len(store) == 1
        store.delete("a")
        assert store.get("a") is None

    def test_cursor_prefix_order(self):
        store = MetadataStore()
        for key in ("b/2", "a/1", "b/1", "c/9"):
            store.put(key, key)
        assert [k for k, _ in store.cursor("b/")] == ["b/1", "b/2"]
        assert [k for k, _ in store.cursor()] == ["a/1", "b/1", "b/2", "c/9"]

    def test_records_api(self):
        store = MetadataStore()
        rec = ObjectRecord(key="photo")
        rec.add_version(meta(1))
        store.put_record(rec)
        assert store.get_record("photo") is rec
        assert store.record_count() == 1
        assert list(store.records()) == [rec]
        store.delete_record("photo")
        assert store.get_record("photo") is None

    def test_cursor_tolerates_deletion(self):
        store = MetadataStore()
        for i in range(5):
            store.put(f"k{i}", i)
        seen = []
        for key, _ in store.cursor():
            seen.append(key)
            store.delete("k3")
        assert "k3" not in seen or seen.count("k3") == 1
