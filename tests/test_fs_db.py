"""Tests for the POSIX layer, block files, and the mini DB."""

import json

import numpy as np
import pytest

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.core.client import NoInstanceAvailableError
from repro.db import DbError, MiniDB
from repro.fs import TierBlockFile, WieraBlockFile, WieraFS
from repro.fs.posixfs import FsError, meta_object_key
from repro.net import US_EAST, US_WEST
from repro.sim import Simulator
from repro.storage import make_tier
from repro.tiera.policy import write_back_policy
from repro.util.units import GB, KB


@pytest.fixture
def fs_world():
    """A two-region Wiera instance with a POSIX fs mounted at US East."""
    dep = build_deployment((US_EAST, US_WEST), seed=3)
    spec = GlobalPolicySpec(
        name="fs",
        placements=(RegionPlacement(US_EAST, write_back_policy()),
                    RegionPlacement(US_WEST, write_back_policy())),
        consistency="eventual", queue_interval=1.0)
    instances = dep.start_wiera_instance("fs", spec)
    client = dep.add_client(US_EAST, instances=instances)
    fs = WieraFS(client, block_size=4 * KB)
    return dep, fs


class TestPosixFs:
    def test_write_read_roundtrip(self, fs_world):
        dep, fs = fs_world
        handle = fs.open("/a.txt")

        def app():
            yield from handle.write(b"hello world")
            handle.offset = 0
            data = yield from handle.read(100)
            return data
        assert dep.drive(app()) == b"hello world"
        assert handle.size == 11

    def test_cross_block_io(self, fs_world):
        dep, fs = fs_world
        handle = fs.open("/big")
        payload = bytes(range(256)) * 64  # 16 KB spanning 4 blocks

        def app():
            yield from handle.pwrite(0, payload)
            data = yield from handle.pread(0, len(payload))
            return data
        assert dep.drive(app()) == payload

    def test_unaligned_rmw(self, fs_world):
        dep, fs = fs_world
        handle = fs.open("/rmw")

        def app():
            yield from handle.pwrite(0, b"A" * (8 * KB))
            yield from handle.pwrite(100, b"B" * 50)
            data = yield from handle.pread(0, 8 * KB)
            return data
        data = dep.drive(app())
        assert data[:100] == b"A" * 100
        assert data[100:150] == b"B" * 50
        assert data[150:] == b"A" * (8 * KB - 150)

    def test_holes_read_as_zeros(self, fs_world):
        dep, fs = fs_world
        handle = fs.open("/sparse")

        def app():
            yield from handle.pwrite(10 * KB, b"end")
            data = yield from handle.pread(0, 4 * KB)
            return data
        data = dep.drive(app())
        assert data == b"\0" * (4 * KB)

    def test_read_during_an_outage_raises(self, fs_world):
        """Only a hole reads as zeros: with every instance unreachable a
        read fails instead of handing the application a zero block."""
        dep, fs = fs_world
        handle = fs.open("/outage")
        dep.drive(handle.pwrite(0, b"x" * (4 * KB)))
        for region in (US_EAST, US_WEST):
            dep.server(region).crash()
        with pytest.raises(NoInstanceAvailableError):
            dep.drive(handle.pread(0, 4 * KB))

    def test_read_past_eof_is_short(self, fs_world):
        dep, fs = fs_world
        handle = fs.open("/short")

        def app():
            yield from handle.pwrite(0, b"xyz")
            data = yield from handle.pread(1, 100)
            return data
        assert dep.drive(app()) == b"yz"

    def test_close_fsyncs_the_size_record(self, fs_world):
        dep, fs = fs_world
        handle = fs.open("/persist")

        def app():
            yield from handle.pwrite(0, b"durable")
            yield from handle.close()
            result = yield from fs.client.get(meta_object_key("/persist"))
            return json.loads(result["data"].decode())
        assert dep.drive(app()) == {"size": 7, "block_size": 4 * KB}

    def test_closed_handle_rejects_io(self, fs_world):
        dep, fs = fs_world
        handle = fs.open("/c")

        def app():
            yield from handle.close()
        dep.drive(app())
        with pytest.raises(FsError):
            dep.drive(handle.pread(0, 1))

    def test_unlink(self, fs_world):
        dep, fs = fs_world
        handle = fs.open("/gone")

        def app():
            yield from handle.pwrite(0, b"data")
            yield from fs.unlink("/gone")
        dep.drive(app())
        with pytest.raises(FileNotFoundError):
            fs.stat("/gone")

    def test_open_missing_without_create(self, fs_world):
        _, fs = fs_world
        with pytest.raises(FileNotFoundError):
            fs.open("/nope", create=False)

    def test_stat(self, fs_world):
        dep, fs = fs_world
        fs.open("/other")
        assert fs.stat("/other")["size"] == 0


class TestBlockFiles:
    def test_tier_blockfile(self):
        sim = Simulator()
        backend = make_tier(sim, "ebs_ssd", 1 * GB,
                            rng=np.random.default_rng(0))
        bf = TierBlockFile(backend, "f", nblocks=8, block_size=4 * KB)
        bf.prepare(fill=b"\x01")

        def app():
            data = yield from bf.read_block(3)
            yield from bf.write_block(3, b"\x02" * (4 * KB))
            data2 = yield from bf.read_block(3)
            return data, data2
        proc = sim.process(app())
        data, data2 = sim.run(until=proc)
        assert data == b"\x01" * (4 * KB)
        assert data2 == b"\x02" * (4 * KB)

    def test_out_of_range(self):
        sim = Simulator()
        backend = make_tier(sim, "ebs_ssd", 1 * GB)
        bf = TierBlockFile(backend, "f", nblocks=4, block_size=4 * KB)
        with pytest.raises(IndexError):
            list(bf.read_block(4))

    def test_wiera_blockfile(self, fs_world):
        dep, fs = fs_world
        handle = fs.open("/dev")
        fs._sizes["/dev"] = 8 * 4 * KB
        bf = WieraBlockFile(handle, nblocks=8)

        def app():
            yield from bf.write_block(2, b"\x03" * (4 * KB))
            data = yield from bf.read_block(2)
            hole = yield from bf.read_block(5)
            return data, hole
        data, hole = dep.drive(app())
        assert data == b"\x03" * (4 * KB)
        assert hole == b"\0" * (4 * KB)


class TestMiniDB:
    @pytest.fixture
    def db(self):
        sim = Simulator()
        backend = make_tier(sim, "azure_disk", 1 * GB,
                            rng=np.random.default_rng(0))
        bf = TierBlockFile(backend, "db", nblocks=256, block_size=16 * KB)
        bf.prepare()
        return sim, MiniDB(sim, bf, buffer_pool_bytes=4 * 16 * KB)

    def run(self, sim, gen):
        proc = sim.process(gen)
        return sim.run(until=proc)

    def test_row_roundtrip(self, db):
        sim, db = db
        table = db.create_table("t", row_size=256, rows=1000)

        def app():
            yield from table.write_row(42, b"row-42")
            data = yield from table.read_row(42)
            return data
        data = self.run(sim, app())
        assert data.rstrip(b"\0") == b"row-42"

    def test_rows_share_pages(self, db):
        sim, db = db
        table = db.create_table("t", row_size=256, rows=1000)
        assert table.rows_per_page == 64
        assert table.page_of(0) == table.page_of(63)
        assert table.page_of(64) == table.page_of(0) + 1

    def test_buffer_pool_hits(self, db):
        sim, db = db
        table = db.create_table("t", row_size=256, rows=1000)

        def app():
            yield from table.read_row(0)
            yield from table.read_row(1)   # same page -> pool hit
        self.run(sim, app())
        assert db.page_reads == 1
        assert db.pool_hits == 1

    def test_pool_eviction_bounded(self, db):
        sim, db = db
        table = db.create_table("t", row_size=16 * KB, rows=100)

        def app():
            for i in range(20):
                yield from table.read_row(i)
        self.run(sim, app())
        assert len(db._pool) <= db.buffer_pages == 4

    def test_write_through_hits_device(self, db):
        sim, db = db
        table = db.create_table("t", row_size=256, rows=100)

        def app():
            yield from table.write_row(1, b"x")
            yield from table.write_row(2, b"y")  # same page
        self.run(sim, app())
        assert db.page_writes == 2  # every write reaches the device

    def test_row_too_large(self, db):
        sim, db = db
        table = db.create_table("t", row_size=64, rows=10)
        with pytest.raises(DbError):
            self.run(sim, table.write_row(0, b"z" * 100))

    def test_table_catalog(self, db):
        sim, db = db
        db.create_table("a", row_size=256, rows=100)
        with pytest.raises(DbError):
            db.create_table("a", row_size=256, rows=100)
        with pytest.raises(DbError):
            db.table("missing")

    def test_device_exhaustion(self, db):
        sim, db = db
        with pytest.raises(DbError):
            db.create_table("huge", row_size=16 * KB, rows=10**6)

    def test_out_of_range_row(self, db):
        sim, db = db
        table = db.create_table("t", row_size=256, rows=10)
        with pytest.raises(DbError):
            table.page_of(10)
