"""The FUSE-substitute POSIX file API over Wiera objects.

Files are chunked into fixed-size blocks; block ``i`` of ``/a/b`` lives in
the Wiera object ``/a/b\\x00blk\\x00i``.  Partial-block writes do
read-modify-write; reads of unwritten holes return zeros; file sizes are
kept in the FS table and persisted in a per-file metadata object on
fsync/close (one writer per file, as with the paper's single-VM MySQL).
"""

from __future__ import annotations

import json
from typing import Generator

from repro.core.client import WieraClient
from repro.storage.backend import ObjectMissingError
from repro.util.units import KB


class FsError(RuntimeError):
    pass


def block_object_key(path: str, index: int) -> str:
    return f"{path}\x00blk\x00{index}"


def meta_object_key(path: str) -> str:
    return f"{path}\x00meta"


class WieraFS:
    """Filesystem facade; one per mounting application."""

    def __init__(self, client: WieraClient, block_size: int = 16 * KB):
        if block_size <= 0:
            raise FsError("block size must be positive")
        self.client = client
        self.block_size = block_size
        self._sizes: dict[str, int] = {}
        self._open: dict[str, "FileHandle"] = {}

    def open(self, path: str, create: bool = True) -> "FileHandle":
        if not path:
            raise FsError("empty path")
        if path not in self._sizes:
            if not create:
                raise FileNotFoundError(path)
            self._sizes[path] = self._sizes.get(path, 0)
        handle = FileHandle(self, path)
        self._open[path] = handle
        return handle

    def stat(self, path: str) -> dict:
        if path not in self._sizes:
            raise FileNotFoundError(path)
        return {"path": path, "size": self._sizes[path],
                "block_size": self.block_size}

    def unlink(self, path: str) -> Generator:
        if path not in self._sizes:
            raise FileNotFoundError(path)
        size = self._sizes.pop(path)
        self._open.pop(path, None)
        nblocks = (size + self.block_size - 1) // self.block_size
        # Removing an absent object (a hole, a never-synced file) raises
        # nothing; anything that does raise is a real failure.
        for i in range(nblocks):
            yield from self.client.remove(block_object_key(path, i))
        yield from self.client.remove(meta_object_key(path))


class FileHandle:
    """An open file: positioned and positional IO, fsync."""

    def __init__(self, fs: WieraFS, path: str):
        self.fs = fs
        self.path = path
        self.offset = 0
        self.closed = False
        self.reads = 0
        self.writes = 0

    # -- size ---------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.fs._sizes[self.path]

    def _set_size(self, size: int) -> None:
        self.fs._sizes[self.path] = size

    # -- positional IO ------------------------------------------------------
    def pread(self, offset: int, length: int) -> Generator:
        """Read up to ``length`` bytes at ``offset`` (short at EOF)."""
        self._check_open()
        if offset < 0 or length < 0:
            raise FsError("negative offset/length")
        end = min(offset + length, self.size)
        if offset >= end:
            return b""
        bs = self.fs.block_size
        chunks = []
        block = offset // bs
        pos = offset
        while pos < end:
            block_start = block * bs
            lo = pos - block_start
            hi = min(end - block_start, bs)
            data = yield from self._read_block(block)
            chunks.append(data[lo:hi])
            self.reads += 1
            pos = block_start + hi
            block += 1
        return b"".join(chunks)

    def pwrite(self, offset: int, data: bytes) -> Generator:
        """Write ``data`` at ``offset``, extending the file as needed."""
        self._check_open()
        if offset < 0:
            raise FsError("negative offset")
        bs = self.fs.block_size
        end = offset + len(data)
        pos = offset
        written = 0
        while pos < end:
            block = pos // bs
            block_start = block * bs
            lo = pos - block_start
            hi = min(end - block_start, bs)
            piece = data[written:written + (hi - lo)]
            if lo == 0 and hi - lo == bs:
                payload = piece  # full-block write, no RMW
            else:
                existing = yield from self._read_block(block)
                existing = existing.ljust(bs, b"\0")
                payload = existing[:lo] + piece + existing[hi:]
            yield from self.fs.client.put(
                block_object_key(self.path, block), payload)
            self.writes += 1
            written += hi - lo
            pos = block_start + hi
        if end > self.size:
            self._set_size(end)
        return len(data)

    # -- positioned IO --------------------------------------------------------
    def read(self, length: int) -> Generator:
        data = yield from self.pread(self.offset, length)
        self.offset += len(data)
        return data

    def write(self, data: bytes) -> Generator:
        n = yield from self.pwrite(self.offset, data)
        self.offset += n
        return n

    # -- metadata ----------------------------------------------------------------
    def fsync(self) -> Generator:
        """Persist the file size record."""
        self._check_open()
        meta = json.dumps({"size": self.size,
                           "block_size": self.fs.block_size}).encode()
        yield from self.fs.client.put(meta_object_key(self.path), meta)

    def close(self) -> Generator:
        if self.closed:
            return
        yield from self.fsync()
        self.closed = True
        self.fs._open.pop(self.path, None)

    # -- internals -----------------------------------------------------------------
    def _read_block(self, index: int) -> Generator:
        try:
            result = yield from self.fs.client.get(
                block_object_key(self.path, index))
        except ObjectMissingError:
            return b"\0" * self.fs.block_size  # unwritten hole
        return result["data"]

    def _check_open(self) -> None:
        if self.closed:
            raise FsError(f"file {self.path!r} is closed")
