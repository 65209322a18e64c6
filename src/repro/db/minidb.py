"""Page-based storage engine with an LRU buffer pool.

Layout: the block file is divided among tables at creation; table ``T``
with ``row_size`` bytes/row stores ``page_size // row_size`` rows per page
in its block range.  ``read_row`` consults the buffer pool first;
``write_row`` updates the page image and writes it through to the device
(O_DIRECT, no OS cache — the paper's MySQL configuration).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator

from repro.fs.device import BlockFile
from repro.util.units import MB


class DbError(RuntimeError):
    pass


class Table:
    """Fixed-size-row table mapped onto a contiguous block range."""

    def __init__(self, db: "MiniDB", name: str, row_size: int, rows: int,
                 first_block: int):
        if row_size <= 0 or row_size > db.page_size:
            raise DbError(f"bad row size {row_size}")
        self.db = db
        self.name = name
        self.row_size = row_size
        self.rows = rows
        self.first_block = first_block
        self.rows_per_page = db.page_size // row_size
        self.npages = (rows + self.rows_per_page - 1) // self.rows_per_page

    def page_of(self, row_id: int) -> int:
        if not 0 <= row_id < self.rows:
            raise DbError(f"{self.name}: row {row_id} out of range")
        return self.first_block + row_id // self.rows_per_page

    def _slot(self, row_id: int) -> int:
        return (row_id % self.rows_per_page) * self.row_size

    def read_row(self, row_id: int) -> Generator:
        page = yield from self.db.fetch_page(self.page_of(row_id))
        off = self._slot(row_id)
        return bytes(page[off:off + self.row_size])

    def write_row(self, row_id: int, data: bytes) -> Generator:
        if len(data) > self.row_size:
            raise DbError(
                f"{self.name}: row of {len(data)}B > row_size {self.row_size}")
        data = data.ljust(self.row_size, b"\0")
        block = self.page_of(row_id)
        page = yield from self.db.fetch_page(block)
        off = self._slot(row_id)
        updated = page[:off] + data + page[off + self.row_size:]
        yield from self.db.write_page(block, updated)


class MiniDB:
    """The engine: table catalog + buffer pool + page IO."""

    def __init__(self, sim, blockfile: BlockFile,
                 buffer_pool_bytes: float = 16 * MB):
        self.sim = sim
        self.blockfile = blockfile
        self.page_size = blockfile.block_size
        self.buffer_pages = max(1, int(buffer_pool_bytes // self.page_size))
        self._pool: OrderedDict[int, bytes] = OrderedDict()
        self.tables: dict[str, Table] = {}
        self._next_block = 0
        self.page_reads = 0          # device reads (pool misses)
        self.page_writes = 0
        self.pool_hits = 0

    # -- catalog ----------------------------------------------------------
    def create_table(self, name: str, row_size: int, rows: int) -> Table:
        if name in self.tables:
            raise DbError(f"table {name!r} exists")
        table = Table(self, name, row_size, rows, self._next_block)
        if table.first_block + table.npages > self.blockfile.nblocks:
            raise DbError(
                f"table {name!r} needs {table.npages} pages; device full")
        self._next_block += table.npages
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise DbError(f"no table {name!r}") from None

    # -- buffer pool ----------------------------------------------------------
    def fetch_page(self, block: int) -> Generator:
        cached = self._pool.get(block)
        if cached is not None:
            self._pool.move_to_end(block)
            self.pool_hits += 1
            return cached
        data = yield from self.blockfile.read_block(block)
        self.page_reads += 1
        self._admit(block, data)
        return data

    def write_page(self, block: int, data: bytes) -> Generator:
        """Write-through: update the pool image and hit the device."""
        if len(data) != self.page_size:
            raise DbError("page write must be exactly one page")
        if block in self._pool:
            self._pool[block] = data
            self._pool.move_to_end(block)
        else:
            self._admit(block, data)
        yield from self.blockfile.write_block(block, data)
        self.page_writes += 1

    def _admit(self, block: int, data: bytes) -> None:
        self._pool[block] = data
        self._pool.move_to_end(block)
        while len(self._pool) > self.buffer_pages:
            self._pool.popitem(last=False)
