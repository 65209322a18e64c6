"""RUBiS-like auction-site workload (§5.4.2 / Fig. 12).

RUBiS is a multi-component web application (Apache + PHP front end, MySQL
back end) implementing eBay-style browsing, bidding, buying and
commenting.  We model the same pipeline on one Azure VM: each request
burns front-end CPU (bounded by the VM's cores and relative speed) and
then performs its transaction's row reads/writes against the
:class:`~repro.db.minidb.MiniDB` — whose pages live either on the local
attached disk or in remote AWS memory through Wiera, exactly the two
storage settings the paper compares.

The benchmark harness matches the paper's: 300 simulated clients, a timed
run with ramp-up and ramp-down excluded from the measured throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np

from repro.core.client import OP_ERRORS
from repro.db.minidb import MiniDB
from repro.net.vmprofiles import VmProfile
from repro.sim.kernel import Simulator
from repro.sim.primitives import Resource
from repro.workloads.zipf import ScrambledZipfian


@dataclass(frozen=True)
class TxnType:
    """One RUBiS interaction: its weight in the mix and its row touches."""

    name: str
    weight: float
    item_reads: int = 0
    user_reads: int = 0
    bid_reads: int = 0
    item_writes: int = 0
    bid_writes: int = 0
    cpu_units: float = 1.0     # relative front-end work


# A browsing-heavy mix patterned on RUBiS's default transition table
# (~85% read-only interactions).  Row counts include the pages a real
# query touches beyond the row itself — search/listing interactions
# return many rows, bid histories scan the bids table.
RUBIS_MIX: tuple[TxnType, ...] = (
    TxnType("Home", 0.16, cpu_units=0.5),
    TxnType("BrowseCategories", 0.10, item_reads=3, cpu_units=0.7),
    TxnType("SearchItemsInCategory", 0.22, item_reads=10, cpu_units=1.2),
    TxnType("ViewItem", 0.18, item_reads=1, user_reads=1, bid_reads=1),
    TxnType("ViewUserInfo", 0.08, user_reads=1, cpu_units=0.8),
    TxnType("ViewBidHistory", 0.07, item_reads=1, bid_reads=8),
    TxnType("PlaceBid", 0.08, item_reads=1, user_reads=1,
            bid_writes=1, item_writes=1, cpu_units=1.3),
    TxnType("BuyNow", 0.03, item_reads=1, user_reads=1, item_writes=1,
            cpu_units=1.2),
    TxnType("PutComment", 0.04, item_reads=1, user_reads=1, bid_writes=1,
            cpu_units=1.1),
    TxnType("RegisterItem", 0.04, user_reads=1, item_writes=2,
            cpu_units=1.5),
)


@dataclass
class RubisStats:
    requests: int = 0            # completed in the measurement window
    total_requests: int = 0      # including ramp-up/down
    errors: int = 0
    response_times: list[float] = field(default_factory=list)
    per_txn: dict = field(default_factory=dict)


class RubisApp:
    """The web/PHP/MySQL stack on one VM."""

    #: front-end CPU seconds per cpu_unit on a cpu_factor=1.0 VM
    BASE_CPU_TIME = 0.007

    def __init__(self, sim: Simulator, db: MiniDB, vm: VmProfile,
                 rng: Optional[np.random.Generator] = None,
                 items: int = 50_000, users: int = 50_000,
                 bids: int = 200_000):
        self.sim = sim
        self.db = db
        self.vm = vm
        self.rng = rng or np.random.default_rng(0)
        self.cpu = Resource(sim, capacity=max(1, vm.cpus))
        self.items = db.table("items") if "items" in db.tables else \
            db.create_table("items", row_size=1024, rows=items)
        self.users = db.table("users") if "users" in db.tables else \
            db.create_table("users", row_size=1024, rows=users)
        self.bids = db.table("bids") if "bids" in db.tables else \
            db.create_table("bids", row_size=512, rows=bids)
        self._item_chooser = ScrambledZipfian(items, 0.8, self.rng)
        self._weights = np.array([t.weight for t in RUBIS_MIX])
        self._weights = self._weights / self._weights.sum()
        self._next_bid = 0

    def pick_txn(self) -> TxnType:
        idx = int(self.rng.choice(len(RUBIS_MIX), p=self._weights))
        return RUBIS_MIX[idx]

    def _cpu_slice(self, units: float) -> Generator:
        service = self.BASE_CPU_TIME * units * self.vm.cpu_factor
        request = self.cpu.request()
        try:
            yield request
            yield self.sim.timeout(service)
        finally:
            self.cpu.release(request)

    def handle(self, txn: TxnType) -> Generator:
        """Execute one interaction end to end; returns rows touched."""
        yield from self._cpu_slice(txn.cpu_units)
        touched = 0
        for _ in range(txn.item_reads):
            yield from self.items.read_row(self._item_chooser.next())
            touched += 1
        for _ in range(txn.user_reads):
            yield from self.users.read_row(
                int(self.rng.integers(0, self.users.rows)))
            touched += 1
        for _ in range(txn.bid_reads):
            yield from self.bids.read_row(
                int(self.rng.integers(0, self.bids.rows)))
            touched += 1
        for _ in range(txn.item_writes):
            row = self._item_chooser.next()
            yield from self.items.write_row(row, b"item-update")
            touched += 1
        for _ in range(txn.bid_writes):
            row = self._next_bid % self.bids.rows
            self._next_bid += 1
            yield from self.bids.write_row(row, b"bid-record")
            touched += 1
        return touched


class RubisBenchmark:
    """Closed-loop client pool with ramp-up/ramp-down windows."""

    def __init__(self, sim: Simulator, app: RubisApp, clients: int = 300,
                 think_time: float = 1.2, duration: float = 300.0,
                 ramp_up: float = 120.0, ramp_down: float = 60.0,
                 rng: Optional[np.random.Generator] = None):
        if ramp_up + ramp_down >= duration + ramp_up + ramp_down:
            pass  # durations are independent; nothing to validate here
        self.sim = sim
        self.app = app
        self.clients = clients
        self.think_time = think_time
        self.duration = duration
        self.ramp_up = ramp_up
        self.ramp_down = ramp_down
        self.rng = rng or np.random.default_rng(1)
        self.stats = RubisStats()

    @property
    def total_time(self) -> float:
        return self.ramp_up + self.duration + self.ramp_down

    def run(self) -> Generator:
        """Run the full benchmark; returns RubisStats with the measured
        throughput window = ``duration`` (ramps excluded)."""
        start = self.sim.now
        measure_from = start + self.ramp_up
        measure_to = measure_from + self.duration
        end = start + self.total_time
        workers = [
            self.sim.process(
                self._client(end, measure_from, measure_to,
                             np.random.default_rng(self.rng.integers(2**63))),
                name=f"rubis-client-{i}")
            for i in range(self.clients)]
        yield self.sim.all_of(workers)
        return self.stats

    @property
    def throughput(self) -> float:
        return self.stats.requests / self.duration

    def _client(self, end: float, measure_from: float,
                measure_to: float, rng: np.random.Generator) -> Generator:
        sim = self.sim
        # stagger arrivals over the ramp-up
        yield sim.timeout(float(rng.uniform(0, self.ramp_up)))
        while sim.now < end:
            txn = self.app.pick_txn()
            t0 = sim.now
            try:
                yield from self.app.handle(txn)
            except OP_ERRORS:   # the database's storage failed the request
                self.stats.errors += 1
                continue
            elapsed = sim.now - t0
            self.stats.total_requests += 1
            if measure_from <= t0 < measure_to:
                self.stats.requests += 1
                self.stats.response_times.append(elapsed)
                bucket = self.stats.per_txn.setdefault(
                    txn.name, {"count": 0, "time": 0.0})
                bucket["count"] += 1
                bucket["time"] += elapsed
            yield sim.timeout(float(rng.exponential(self.think_time)))
