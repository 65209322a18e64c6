"""YCSB-like workload driver.

Implements the subset of the Yahoo Cloud Serving Benchmark the paper's
experiments use: a record space, an operation mix (read/update), a key
chooser (scrambled Zipfian or uniform), and closed-loop clients driving a
:class:`~repro.core.client.WieraClient`.  The paper runs "workload A: an
update heavy workload" for Fig. 7 and a "read mostly workload (5% put and
95% get)" for Fig. 8.

The :class:`StalenessOracle` provides the ground truth Fig. 8 needs: it
tracks the globally latest acknowledged version per key so each get can be
classified as *latest* (strong) or *outdated* (eventual).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np

from repro.workloads.zipf import ScrambledZipfian, Uniform


@dataclass(frozen=True)
class YcsbWorkload:
    """Operation mix + record space (one YCSB 'workload' file)."""

    name: str = "workload-a"
    record_count: int = 1000
    value_size: int = 1024        # 10 fields x ~100B, YCSB's default row
    read_prop: float = 0.5
    update_prop: float = 0.5
    distribution: str = "zipfian"
    zipf_theta: float = 0.99

    def __post_init__(self):
        total = self.read_prop + self.update_prop
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"operation mix must sum to 1, got {total}")
        if self.distribution not in ("zipfian", "zipfian_exact", "uniform"):
            raise ValueError(f"unknown distribution {self.distribution!r}")

    @classmethod
    def workload_a(cls, **overrides) -> "YcsbWorkload":
        """Update heavy: 50% read / 50% update (used in Fig. 7)."""
        return cls(name="workload-a", read_prop=0.5, update_prop=0.5,
                   **overrides)

    @classmethod
    def workload_b(cls, **overrides) -> "YcsbWorkload":
        """Read mostly: 95% read / 5% update (used in Fig. 8)."""
        return cls(name="workload-b", read_prop=0.95, update_prop=0.05,
                   **overrides)

    def chooser(self, rng: np.random.Generator):
        if self.distribution == "zipfian":
            return ScrambledZipfian(self.record_count, self.zipf_theta, rng)
        if self.distribution == "zipfian_exact":
            return ScrambledZipfian(self.record_count, self.zipf_theta, rng,
                                    exact=True)
        return Uniform(self.record_count, rng)

    def key(self, index: int) -> str:
        return f"user{index}"

    def value(self, rng: np.random.Generator) -> bytes:
        return rng.bytes(self.value_size)


class StalenessOracle:
    """Ground truth for 'did this get return the latest data?' (Fig. 8).

    ``note_put`` is called when a put is *acknowledged*; a get is judged
    against the versions acknowledged strictly before the get started — a
    read racing an in-flight put is not counted as stale.
    """

    def __init__(self):
        self._acks: dict[str, list[tuple[float, int]]] = {}
        self.latest_reads = 0
        self.outdated_reads = 0

    def note_put(self, key: str, version: int, ack_time: float) -> None:
        self._acks.setdefault(key, []).append((ack_time, version))

    def latest_before(self, key: str, t: float) -> int:
        best = 0
        for ack_time, version in self._acks.get(key, ()):
            if ack_time <= t and version > best:
                best = version
        return best

    def judge_get(self, key: str, returned_version: int,
                  started_at: float) -> bool:
        """Record and return whether the get saw the latest data."""
        latest = self.latest_before(key, started_at)
        if returned_version >= latest:
            self.latest_reads += 1
            return True
        self.outdated_reads += 1
        return False

    @property
    def total_reads(self) -> int:
        return self.latest_reads + self.outdated_reads

    @property
    def outdated_fraction(self) -> float:
        total = self.total_reads
        return self.outdated_reads / total if total else 0.0


@dataclass
class YcsbStats:
    ops: int = 0
    reads: int = 0
    updates: int = 0
    errors: int = 0
    #: error counts keyed by exception class name (TimeoutError,
    #: WrongShardError, LockServiceError, ...) — same total as ``errors``
    errors_by_type: dict[str, int] = field(default_factory=dict)
    read_latencies: list[float] = field(default_factory=list)
    update_latencies: list[float] = field(default_factory=list)

    def note_error(self, exc: BaseException) -> None:
        self.errors += 1
        kind = type(exc).__name__
        self.errors_by_type[kind] = self.errors_by_type.get(kind, 0) + 1


class YcsbClient:
    """One closed-loop YCSB client bound to a WieraClient."""

    def __init__(self, sim, wiera_client, workload: YcsbWorkload,
                 rng: np.random.Generator,
                 think_time: float = 0.0,
                 oracle: Optional[StalenessOracle] = None,
                 is_active=None, activity_poll: float = 1.0):
        self.sim = sim
        self.client = wiera_client
        self.workload = workload
        self.rng = rng
        self.think_time = think_time
        self.oracle = oracle
        self.is_active = is_active      # callable() -> bool, or None
        self.activity_poll = activity_poll
        self.chooser = workload.chooser(rng)
        self.stats = YcsbStats()
        self._proc = None

    def start(self) -> None:
        self._proc = self.sim.process(self._run(), name="ycsb-client")

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("workload done")

    def load(self, count: Optional[int] = None) -> Generator:
        """Preload the record space (the YCSB load phase)."""
        n = count if count is not None else self.workload.record_count
        for i in range(n):
            yield from self.client.put(self.workload.key(i),
                                       self.workload.value(self.rng))

    def _run(self) -> Generator:
        while True:
            if self.is_active is not None and not self.is_active():
                yield self.sim.timeout(self.activity_poll)
                continue
            yield from self._one_op()
            if self.think_time > 0:
                yield self.sim.timeout(
                    float(self.rng.exponential(self.think_time)))

    def _one_op(self) -> Generator:
        key = self.workload.key(self.chooser.next())
        if self.rng.random() < self.workload.read_prop:
            started = self.sim.now
            try:
                result = yield from self.client.get(key)
            except Exception as exc:
                self.stats.note_error(exc)
                return
            self.stats.ops += 1
            self.stats.reads += 1
            self.stats.read_latencies.append(result["latency"])
            if self.oracle is not None:
                self.oracle.judge_get(key, result["version"], started)
        else:
            value = self.workload.value(self.rng)
            try:
                result = yield from self.client.put(key, value)
            except Exception as exc:
                self.stats.note_error(exc)
                return
            self.stats.ops += 1
            self.stats.updates += 1
            self.stats.update_latencies.append(result["latency"])
            if self.oracle is not None:
                self.oracle.note_put(key, result["version"], self.sim.now)
