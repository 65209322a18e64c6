"""YCSB-like workload driver.

Implements the subset of the Yahoo Cloud Serving Benchmark the paper's
experiments use: a record space, an operation mix (read/update), a key
chooser (scrambled Zipfian or uniform), and closed-loop clients driving a
:class:`~repro.core.client.WieraClient`.  The paper runs "workload A: an
update heavy workload" for Fig. 7 and a "read mostly workload (5% put and
95% get)" for Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.core.client import OP_ERRORS
from repro.obs.history import OpSummary
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


class YcsbClient:
    """One closed-loop YCSB client bound to a WieraClient."""

    def __init__(self, sim, wiera_client, workload: YcsbWorkload,
                 rng: np.random.Generator,
                 think_time: float = 0.0,
                 is_active=None, activity_poll: float = 1.0):
        self.sim = sim
        self.client = wiera_client
        self.workload = workload
        self.rng = rng
        self.think_time = think_time
        self.is_active = is_active      # callable() -> bool, or None
        self.activity_poll = activity_poll
        self.chooser = workload.chooser(rng)
        self._since: Optional[int] = None   # history length at start()
        self._proc = None
        self._sleep = None   # the activity poll or think time under way

    @property
    def stats(self) -> OpSummary:
        """A view of its client's op history from :meth:`start` on."""
        history = self.client.history
        return history.summary(
            len(history) if self._since is None else self._since)

    def start(self) -> None:
        self._since = len(self.client.history)
        self._proc = self.sim.process(self._run(), name="ycsb-client")

    def stop(self) -> None:
        if self._sleep is not None:
            self._sleep.cancel()    # a no-op once it has fired
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
                self._sleep = self.sim.timeout(self.activity_poll)
                yield self._sleep
                continue
            yield from self._one_op()
            if self.think_time > 0:
                self._sleep = self.sim.timeout(
                    float(self.rng.exponential(self.think_time)))
                yield self._sleep

    def _one_op(self) -> Generator:
        key = self.workload.key(self.chooser.next())
        try:
            if self.rng.random() < self.workload.read_prop:
                yield from self.client.get(key)
            else:
                yield from self.client.put(key, self.workload.value(self.rng))
        except OP_ERRORS:
            pass    # booked in the client's history
