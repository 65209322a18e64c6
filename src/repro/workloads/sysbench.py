"""SysBench-fileio-like random IO benchmark (§5.4.1 / Fig. 11).

Closed-loop threads issue block-aligned random reads (and optionally
writes) against a :class:`~repro.fs.device.BlockFile` for a fixed duration
and report IOPS.  ``O_DIRECT`` semantics are the caller's responsibility
(use a direct-IO tier / minimal buffering), as in the paper's setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np

from repro.fs.device import BlockFile
from repro.sim.kernel import Simulator


@dataclass
class SysbenchResult:
    ops: int = 0
    reads: int = 0
    writes: int = 0
    duration: float = 0.0
    latencies: list[float] = field(default_factory=list)

    @property
    def iops(self) -> float:
        return self.ops / self.duration if self.duration > 0 else 0.0


class SysbenchFileIO:
    """sysbench --test=fileio --file-test-mode=rndrd/rndrw equivalent."""

    def __init__(self, sim: Simulator, blockfile: BlockFile,
                 threads: int = 4, read_prop: float = 1.0,
                 duration: float = 30.0,
                 rng: Optional[np.random.Generator] = None):
        if not 0.0 <= read_prop <= 1.0:
            raise ValueError("read_prop must be in [0, 1]")
        if threads < 1:
            raise ValueError("need at least one thread")
        self.sim = sim
        self.blockfile = blockfile
        self.threads = threads
        self.read_prop = read_prop
        self.duration = duration
        self.rng = rng or np.random.default_rng(0)
        self.result = SysbenchResult()
        self._write_payload = b"\xA5" * blockfile.block_size

    def run(self) -> Generator:
        """Run the benchmark; returns the populated SysbenchResult."""
        start = self.sim.now
        end = start + self.duration
        workers = [self.sim.process(self._worker(end), name=f"sysbench-{i}")
                   for i in range(self.threads)]
        yield self.sim.all_of(workers)
        self.result.duration = self.sim.now - start
        return self.result

    def _worker(self, end_time: float) -> Generator:
        res = self.result
        n = self.blockfile.nblocks
        while self.sim.now < end_time:
            index = int(self.rng.integers(0, n))
            t0 = self.sim.now
            if self.rng.random() < self.read_prop:
                yield from self.blockfile.read_block(index)
                res.reads += 1
            else:
                yield from self.blockfile.write_block(
                    index, self._write_payload)
                res.writes += 1
            res.ops += 1
            res.latencies.append(self.sim.now - t0)
