"""Figure 12: unmodified RUBiS throughput on Wiera (§5.4.2).

The whole RUBiS stack (web front end + mini-MySQL) runs on one Azure VM;
the database file lives either on the local attached disk or in remote
AWS memory through Wiera's POSIX layer (MySQL is "unmodified": it only
sees file IO).  O_DIRECT + a 16 MB buffer pool keep the device on the
critical path.  300 clients, timed run with ramp-up/ramp-down excluded.

Expected shape: low throughput on Basic A2 / Standard D1; 50-80%
improvement over the local disk on Standard D2/D3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.experiments.testbed import (local_disk_blockfile,
                                             remote_memory_blockfile)
from repro.bench.reporting import ExperimentReport
from repro.db import MiniDB
from repro.net.vmprofiles import get_profile
from repro.util.units import MB
from repro.workloads.rubis import RubisApp, RubisBenchmark

VM_SIZES = ("azure.basic_a2", "azure.standard_d1",
            "azure.standard_d2", "azure.standard_d3")
NBLOCKS = 16384          # a 256 MB database device


@dataclass
class Fig12Result:
    local_rps: dict = field(default_factory=dict)
    wiera_rps: dict = field(default_factory=dict)


def _bench(sim, blockfile, vm_profile, seed: int, clients: int,
           duration: float, ramp_up: float, ramp_down: float):
    db = MiniDB(sim, blockfile, buffer_pool_bytes=16 * MB)
    app = RubisApp(sim, db, vm_profile, np.random.default_rng(seed + 3))
    return RubisBenchmark(sim, app, clients=clients, think_time=1.2,
                          duration=duration, ramp_up=ramp_up,
                          ramp_down=ramp_down,
                          rng=np.random.default_rng(seed + 4))


def _run_local(vm: str, seed: int, clients: int, duration: float,
               ramp_up: float, ramp_down: float) -> float:
    sim, blockfile = local_disk_blockfile(seed + 1, "rubis.db", NBLOCKS)
    bench = _bench(sim, blockfile, get_profile(vm), seed, clients, duration,
                   ramp_up, ramp_down)
    proc = sim.process(bench.run())
    sim.run(until=proc)
    return bench.throughput


def _run_wiera(vm: str, seed: int, clients: int, duration: float,
               ramp_up: float, ramp_down: float) -> float:
    dep, blockfile = remote_memory_blockfile(
        vm, seed, "rubis", "/rubis.db", NBLOCKS, memory_size="2G")
    bench = _bench(dep.sim, blockfile, get_profile(vm), seed, clients,
                   duration, ramp_up, ramp_down)
    dep.drive(bench.run())
    return bench.throughput


def run_fig12(seed: int = 0, clients: int = 300, duration: float = 90.0,
              ramp_up: float = 30.0, ramp_down: float = 15.0) -> tuple:
    """Run the comparison.  Defaults are a 3.3x time-scale of the paper's
    300 s run / 120 s ramp-up / 60 s ramp-down, preserving the shape while
    keeping the benchmark quick; pass duration=300, ramp_up=120,
    ramp_down=60 for the full-length runs."""
    result = Fig12Result()
    for vm in VM_SIZES:
        result.local_rps[vm] = _run_local(vm, seed, clients, duration,
                                          ramp_up, ramp_down)
        result.wiera_rps[vm] = _run_wiera(vm, seed, clients, duration,
                                          ramp_up, ramp_down)

    report = ExperimentReport(
        exp_id="fig12",
        title="RUBiS throughput (requests/s): local disk vs remote memory "
              "through Wiera",
        columns=["Azure VM", "local disk (req/s)", "Wiera remote (req/s)",
                 "improvement"],
        paper_claim=("low throughput from small instances (Basic A2, "
                     "Standard D1); 50-80% improvement on Standard D2/D3"))
    for vm in VM_SIZES:
        local = result.local_rps[vm]
        remote = result.wiera_rps[vm]
        report.add_row(vm, local, remote,
                       f"{(remote / local - 1) * 100:+.0f}%")
    return result, report
