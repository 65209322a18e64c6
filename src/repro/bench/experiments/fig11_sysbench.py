"""Figure 11: SysBench IOPS — Azure local disk vs AWS remote memory.

Setup (per §5.4.1): the primary Tiera instance runs on an Azure VM with a
disk-only tier (host cache off / O_DIRECT -> the native 500-IOPS Azure
throttle applies); a second instance on an AWS t2.micro in the same region
holds a memory tier; PrimaryBackup with synchronous updates; all gets are
forwarded to the AWS memory instance.  SysBench drives 16 KB random reads
through the FUSE-substitute POSIX layer, varying the Azure VM size.

Expected shape: local disk flat at ~500 IOPS regardless of VM size;
remote memory through Wiera sensitive to VM size (Azure's network
throttling): Basic A2 < Standard D1 < 500 < Standard D2 ~= D3 at ~44%
above the disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.experiments.testbed import (local_disk_blockfile,
                                             remote_memory_blockfile)
from repro.bench.reporting import ExperimentReport
from repro.workloads.sysbench import SysbenchFileIO

VM_SIZES = ("azure.basic_a2", "azure.standard_d1",
            "azure.standard_d2", "azure.standard_d3")
NBLOCKS = 4096          # a 64 MB prepared file
THREADS = 4


@dataclass
class Fig11Result:
    local_iops: dict = field(default_factory=dict)
    wiera_iops: dict = field(default_factory=dict)


def _sysbench(sim, blockfile, duration: float, seed: int) -> SysbenchFileIO:
    return SysbenchFileIO(sim, blockfile, threads=THREADS, read_prop=1.0,
                          duration=duration,
                          rng=np.random.default_rng(seed + 2))


def _run_local_disk(duration: float, seed: int) -> float:
    """Baseline: SysBench straight onto the attached Azure disk."""
    sim, blockfile = local_disk_blockfile(seed + 1, "sbtest", NBLOCKS)
    bench = _sysbench(sim, blockfile, duration, seed)
    proc = sim.process(bench.run())
    sim.run(until=proc)
    return bench.result.iops


def _run_wiera_remote(vm: str, duration: float, seed: int) -> float:
    """Remote AWS memory through Wiera's POSIX layer."""
    dep, blockfile = remote_memory_blockfile(
        vm, seed, "sysbench", "/sbtest", NBLOCKS, memory_size="1G")
    bench = _sysbench(dep.sim, blockfile, duration, seed)
    dep.drive(bench.run())
    return bench.result.iops


def run_fig11(duration: float = 30.0, seed: int = 0) -> tuple:
    result = Fig11Result()
    for vm in VM_SIZES:
        result.local_iops[vm] = _run_local_disk(duration, seed)
        result.wiera_iops[vm] = _run_wiera_remote(vm, duration, seed)

    report = ExperimentReport(
        exp_id="fig11",
        title="SysBench IOPS: Azure local disk vs AWS remote memory "
              "through Wiera",
        columns=["Azure VM", "local disk (IOPS)", "Wiera remote (IOPS)",
                 "improvement"],
        paper_claim=("local disk flat ~500 IOPS (Azure throttle); Wiera "
                     "remote memory ~44% better on Standard D2/D3; "
                     "Basic A2 worse than Standard D1"))
    for vm in VM_SIZES:
        local = result.local_iops[vm]
        remote = result.wiera_iops[vm]
        report.add_row(vm, local, remote,
                       f"{(remote / local - 1) * 100:+.0f}%")
    return result, report
