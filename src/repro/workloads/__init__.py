"""Workload generators used by the evaluation.

* :mod:`repro.workloads.zipf` — YCSB-style (scrambled) Zipfian key choosers.
* :mod:`repro.workloads.ycsb` — the Yahoo Cloud Serving Benchmark subset the
  paper uses (workload mixes, closed-loop clients).
* :mod:`repro.workloads.clients` — geo-distributed client populations with
  normally-distributed diurnal activity (the Fig. 8 setup).
* :mod:`repro.workloads.sysbench` — SysBench-fileio-like random IO driver.
* :mod:`repro.workloads.rubis` — RUBiS-like auction application over the
  mini relational DB in :mod:`repro.db`.
"""

from repro.workloads.zipf import ScrambledZipfian, Zipfian
from repro.workloads.ycsb import YcsbClient, YcsbWorkload
from repro.workloads.clients import GeoClientPopulation, RegionActivity

__all__ = [
    "Zipfian",
    "ScrambledZipfian",
    "YcsbWorkload",
    "YcsbClient",
    "GeoClientPopulation",
    "RegionActivity",
]
