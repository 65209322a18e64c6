"""Reproductions of every table and figure in the paper's §5.

One module per experiment; each exposes a ``run_*`` function returning a
result dict plus one or more :class:`~repro.bench.reporting.ExperimentReport`
objects.  The pytest benchmarks under ``benchmarks/`` are thin wrappers
over these.  :mod:`~repro.bench.experiments.testbed` builds the §5.4
storage settings Figures 11 and 12 compare, which
``examples/remote_memory_database.py`` reuses; the other examples build
their own worlds.
"""

from repro.bench.experiments.fig7_dynamic_consistency import run_fig7
from repro.bench.experiments.fig8_change_primary import run_fig8_table3
from repro.bench.experiments.fig9_tier_latency import run_fig9
from repro.bench.experiments.fig10_centralized_cold import run_fig10
from repro.bench.experiments.sec53_cold_cost import run_sec53
from repro.bench.experiments.fig11_sysbench import run_fig11
from repro.bench.experiments.fig12_rubis import run_fig12

__all__ = [
    "run_fig7",
    "run_fig8_table3",
    "run_fig9",
    "run_fig10",
    "run_sec53",
    "run_fig11",
    "run_fig12",
]
