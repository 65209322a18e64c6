"""Paper-vs-measured experiment reports.

Every benchmark builds an :class:`ExperimentReport` with the series/rows
the paper's table or figure shows, the paper's claim, and what we
measured.  Reports are registered in a process-global list; the benchmark
suite's conftest prints them in the pytest terminal summary, and
``dump_reports`` writes them under ``results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


@dataclass
class ExperimentReport:
    exp_id: str                 # e.g. "fig7", "table3"
    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    paper_claim: str = ""
    notes: str = ""

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.exp_id}: row has {len(values)} values for "
                f"{len(self.columns)} columns")
        self.rows.append(list(values))

    def render(self) -> str:
        cells = [[str(c) for c in self.columns]]
        for row in self.rows:
            cells.append([_fmt(v) for v in row])
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.columns))]
        sep = "-+-".join("-" * w for w in widths)
        lines = [f"== {self.exp_id}: {self.title} =="]
        if self.paper_claim:
            lines.append(f"paper: {self.paper_claim}")
        lines.append(" | ".join(c.ljust(w) for c, w in zip(cells[0], widths)))
        lines.append(sep)
        for row in cells[1:]:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


_REGISTRY: list[ExperimentReport] = []


def register_report(report: ExperimentReport) -> ExperimentReport:
    _REGISTRY.append(report)
    return report


def all_reports() -> list[ExperimentReport]:
    return list(_REGISTRY)


def render_all() -> str:
    return "\n\n".join(r.render() for r in _REGISTRY)


def dump_reports(directory: str | Path) -> Optional[Path]:
    if not _REGISTRY:
        return None
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for report in _REGISTRY:
        (out / f"{report.exp_id}.txt").write_text(report.render() + "\n")
    combined = out / "all_experiments.txt"
    combined.write_text(render_all() + "\n")
    return combined


def dump_observability(obs, directory: str | Path,
                       stem: str = "run") -> list[Path]:
    """Export one run's observability: Chrome trace + metrics snapshot.

    Writes ``{stem}_metrics.json`` always, and ``{stem}_trace.json``
    (chrome://tracing / Perfetto ``trace_event`` format) when the run
    recorded spans.  Returns the written paths.
    """
    from repro.obs.export import write_chrome_trace, write_metrics

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    metrics_path = out / f"{stem}_metrics.json"
    write_metrics(obs.metrics, metrics_path)
    written.append(metrics_path)
    spans = getattr(obs.tracer, "spans", None)
    if spans:
        trace_path = out / f"{stem}_trace.json"
        write_chrome_trace(obs.tracer, trace_path)
        written.append(trace_path)
    return written
