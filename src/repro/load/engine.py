"""The load engine: a fleet of cohorts run and reported as one unit.

:class:`LoadEngine` owns the cohorts of one experiment — start them
together, run the simulation for a measured window, stop them together,
and aggregate per-cohort reports into one offered-vs-achieved summary.
Stopping snapshots each cohort's stats *before* the grace drain, so the
summary reflects exactly the measurement window even though stragglers
are still completing.
"""

from __future__ import annotations

from typing import Optional

from repro.load.cohort import ClientCohort


class LoadEngine:
    """All client cohorts of one experiment, driven together."""

    def __init__(self, sim):
        self.sim = sim
        self.cohorts: list[ClientCohort] = []
        self._by_name: dict[str, ClientCohort] = {}

    def add(self, cohort: ClientCohort) -> ClientCohort:
        if cohort.spec.name in self._by_name:
            raise ValueError(f"duplicate cohort name {cohort.spec.name!r}")
        self.cohorts.append(cohort)
        self._by_name[cohort.spec.name] = cohort
        return cohort

    def __getitem__(self, name: str) -> ClientCohort:
        return self._by_name[name]

    def __len__(self) -> int:
        return len(self.cohorts)

    def __iter__(self):
        return iter(self.cohorts)

    @property
    def modeled_users(self) -> int:
        return sum(c.spec.users for c in self.cohorts)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        for cohort in self.cohorts:
            cohort.start()

    def stop(self) -> None:
        for cohort in self.cohorts:
            cohort.stop()

    def run(self, duration: float, grace: float = 0.0) -> dict:
        """Start every cohort, advance the simulation ``duration``
        sim-seconds, stop arrivals, optionally drain ``grace`` more
        seconds for in-flight stragglers, and return :meth:`report` for
        the measurement window."""
        self.start()
        self.sim.run(until=self.sim.now + duration)
        self.stop()
        report = self.report()
        if grace > 0:
            self.sim.run(until=self.sim.now + grace)
        return report

    # -- reporting ---------------------------------------------------------
    def report(self, elapsed: Optional[float] = None) -> dict:
        """Aggregate offered vs achieved load across every cohort.

        ``elapsed`` overrides the per-cohort windows for the aggregate
        rates (useful when cohorts started at different times).
        """
        cohorts = [c.report() for c in self.cohorts]
        window = (elapsed if elapsed is not None
                  else max((c.elapsed() for c in self.cohorts), default=0.0))
        offered = sum(c["offered"] for c in cohorts)
        achieved = sum(c["achieved"] for c in cohorts)
        errors = sum(c["errors"] for c in cohorts)
        shed = sum(c["shed"] for c in cohorts)
        discarded = sum(c["discarded"] for c in cohorts)
        acked_digest = 0
        for c in cohorts:
            acked_digest ^= c.get("acked_digest", 0)
        errors_by_type: dict[str, int] = {}
        for c in cohorts:
            for kind, n in c["errors_by_type"].items():
                errors_by_type[kind] = errors_by_type.get(kind, 0) + n
        window = max(window, 1e-12)
        return {
            "cohorts": len(cohorts),
            "modeled_users": self.modeled_users,
            "offered": offered,
            "achieved": achieved,
            "errors": errors,
            "errors_by_type": dict(sorted(errors_by_type.items())),
            "shed": shed,
            "discarded": discarded,
            "acked_digest": acked_digest,
            "elapsed": window,
            "offered_rate": offered / window,
            "achieved_rate": achieved / window,
            "per_cohort": cohorts,
        }
