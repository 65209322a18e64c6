"""The op history: one row per Table 2 call a client completed, booked by
:class:`~repro.core.client.WieraClient` alone; every report of what became
of an op is a view of it.  Columns ``op, key, version, start, end,
outcome``: the version read or written (None on failure), and None or the
class name of the ``OP_ERRORS`` type the op ended with.  No payload column:
64 KB get replies would hold gigabytes on a read-heavy run.  What a set of
histories says about consistency — staleness included — is
:func:`repro.obs.check.check`'s."""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterator, NamedTuple, Optional


class OpHistory:
    """Columnar invocation/response record of one client's ops."""

    __slots__ = ("op", "key", "version", "start", "end", "outcome")

    def __init__(self) -> None:
        self.op: list[str] = []
        self.key: list[str] = []
        self.version: list[Optional[int]] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.outcome: list[Optional[str]] = []

    def book(self, op: str, key: str, version: Optional[int], start: float,
             end: float, outcome: Optional[str] = None) -> None:
        self.op.append(op)
        self.key.append(key)
        self.version.append(version)
        self.start.append(start)
        self.end.append(end)
        self.outcome.append(outcome)

    def __len__(self) -> int:
        return len(self.op)

    def rows(self, since: int = 0) -> Iterator[tuple]:
        """``(op, key, version, start, end, outcome)`` from row ``since``
        on, in booking (completion) order."""
        return islice(zip(self.op, self.key, self.version, self.start,
                          self.end, self.outcome), since, None)

    def latencies(self, op: str, start: float = -math.inf,
                  end: float = math.inf) -> list[float]:
        """Latency of every ``op`` that returned and was invoked in
        ``[start, end)``, in booking order."""
        return [e - s for o, _, _, s, e, out in self.rows()
                if o == op and out is None and start <= s < end]

    def mean_latency(self, op: str) -> float:
        values = self.latencies(op)
        return sum(values) / len(values) if values else 0.0

    def summary(self, since: int = 0) -> "OpSummary":
        """What a workload client reports of the rows from ``since`` on."""
        latencies: dict[str, list[float]] = {"get": [], "put": []}
        by_type: dict[str, int] = {}
        for op, _, _, start, end, outcome in self.rows(since):
            if outcome is not None:
                by_type[outcome] = by_type.get(outcome, 0) + 1
            elif op in latencies:
                latencies[op].append(end - start)
        return OpSummary(sum(map(len, latencies.values())),
                         sum(by_type.values()), by_type, latencies)


class OpSummary(NamedTuple):
    ops: int                        # gets and puts that returned
    errors: int
    errors_by_type: dict[str, int]
    latencies: dict[str, list[float]]     # "get"/"put" -> booking order
