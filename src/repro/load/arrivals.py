"""Arrival models for the open-loop workload engine.

A closed-loop client issues its next operation only after the previous
one completes, so measured throughput is bounded by latency and says
nothing about what the store can absorb.  An *open-loop* driver instead
generates operations from an arrival process at a configured rate,
whether or not earlier operations have finished — the load the system
*would* see from a real user population.

Two orthogonal pieces compose an arrival stream:

* a **rate shape** — a plain ``rate_fn(t) -> ops/sec`` describing the
  offered load over simulated time (constant, flash crowd, diurnal
  curve), plus the ``peak_rate`` bound the thinning sampler needs;
* an **arrival process** — how individual arrivals are distributed
  around that rate: :class:`PoissonProcess` (memoryless).

:class:`PoissonProcess` samples via Lewis-Shedler thinning against
``peak_rate``, so any bounded time-varying ``rate_fn`` yields an exact
non-homogeneous Poisson stream.  All draws come from the process's own bound generator
(see :meth:`RngRegistry.substream`), so cohorts never share stream state.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

from repro.util.rng import exponential_interarrival

RateFn = Callable[[float], float]

#: candidates examined per ``next_event`` call before handing control
#: back (arrived=False); bounds the synchronous scan through dead air
#: (e.g. the night-time trough of a diurnal curve with zero active users)
SCAN_LIMIT = 4096


# -- rate shapes -------------------------------------------------------------

def constant_rate(rate: float) -> Tuple[RateFn, float]:
    """A flat offered load of ``rate`` ops/sec."""
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    return (lambda t: rate), rate


def flash_crowd_rate(base_rate: float, multiplier: float, at: float,
                     rise: float = 10.0, hold: float = 60.0,
                     fall: float = 30.0) -> Tuple[RateFn, float]:
    """Anna-style flash crowd: steady ``base_rate``, then a spike to
    ``base_rate * multiplier`` starting at ``at`` (linear rise over
    ``rise`` seconds, held ``hold`` seconds, linear decay over ``fall``)."""
    if multiplier < 1.0:
        raise ValueError(f"flash crowd multiplier must be >= 1: {multiplier}")
    peak = base_rate * multiplier

    def rate(t: float) -> float:
        if t < at or t >= at + rise + hold + fall:
            return base_rate
        if t < at + rise:
            return base_rate + (peak - base_rate) * (t - at) / rise
        if t < at + rise + hold:
            return peak
        done = (t - at - rise - hold) / fall
        return peak - (peak - base_rate) * done

    return rate, peak


def diurnal_rate(population, region: str,
                 rate_per_user: float) -> Tuple[RateFn, float]:
    """Offered load following a :class:`~repro.workloads.clients.
    GeoClientPopulation` activity curve: ``active_clients(region, t)``
    modeled users, each issuing ``rate_per_user`` ops/sec.  The curves
    peak region after region, so a multi-region cohort set produces the
    follow-the-sun load shift of the paper's Fig. 8 setup at population
    scale."""
    activity = population.activities[region]

    def rate(t: float) -> float:
        return activity.active_clients(t) * rate_per_user

    return rate, activity.max_clients * rate_per_user


# -- arrival processes -------------------------------------------------------

class ArrivalProcess:
    """Base: a stream of arrival instants sampled one gap at a time.

    ``bind`` attaches the per-cohort generator and rate shape;
    ``next_event(t)`` returns ``(dt, arrived)`` — sleep ``dt``
    seconds, and if ``arrived`` dispatch one operation.  ``arrived`` may
    be False when the process scanned a stretch of (near-)zero rate
    without finding an arrival, or ``(None, False)`` when the stream is
    exhausted.  One process instance drives exactly one
    cohort: instances carry sampler state and must not be shared.
    """

    def __init__(self) -> None:
        self.rng = None
        self.rate_fn: Optional[RateFn] = None
        self.peak_rate = 0.0

    def bind(self, rng, rate_fn: RateFn, peak_rate: float) -> None:
        if peak_rate <= 0:
            raise ValueError(f"peak_rate must be positive, got {peak_rate}")
        self.rng = rng
        self.rate_fn = rate_fn
        self.peak_rate = peak_rate

    def next_event(self, t: float) -> Tuple[Optional[float], bool]:
        raise NotImplementedError


class PoissonProcess(ArrivalProcess):
    """Non-homogeneous Poisson arrivals via thinning against peak_rate."""

    def next_event(self, t: float) -> Tuple[Optional[float], bool]:
        rng = self.rng
        peak = self.peak_rate
        rate_fn = self.rate_fn
        dt = 0.0
        for _ in range(SCAN_LIMIT):
            dt += exponential_interarrival(rng, peak)
            rate = rate_fn(t + dt)
            if rate >= peak or rng.random() < rate / peak:
                return dt, True
        return dt, False


def modeled_users_rate(users: int, rate_per_user: float) -> Tuple[RateFn, float]:
    """The rate shape of ``users`` steady users at ``rate_per_user`` each —
    the cohort aggregation identity: one arrival stream at
    ``users * rate_per_user`` is statistically the superposition of
    ``users`` independent per-user Poisson streams."""
    if users < 1:
        raise ValueError(f"a cohort models at least one user, got {users}")
    if rate_per_user <= 0 or not math.isfinite(rate_per_user):
        raise ValueError(f"rate_per_user must be positive/finite: "
                         f"{rate_per_user}")
    return constant_rate(users * rate_per_user)
