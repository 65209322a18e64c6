"""Retry policy: capped exponential backoff with deterministic jitter.

Every replication/forwarding path that talks across the WAN retries
transient failures under one of these policies.  Jitter draws come from a
named :class:`~repro.util.rng.RngRegistry` stream, so retry timing is part
of the deterministic simulation — two runs with the same seed back off at
exactly the same instants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.net.network import NetworkError
from repro.obs.api import get_obs
from repro.sim.kernel import Simulator
from repro.sim.rpc import RpcError

#: exceptions that indicate a transient transport problem worth retrying
TRANSIENT_ERRORS = (NetworkError, TimeoutError, RpcError)
#: each retry waits this many times longer than the one before
BACKOFF_MULTIPLIER = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff: ``base * BACKOFF_MULTIPLIER**attempt``.

    ``max_attempts`` counts total tries (first try included); a policy with
    ``max_attempts=1`` never retries.  ``jitter`` spreads each delay
    uniformly within ``+/- jitter`` of its nominal value when an rng stream
    is supplied, breaking retry synchronization between replicas without
    breaking reproducibility.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    max_delay: float = 5.0
    jitter: float = 0.2

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1): {self.jitter}")

    def backoff(self, attempt: int, rng=None) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        delay = min(self.base_delay * BACKOFF_MULTIPLIER ** attempt,
                    self.max_delay)
        if rng is not None and self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return delay


def call_with_retries(sim: Simulator, make_call: Callable,
                      policy: RetryPolicy, rng=None,
                      label: str = "rpc") -> Generator:
    """Issue ``make_call()`` up to ``policy.max_attempts`` times.

    ``make_call`` must build a *fresh* call each attempt (a Process cannot
    be re-yielded), which also lets callers re-resolve a moving target —
    e.g. the current primary — between attempts.  Retries are recorded in
    the ``retry.attempts`` metric; the last transient error is re-raised
    once attempts are exhausted.
    """
    retries = get_obs(sim).metrics.counter("retry.attempts", path=label)
    last_error: Optional[BaseException] = None
    for attempt in range(policy.max_attempts):
        if attempt:
            yield sim.timeout(policy.backoff(attempt - 1, rng))
            retries.inc()
        call = make_call()
        try:
            result = yield call
            return result
        except TRANSIENT_ERRORS as exc:
            last_error = exc
    raise last_error
