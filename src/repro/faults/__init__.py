"""Fault injection and retry policies (``repro.faults``).

The chaos toolkit behind the dynamism claims: a deterministic
:class:`FaultSchedule` scripts host crashes, WAN partitions, and latency
spikes into a simulation, while :class:`RetryPolicy` +
:func:`call_with_retries` give every replication path capped, jittered
exponential backoff.  See DESIGN.md "Failure handling & fault injection".
"""

from repro.faults.retry import (
    TRANSIENT_ERRORS,
    RetryPolicy,
    call_with_retries,
)
from repro.faults.schedule import FaultEvent, FaultSchedule

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "RetryPolicy",
    "TRANSIENT_ERRORS",
    "call_with_retries",
]
