"""Deterministic discrete-event simulation kernel.

A small SimPy-like engine: processes are Python generators that yield
events (timeouts, other processes, resource requests, ...) and are resumed
when those events fire.  Time is a float in **seconds**.  Determinism comes
from a single-threaded event loop with FIFO tie-breaking by insertion
sequence number.
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.primitives import (
    Gate,
    Loop,
    Resource,
    SerialServer,
    shielded,
    wake_at,
)

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "AllOf",
    "AnyOf",
    "Resource",
    "SerialServer",
    "wake_at",
    "shielded",
    "Gate",
    "Loop",
]
