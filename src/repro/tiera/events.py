"""Policy event descriptors.

An *event* is "the occurrence of some condition" (§2.1).  These dataclasses
are declarative descriptions; the policy engine inside
:class:`~repro.tiera.instance.TieraInstance` (and, for the monitoring
events, :mod:`repro.core.monitoring`) decides when each fires.

Tiera's original events: action (insert/get), timer, and threshold
(tier-filled).  Wiera (§3.2.3) adds LatencyMonitoring, RequestsMonitoring
and ColdDataMonitoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class PolicyEvent:
    """Base class; exists so rules can be typed uniformly."""


@dataclass(frozen=True)
class InsertEvent(PolicyEvent):
    """Fires when an object is inserted.

    ``tier=None`` means "on every put, before placement" — such rules
    typically contain the ``store`` response that decides placement
    (Figure 1(a)).  ``tier="tier1"`` means "after bytes landed in tier1"
    (the write-through trigger of Figure 1(b)).
    """

    tier: Optional[str] = None


@dataclass(frozen=True)
class OperationEvent(PolicyEvent):
    """Fires on a named API operation ("get", "put", "remove", ...)."""

    op: str = "get"
    tier: Optional[str] = None


@dataclass(frozen=True)
class TimerEvent(PolicyEvent):
    """Fires every ``period`` seconds (Figure 1(a)'s write-back flush)."""

    period: float = 60.0


@dataclass(frozen=True)
class FilledEvent(PolicyEvent):
    """Fires when a tier's occupancy crosses ``fraction`` (edge-triggered,
    re-armed once occupancy drops back below)."""

    tier: str = "tier1"
    fraction: float = 0.5


@dataclass(frozen=True)
class ColdDataEvent(PolicyEvent):
    """Wiera ColdDataMonitoring: an object hasn't been accessed for ``age``
    seconds.  A dedicated scanner thread checks every ``check_interval``."""

    age: float = 120 * 3600.0
    check_interval: float = 600.0
    tier: Optional[str] = None   # restrict to objects resident on this tier
