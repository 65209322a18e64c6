"""Closed-loop elasticity on the rebalance plane (PR 7).

``repro.autoscale`` watches the load signals the rest of the system
already emits (``load.*`` counters, cohort queues, egress links) and
actuates one elasticity primitive: shard add/remove through PR 5's
live rebalancer.

Enable it per deployment with ``build_deployment(autoscale=AutoscaleSpec(
target_per_shard=...))``; the default of ``None`` constructs nothing.
"""

from repro.autoscale.controller import Autoscaler, AutoscaleDecision
from repro.autoscale.signals import SignalReader, SignalSample

__all__ = [
    "Autoscaler",
    "AutoscaleDecision",
    "SignalReader",
    "SignalSample",
]
