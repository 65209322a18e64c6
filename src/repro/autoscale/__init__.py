"""Closed-loop elasticity on the rebalance plane (PR 7).

``repro.autoscale`` watches the load signals the rest of the system
already emits (``load.*`` counters, cohort queues, egress links) and
actuates the elasticity primitives the earlier PRs built: shard
add/remove (PR 5's rebalancer), per-shard replica growth (§4.4 recovery
machinery), and tier demotion (Figure 6(a) cold-data plumbing).

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
