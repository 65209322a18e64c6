"""The autoscaler: close the loop between load signals and elasticity.

PR 6 built the open-loop load engine and the scale-out bend; PR 5 built
live shard rebalancing.  This controller connects them: a single
simulation process samples the :class:`~repro.autoscale.signals.
SignalReader` every ``decision_interval`` sim-seconds and works one
lever, the shard count.  Offered rate above :data:`HIGH_WATER` of
current capacity (``shards x target_per_shard``), any shed load, or a
saturated egress link grows the shard count toward demand via
:meth:`~repro.shard.map.ShardManager.add_shard`; a rate that would still
fit under :data:`LOW_WATER` of the *post-removal* capacity, sustained for
``scale_down_windows`` consecutive windows, shrinks it by one via
``remove_shard``.  The asymmetric bands plus the post-removal capacity
test are the hysteresis that stops flapping.

Idle data is not this controller's: a policy's Figure 6(a)
``ColdDataEvent`` rule and the centralized ``ColdDataCoordinator``
(§5.3) demote it, each by the same ``ctl_demote_cold``.

Every action is performed inline in the decision process and bracketed
by ``cooldown``; the loop arms its next round only after this one ends,
so one action runs at a time and the controller can never race its own
rebalances.  Every decision —
including the ones that do nothing, and why — is kept as an
:class:`AutoscaleDecision` audit record and counted under
``autoscale.*`` metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator

from repro.autoscale.signals import SignalReader, SignalSample
from repro.core.global_policy import AutoscaleSpec
from repro.obs.api import get_obs
from repro.sim.primitives import Loop

#: grow when demand exceeds this fraction of capacity (or of egress)
HIGH_WATER = 0.85
#: shrink when demand fits under this fraction of post-removal capacity
LOW_WATER = 0.45


@dataclass(frozen=True)
class AutoscaleDecision:
    """Audit record for one decision window."""

    time: float
    offered_rate: float
    shed: int
    queue_depth: int
    egress_utilization: float
    shards: int           # shard count when the decision was taken
    desired: int          # shard count the controller wanted
    action: str           # hold|scale_up|scale_down|skip_cooldown
    reason: str
    took: float = 0.0     # sim-seconds the actuation cost
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "time": self.time, "offered_rate": self.offered_rate,
            "shed": self.shed, "queue_depth": self.queue_depth,
            "egress_utilization": self.egress_utilization,
            "shards": self.shards, "desired": self.desired,
            "action": self.action, "reason": self.reason,
            "took": self.took, "detail": self.detail,
        }


class Autoscaler:
    """One controller per sharded namespace (see module docstring)."""

    def __init__(self, manager, spec: AutoscaleSpec,
                 reader: SignalReader, retry_policy=None):
        self.manager = manager            # repro.shard.map.ShardManager
        self.sim = manager.sim
        self.spec = spec
        self.reader = reader
        self.retry_policy = retry_policy
        self.loop = Loop(self.sim, f"autoscaler:{manager.base_id}",
                         spec.decision_interval, self._round)
        self._obs = get_obs(self.sim)
        self._cooldown_until = 0.0
        self._calm_streak = 0
        self.decisions: list[AutoscaleDecision] = []
        metrics = self._obs.metrics
        ns = manager.base_id
        self._c_decisions = metrics.counter("autoscale.decisions",
                                            namespace=ns)
        self._c_scale_ups = metrics.counter("autoscale.scale_ups",
                                            namespace=ns)
        self._c_scale_downs = metrics.counter("autoscale.scale_downs",
                                              namespace=ns)
        self._g_desired = metrics.gauge("autoscale.desired_shards",
                                        namespace=ns)
        self._g_offered = metrics.gauge("autoscale.offered_rate",
                                        namespace=ns)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if not self.loop.running:
            # Prime the reader: the first sample has no window behind it.
            self.reader.sample(self.sim.now)
        self.loop.start()

    def stop(self) -> None:
        self.loop.stop()

    # -- state queries -------------------------------------------------------
    @property
    def shards(self) -> int:
        return len(self.manager.map.shards)

    def shard_ids(self) -> list[str]:
        return sorted(self.manager.map.shards)

    def audit(self) -> list[dict]:
        return [d.as_dict() for d in self.decisions]

    # -- the control loop ----------------------------------------------------
    def _round(self) -> Generator:
        sample = self.reader.sample(self.sim.now)
        spec = self.spec
        shards = self.shards
        capacity = shards * spec.target_per_shard
        self._g_offered.set(sample.offered_rate)
        self._c_decisions.inc()

        hot = (sample.shed > 0
               or sample.offered_rate > HIGH_WATER * capacity
               or sample.egress_utilization > HIGH_WATER)
        # Hysteresis: scale down only if demand fits comfortably under the
        # capacity we would have AFTER losing one shard — otherwise
        # removal would immediately re-trigger growth.
        calm = (not hot
                and sample.offered_rate
                <= LOW_WATER * spec.target_per_shard * max(shards - 1, 1)
                and sample.queue_depth == 0)

        desired = shards
        if hot:
            desired = max(
                shards + 1,
                math.ceil(sample.offered_rate
                          / (HIGH_WATER * spec.target_per_shard)))
            # Shed load is an emergency, not a band violation: demand
            # already exceeds what we can observe (the queue is
            # overflowing, so offered_rate under-reports it) and every
            # window spent converging sheds more.  Go straight to the
            # ceiling; the calm path brings it back down afterwards.
            if sample.shed > 0:
                desired = spec.max_shards
        desired = min(max(desired, spec.min_shards), spec.max_shards)
        self._g_desired.set(desired)

        if self.sim.now < self._cooldown_until:
            self._record(sample, shards, desired, "skip_cooldown",
                         f"cooldown until t={self._cooldown_until:.1f}")
            return

        if hot:
            self._calm_streak = 0
            if desired > shards:
                yield from self._act(sample, shards, desired, "scale_up",
                                     self._scale_up(desired))
            else:
                self._record(sample, shards, desired, "hold",
                             "hot but all levers exhausted")
            return

        if calm:
            self._calm_streak += 1
            if self._calm_streak < spec.scale_down_windows:
                self._record(
                    sample, shards, desired, "hold",
                    f"calm {self._calm_streak}/{spec.scale_down_windows}")
                return
            self._calm_streak = 0
            if shards > spec.min_shards:
                yield from self._act(sample, shards, shards - 1,
                                     "scale_down", self._scale_down())
            else:
                self._record(sample, shards, desired, "hold",
                             "calm at floor; nothing to shrink")
            return

        self._calm_streak = 0
        self._record(sample, shards, desired, "hold", "within band")

    # -- actuation -----------------------------------------------------------
    def _act(self, sample: SignalSample, shards: int, desired: int,
             action: str, gen: Generator) -> Generator:
        t0 = self.sim.now
        with self._obs.tracer.span(
                f"autoscale:{action}", cat="autoscale",
                component=f"autoscaler:{self.manager.base_id}",
                shards=shards, desired=desired) as span:
            detail = yield from gen
            span.set(detail=detail)
        self._cooldown_until = self.sim.now + self.spec.cooldown
        self._record(sample, shards, desired, action,
                     self._reason_for(sample, action),
                     took=self.sim.now - t0, detail=detail)

    def _reason_for(self, sample: SignalSample, action: str) -> str:
        if action == "scale_up":
            return (f"offered={sample.offered_rate:.0f}/s "
                    f"shed={sample.shed} "
                    f"egress={sample.egress_utilization:.2f}")
        return (f"calm for {self.spec.scale_down_windows} windows "
                f"(offered={sample.offered_rate:.0f}/s)")

    def _scale_up(self, desired: int) -> Generator:
        added = []
        while self.shards < desired:
            result = yield from self.manager.add_shard(
                retry_policy=self.retry_policy)
            added.append(result["shard"])
            self._c_scale_ups.inc()
        return f"added {added} (epoch {self.manager.epoch})"

    def _scale_down(self) -> Generator:
        victim = self._newest_shard()
        result = yield from self.manager.remove_shard(
            victim, retry_policy=self.retry_policy)
        self._c_scale_downs.inc()
        return f"removed {result['removed']} (epoch {self.manager.epoch})"

    def _newest_shard(self) -> str:
        base = self.manager.base_id
        def ordinal(shard_id: str) -> int:
            return int(shard_id[len(base) + 2:] or 0)   # "{base}" is 0
        return max(self.shard_ids(), key=ordinal)

    # -- bookkeeping ---------------------------------------------------------
    def _record(self, sample: SignalSample, shards: int, desired: int,
                action: str, reason: str, took: float = 0.0,
                detail: str = "") -> None:
        self.decisions.append(AutoscaleDecision(
            time=self.sim.now, offered_rate=sample.offered_rate,
            shed=sample.shed, queue_depth=sample.queue_depth,
            egress_utilization=sample.egress_utilization,
            shards=shards, desired=desired, action=action, reason=reason,
            took=took, detail=detail))
