"""Wiera's runtime monitors: the "first-class support for dynamism".

Three monitors (§3.2.3 / §4.3), each owned by a Tiera Instance Manager and
each a round its own :class:`~repro.sim.primitives.Loop` runs (``monitor.loop``
is started and stopped by the TIM):

* :class:`LatencyMonitor` — watches put/get latencies against a threshold
  + sustained-violation period and drives consistency switching
  (DynamicConsistency, Figure 5(a)).  While in the weak model it estimates
  what a strong put *would* cost via active probes (peer RTTs + lock-service
  RTT), so it knows when conditions have recovered.
* :class:`RequestsMonitor` — watches the primary's put history and moves
  the primary to the instance forwarding the most requests
  (ChangePrimary, Figure 5(b)).
* :class:`ColdDataCoordinator` — the *centralized* cold-data variant of
  §5.3: demote cold objects at the central instance, drop the other
  replicas and point them at the shared tier.  (The per-instance variant
  is an ordinary local ColdDataEvent rule.)
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.global_policy import (
    ChangePrimarySpec,
    ColdDataSpec,
    DynamicConsistencySpec,
)
from repro.core.tim import WieraInstanceError
from repro.net.network import NetworkError
from repro.sim.primitives import Loop
from repro.sim.rpc import call_with_timeout

#: seconds between two LatencyMonitor rounds
LATENCY_CHECK_INTERVAL = 1.0
#: seconds after which one LatencyMonitor probe RPC is given up
PROBE_TIMEOUT = 10.0
#: estimated local-store component of a strong put, used by probe estimates
_LOCAL_STORE_ESTIMATE = 0.004


def _changed(tim, change: Generator) -> Generator:
    """Run a monitor's change; returns whether it took effect.  A failure
    is counted and left to the next round (same mode, same clocks)."""
    try:
        yield from change
    except (NetworkError, WieraInstanceError) as exc:
        tim._obs.metrics.counter(
            "policy.change_failures", wiera=tim.wiera_instance_id,
            kind=type(exc).__name__).inc()
        return False
    return True


class LatencyMonitor:
    """Drives DynamicConsistency switching."""

    def __init__(self, tim, spec: DynamicConsistencySpec):
        self.tim = tim
        self.sim = tim.sim
        self.spec = spec
        self.loop = Loop(tim.sim, "LatencyMonitor", LATENCY_CHECK_INTERVAL,
                         self._round)
        self.mode = "strong"
        # App-perceived latencies live in the shared MetricsRegistry (every
        # instance records to ``tiera.op_latency``); the monitor only reads.
        self._metrics = tim._obs.metrics
        # Sim-time before which samples are ignored — the registry view of
        # "forget everything" after a consistency switch (shared histograms
        # cannot be cleared by one consumer).
        self._reset_at = 0.0
        # Per-instance violation clocks: each instance has its own
        # dedicated monitoring thread in the paper (§4.3); an instance
        # with no fresh samples keeps its previous verdict rather than
        # resetting the clock.
        self._violating_since: dict[str, Optional[float]] = {}
        self._ok_since: Optional[float] = None
        self.signal_log: list[tuple[float, float, str]] = []
        self._signal_gauge = self._metrics.gauge(
            "wiera.dynamic_signal", wiera=tim.wiera_instance_id)
        self._timeout_counter = self._metrics.counter(
            "monitor.probe_timeouts", wiera=tim.wiera_instance_id)

    def _hist(self, iid: str):
        """The app-latency histogram an instance records into."""
        return self._metrics.histogram("tiera.op_latency", instance=iid,
                                       op=self.spec.op, src="app")

    # -- signal computation ---------------------------------------------------
    def _update_violation_clocks(self) -> Optional[float]:
        """Advance each instance's violation clock; return the longest
        sustained violation duration (None if nobody is violating)."""
        horizon = self.sim.now - 4 * LATENCY_CHECK_INTERVAL
        cutoff = max(horizon, self._reset_at)
        longest = None
        for record in self.tim.instances.values():
            iid = record.instance_id
            recent_max = self._hist(iid).max_since(cutoff)
            if recent_max is not None:
                if recent_max > self.spec.latency_threshold:
                    self._violating_since.setdefault(iid, self.sim.now)
                else:
                    self._violating_since.pop(iid, None)
            # No recent samples: the instance keeps its previous verdict —
            # a slow instance emits samples rarely, which must not clear
            # its own violation clock.
            since = self._violating_since.get(iid)
            if since is not None:
                duration = self.sim.now - since
                longest = duration if longest is None else max(longest,
                                                               duration)
        return longest

    def probe_estimate(self) -> Generator:
        """Estimate a strong (MultiPrimaries) put latency via live probes.

        strong put ~= 2 x lock RTT + max peer RTT + local store.
        Uses the *current* network state, so injected delays and their
        expiry are visible even while the weak model hides them from
        application-perceived latencies.  Probes are raced against
        :data:`PROBE_TIMEOUT` so a dead lock service or partitioned peer
        stalls one probe round, not the whole monitor.  An instance cut off
        from the lock service makes the estimate ``inf``: no strong put from
        there can take the lock.
        """
        worst = 0.0
        for record in self.tim.instances.values():
            instance = record.instance
            if instance.host.down:
                continue
            t0 = self.sim.now
            try:
                yield from call_with_timeout(
                    self.sim,
                    instance.node.call(self.tim.lock_node, "holder",
                                       {"key": "__probe__"}),
                    PROBE_TIMEOUT)
            except TimeoutError:
                self._timeout_counter.inc()
            except NetworkError:
                return float("inf")
            lock_rtt = self.sim.now - t0
            rtts = []
            for peer in instance.peers.values():
                p0 = self.sim.now
                try:
                    yield from call_with_timeout(
                        self.sim, instance.node.call(peer.node, "probe"),
                        PROBE_TIMEOUT)
                except TimeoutError:
                    self._timeout_counter.inc()
                    rtts.append(self.sim.now - p0)
                    continue
                except NetworkError:
                    continue
                rtts.append(self.sim.now - p0)
            estimate = (2 * lock_rtt + max(rtts, default=0.0)
                        + _LOCAL_STORE_ESTIMATE)
            worst = max(worst, estimate)
        return worst

    # -- the control loop -------------------------------------------------------
    def _round(self) -> Generator:
        spec = self.spec
        if self.mode == "strong":
            longest = self._update_violation_clocks()
            self.signal_log.append((self.sim.now, longest or 0.0, self.mode))
            self._signal_gauge.set(longest or 0.0)
            if longest is not None and longest >= spec.period:
                yield from self._switch("weak", spec.weak)
            return
        # Weak mode hides violations from app latencies, so estimate what
        # a strong put would cost right now.
        signal = yield from self.probe_estimate()
        self.signal_log.append((self.sim.now, signal, self.mode))
        self._signal_gauge.set(signal)
        if signal <= spec.latency_threshold:
            if self._ok_since is None:
                self._ok_since = self.sim.now
            elif self.sim.now - self._ok_since >= spec.period:
                yield from self._switch("strong", spec.strong)
        else:
            self._ok_since = None

    def _switch(self, mode: str, to_name: str) -> Generator:
        """Switch to ``to_name`` as ``mode``; once it took effect, every
        clock starts afresh."""
        if (yield from _changed(self.tim,
                                self.tim.switch_consistency(to_name))):
            self.mode = mode
            self._violating_since.clear()
            self._reset_at = self.sim.now
            self._ok_since = None


class RequestsMonitor:
    """Drives ChangePrimary: follow the forwarded-request imbalance."""

    def __init__(self, tim, spec: ChangePrimarySpec):
        self.tim = tim
        self.sim = tim.sim
        self.spec = spec
        self.loop = Loop(tim.sim, "RequestsMonitor", spec.check_interval,
                         self._round)
        self._candidate: Optional[str] = None
        self._candidate_since: Optional[float] = None
        self._cooldown_until = 0.0
        self.evaluations = 0

    def _primary_instance(self):
        primary_id = self.tim.protocol.config.primary_id
        record = self.tim.instances.get(primary_id)
        return record.instance if record else None

    def _round(self) -> Generator:
        spec = self.spec
        if self.sim.now < self._cooldown_until:
            return
        primary = self._primary_instance()
        if primary is None:
            return
        self.evaluations += 1
        counts = primary.requests_in_window(spec.window)
        app_count = counts.get("app", 0)
        forwarded = {src: n for src, n in counts.items()
                     if src != "app" and src in self.tim.instances}
        if not forwarded:
            self._candidate = None
            self._candidate_since = None
            return
        top_src = max(forwarded, key=lambda s: forwarded[s])
        top_count = forwarded[top_src]
        if top_count >= app_count and top_count > 0:
            if self._candidate != top_src:
                self._candidate = top_src
                self._candidate_since = self.sim.now
            elif self.sim.now - self._candidate_since >= spec.period and (
                    yield from _changed(self.tim,
                                        self.tim.change_primary(top_src))):
                self._candidate = None
                self._candidate_since = None
                # Let a full history window accumulate under the new
                # primary before judging again (anti-flap).
                self._cooldown_until = self.sim.now + spec.window
        else:
            self._candidate = None
            self._candidate_since = None


class ColdDataCoordinator:
    """Centralized cold-data management (§5.3).

    Every ``check_interval``: the central instance demotes objects idle
    for ``age`` seconds into its cheap tier; every other instance then
    drops its local replicas of those objects and records their location
    as the shared tier.
    """

    def __init__(self, tim, spec: ColdDataSpec):
        if not spec.centralize:
            raise ValueError("ColdDataCoordinator requires centralize=True")
        self.tim = tim
        self.spec = spec
        self.loop = Loop(tim.sim, "ColdDataCoordinator", spec.check_interval,
                         self._round)
        self.centralized_objects = 0

    def _central_record(self):
        for record in self.tim.instances.values():
            if record.region == self.spec.central_region:
                return record
        raise RuntimeError(
            f"no instance in central region {self.spec.central_region!r}")

    def _round(self) -> Generator:
        spec = self.spec
        central = self._central_record()
        with self.tim._obs.tracer.span(
                "policy:demote_cold", cat="policy",
                component=self.tim.node.name,
                central=central.instance_id) as span:
            result = yield from self.tim.node.invoke(
                central.node, "ctl_demote_cold",
                {"age": spec.age, "to_tier": spec.target_tier})
            demoted = result["demoted"]
            span.set(demoted=len(demoted))
            if not demoted:
                return
            self.centralized_objects += len(demoted)
            self.tim._obs.metrics.counter(
                "policy.cold_demotions",
                wiera=self.tim.wiera_instance_id).inc(len(demoted))
            shared_name = self.tim.shared_cold_tier_name
            calls = []
            for iid, record in self.tim.instances.items():
                if iid == central.instance_id:
                    continue
                call = self.tim.node.call(
                    record.node, "ctl_adopt_remote_cold",
                    {"tier": shared_name, "objects": demoted})
                call.defuse()  # may fail before it is waited on
                calls.append(call)
            for call in calls:
                yield call
