"""Tests for repro.load: arrival models, cohorts, engine, scenarios."""

import numpy as np
import pytest

from repro.coordination.lock_service import LockServiceError
from repro.core.client import NoInstanceAvailableError
from repro.load import (
    ArrivalProcess,
    CohortSpec,
    LoadEngine,
    PoissonProcess,
    ShiftingHotspot,
    constant_rate,
    diurnal_rate,
    flash_crowd_rate,
    modeled_users_rate,
)
from repro.load.cohort import ClientCohort, latency_block
from repro.load.scenarios import (
    SCENARIOS,
    diurnal,
    failover_storm,
    flash_crowd,
    hotspot_shift,
)
from repro.obs.history import OpHistory
from repro.sim.kernel import Simulator
from repro.util.rng import RngRegistry, exponential_interarrival
from repro.util.stats import percentile_sorted
from repro.workloads.clients import GeoClientPopulation
from repro.workloads.ycsb import YcsbWorkload


# -- util/rng satellite ------------------------------------------------------

class TestRngHelpers:
    def test_substream_determinism(self):
        a = RngRegistry(7).substream("load.cohort", 3)
        b = RngRegistry(7).substream("load.cohort", 3)
        assert a.random() == b.random()

    def test_substream_independence(self):
        reg = RngRegistry(7)
        a = reg.substream("load.cohort", 0)
        b = reg.substream("load.cohort", 1)
        assert [a.random() for _ in range(4)] != [b.random()
                                                  for _ in range(4)]

    def test_substream_no_crosstalk(self):
        """Draining one substream never perturbs a sibling."""
        solo = RngRegistry(9).substream("s", "x")
        expected = [solo.random() for _ in range(8)]
        reg = RngRegistry(9)
        noisy = reg.substream("s", "y")
        target = reg.substream("s", "x")
        for _ in range(1000):
            noisy.random()
        assert [target.random() for _ in range(8)] == expected

    def test_substream_is_cached(self):
        reg = RngRegistry(1)
        assert reg.substream("s", 5) is reg.substream("s", 5)

    def test_exponential_interarrival_mean(self):
        rng = np.random.default_rng(0)
        gaps = [exponential_interarrival(rng, 4.0) for _ in range(20_000)]
        assert np.mean(gaps) == pytest.approx(0.25, rel=0.05)

    def test_exponential_interarrival_rejects_bad_rate(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            exponential_interarrival(rng, 0.0)
        with pytest.raises(ValueError):
            exponential_interarrival(rng, -1.0)


# -- rate shapes -------------------------------------------------------------

class TestRateShapes:
    def test_constant(self):
        fn, peak = constant_rate(42.0)
        assert fn(0.0) == fn(1e6) == 42.0 and peak == 42.0
        with pytest.raises(ValueError):
            constant_rate(-1.0)

    def test_flash_crowd_shape(self):
        fn, peak = flash_crowd_rate(100.0, 10.0, at=60.0,
                                    rise=10.0, hold=20.0, fall=10.0)
        assert peak == 1000.0
        assert fn(0.0) == 100.0          # before
        assert fn(65.0) == pytest.approx(550.0)   # mid-rise
        assert fn(75.0) == 1000.0        # held
        assert fn(95.0) == pytest.approx(550.0)   # mid-fall
        assert fn(200.0) == 100.0        # after
        with pytest.raises(ValueError):
            flash_crowd_rate(100.0, 0.5, at=0.0)

    def test_diurnal_follows_activity_curve(self):
        pop = GeoClientPopulation.staggered(
            ["asia", "us"], first_peak=100.0, stagger=200.0, sigma=30.0,
            max_clients=1000, min_clients=10)
        fn, peak = diurnal_rate(pop, "asia", rate_per_user=0.5)
        assert fn(100.0) == pytest.approx(500.0)
        assert fn(1e6) == pytest.approx(5.0)   # min_clients floor
        assert peak == 500.0

    def test_modeled_users_identity(self):
        fn, peak = modeled_users_rate(10_000, 0.25)
        assert fn(3.0) == peak == 2500.0
        with pytest.raises(ValueError):
            modeled_users_rate(0, 1.0)
        with pytest.raises(ValueError):
            modeled_users_rate(10, 0.0)


# -- arrival processes -------------------------------------------------------

def _drain(process, horizon: float) -> list[float]:
    """Collect arrival instants in [0, horizon)."""
    t, out = 0.0, []
    while True:
        dt, arrived = process.next_event(t)
        t += dt
        if t >= horizon:
            break
        if arrived:
            out.append(t)
    return out


class TestPoissonProcess:
    def test_rate_accuracy(self):
        p = PoissonProcess()
        fn, peak = constant_rate(50.0)
        p.bind(np.random.default_rng(0), fn, peak)
        arrivals = _drain(p, 200.0)
        assert len(arrivals) == pytest.approx(10_000, rel=0.05)

    def test_deterministic_per_seed(self):
        fn, peak = constant_rate(20.0)
        a, b = PoissonProcess(), PoissonProcess()
        a.bind(np.random.default_rng(3), fn, peak)
        b.bind(np.random.default_rng(3), fn, peak)
        assert _drain(a, 50.0) == _drain(b, 50.0)

    def test_thinning_tracks_ramp(self):
        p = PoissonProcess()
        p.bind(np.random.default_rng(1), lambda t: min(t, 100.0), 100.0)
        arrivals = np.array(_drain(p, 100.0))
        early = np.sum(arrivals < 50.0)     # integral: 1250 expected
        late = np.sum(arrivals >= 50.0)     # integral: 3750 expected
        assert late / max(early, 1) == pytest.approx(3.0, rel=0.25)

    def test_zero_rate_yields_no_arrival_but_advances(self):
        fn, _ = constant_rate(0.0)
        p = PoissonProcess()
        p.bind(np.random.default_rng(0), fn, 10.0)
        dt, arrived = p.next_event(0.0)
        assert dt > 0 and arrived is False

    def test_bind_rejects_nonpositive_peak(self):
        fn, _ = constant_rate(1.0)
        with pytest.raises(ValueError):
            PoissonProcess().bind(np.random.default_rng(0), fn, 0.0)


class OffsetArrivals(ArrivalProcess):
    """Arrivals at fixed offsets (seconds) from the first ``next_event``
    instant, then an exhausted stream."""

    def __init__(self, offsets):
        super().__init__()
        self._offsets = iter(offsets)
        self._origin = None

    def next_event(self, t):
        if self._origin is None:
            self._origin = t
        offset = next(self._offsets, None)
        if offset is None:
            return None, False
        return max(0.0, self._origin + offset - t), True


# -- cohorts against a fake store --------------------------------------------

class FakeStore:
    """Minimal WieraClient stand-in: a service time (seconds, or a function
    of the call number), optional typed errors, and every op booked as the
    real client books it."""

    def __init__(self, sim, service_time=0.001, fail_every=0):
        self.sim = sim
        self.service_time = service_time
        self.fail_every = fail_every
        self.calls = 0
        self.history = OpHistory()

    def _op(self, op, key):
        self.calls += 1
        start = self.sim.now
        service_time = (self.service_time(self.calls)
                        if callable(self.service_time) else self.service_time)
        if self.fail_every and self.calls % self.fail_every == 0:
            yield self.sim.timeout(service_time / 2)
            error = (NoInstanceAvailableError("slow store")
                     if self.calls % (2 * self.fail_every) == 0
                     else LockServiceError("lock lost"))
            self.history.book(op, key, None, start, self.sim.now,
                              type(error).__name__)
            raise error
        yield self.sim.timeout(service_time)
        self.history.book(op, key, 1, start, self.sim.now)
        return {"latency": self.sim.now - start, "version": 1}

    def get(self, key):
        return (yield from self._op("get", key))

    def put(self, key, data):
        return (yield from self._op("put", key))


def make_cohort(sim, spec, seed=0, **store_kw) -> ClientCohort:
    store = FakeStore(sim, **store_kw)
    rng = RngRegistry(seed).substream("load.cohort", spec.name)
    return ClientCohort(sim, store, spec, rng)


WORKLOAD = YcsbWorkload.workload_b(record_count=50, value_size=64,
                                   distribution="uniform")


class TestClientCohort:
    def test_unsaturated_achieves_offered(self):
        sim = Simulator()
        cohort = make_cohort(sim, CohortSpec(
            name="c", region="r", users=10_000, rate_per_user=0.02,
            workload=WORKLOAD))
        cohort.start()
        sim.run(until=30.0)
        report = cohort.report()
        # offered tracks the configured 200/s within Poisson noise, and
        # an unsaturated store achieves what is offered
        assert report["offered_rate"] == pytest.approx(200.0, rel=0.05)
        assert report["shed"] == 0
        assert report["achieved"] >= report["offered"] - \
            cohort.spec.max_in_flight

    def test_saturation_sheds_and_queues(self):
        sim = Simulator()
        cohort = make_cohort(sim, CohortSpec(
            name="sat", region="r", users=1000, rate_per_user=0.1,
            workload=WORKLOAD, max_in_flight=4, queue_limit=10),
            service_time=0.5)
        cohort.start()
        sim.run(until=20.0)
        stats = cohort.stats
        report = cohort.report()
        # capacity is max_in_flight / service_time = 8 ops/s vs 100/s in
        assert report["achieved"] == pytest.approx(8 * 20, rel=0.15)
        assert stats.shed > 0
        assert stats.peak_queue == 10
        assert stats.peak_in_flight == 4
        assert report["queue_delay"]["p95"] > 0.5

    def test_error_classification(self):
        sim = Simulator()
        cohort = make_cohort(sim, CohortSpec(
            name="err", region="r", users=100, rate_per_user=1.0,
            workload=WORKLOAD), fail_every=5)
        cohort.start()
        sim.run(until=10.0)
        report = cohort.report()
        by_type = report["errors_by_type"]
        assert set(by_type) == {"NoInstanceAvailableError",
                                "LockServiceError"}
        assert sum(by_type.values()) == report["errors"] > 0

    def test_latency_percentiles_cover_every_op(self):
        """A cohort's latency block is computed over its client's whole
        history, not over a bounded window of the newest samples: past
        2 048 gets, with service times that vary per call and drift up
        over the run, a window's quantiles would sit above these."""
        sim = Simulator()
        cohort = make_cohort(sim, CohortSpec(
            name="long", region="r", users=500, rate_per_user=1.0,
            workload=WORKLOAD),
            service_time=lambda n: 1e-4 * (1 + n % 37) * (1 + n / 1000))
        cohort.start()
        sim.run(until=6.0)
        cohort.stop()
        sim.run()
        block = cohort.report()["latency"]["get"]
        latencies = cohort.client.history.latencies("get")
        ordered = sorted(latencies)
        assert len(latencies) > 2048
        assert block["count"] == len(latencies)
        assert block["min"] == ordered[0]
        assert block["max"] == ordered[-1]
        assert block["mean"] == pytest.approx(sum(latencies) / len(latencies),
                                              rel=1e-12)
        for q in (50, 95, 99):
            assert block[f"p{q}"] == percentile_sorted(ordered, q)

    def test_empty_latency_block_reads_as_zeros(self):
        assert latency_block([]) == {
            "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_deterministic(self):
        def one_run():
            sim = Simulator()
            cohort = make_cohort(sim, CohortSpec(
                name="d", region="r", users=500, rate_per_user=0.1,
                workload=WORKLOAD), seed=5)
            cohort.start()
            sim.run(until=10.0)
            return (cohort.stats.offered, cohort.report()["achieved"],
                    sim.events_processed, sim.now)

        assert one_run() == one_run()

    def test_stop_freezes_window(self):
        sim = Simulator()
        cohort = make_cohort(sim, CohortSpec(
            name="s", region="r", users=100, rate_per_user=1.0,
            workload=WORKLOAD))
        cohort.start()
        sim.run(until=5.0)
        cohort.stop()
        offered = cohort.stats.offered
        sim.run(until=10.0)
        assert cohort.stats.offered == offered     # no arrivals after stop
        assert cohort.elapsed() == pytest.approx(5.0)

    def test_stop_counts_discarded_queue_entries(self):
        """Regression: queued arrivals thrown away by stop() used to
        vanish from the ledger, so offered != dispatched + shed at
        scenario end."""
        sim = Simulator()
        cohort = make_cohort(sim, CohortSpec(
            name="disc", region="r", users=1000, rate_per_user=0.1,
            workload=WORKLOAD, max_in_flight=2, queue_limit=50),
            service_time=5.0)   # slow store: the queue fills, nothing drains
        cohort.start()
        sim.run(until=4.0)
        queued = cohort.queued
        assert queued > 0, "setup failed to build a backlog"
        assert cohort.stats.reconciles(queued=queued)
        cohort.stop()
        stats = cohort.stats
        assert stats.discarded == queued
        assert cohort.queued == 0
        # The invariant closes with no queue remaining.
        assert stats.offered == stats.dispatched + stats.shed + \
            stats.discarded
        report = cohort.report()
        assert report["discarded"] == stats.discarded

    def test_reconciliation_invariant_all_regimes(self):
        """offered == dispatched + shed + discarded (+ queued mid-run)
        holds whether the store is fast, saturated, or failing."""
        for kw in ({}, {"service_time": 0.5}, {"fail_every": 3}):
            sim = Simulator()
            cohort = make_cohort(sim, CohortSpec(
                name="inv", region="r", users=1000, rate_per_user=0.1,
                workload=WORKLOAD, max_in_flight=4, queue_limit=10), **kw)
            cohort.start()
            sim.run(until=15.0)
            assert cohort.stats.reconciles(queued=cohort.queued), kw
            cohort.stop()
            sim.run(until=30.0)   # drain in-flight stragglers
            assert cohort.stats.reconciles(), kw

    def test_queue_drains_iteratively_when_ops_finish_in_their_first_step(
            self):
        """An op that fails without yielding (every candidate unreachable
        at send time, no retry policy) completes inside ``_launch``, which
        re-enters ``_drain_queue``: a long queue behind one slow op must
        drain in a loop, not one stack level per queued arrival."""
        queued = 2000

        class OneSlowOpThenUnreachable:
            calls = 0
            history = OpHistory()

            def get(self, key):
                self.calls += 1
                start = sim.now
                if self.calls > 1:
                    self.history.book("get", key, None, start, start,
                                      "NoInstanceAvailableError")
                    raise NoInstanceAvailableError("no reachable instance")
                yield sim.timeout(2.0)
                self.history.book("get", key, 1, start, sim.now)
                return {"latency": 2.0}

            put = None      # the workload below only reads

        sim = Simulator()
        offsets = [0.0] + [0.5 + i * 1e-4 for i in range(queued)]
        spec = CohortSpec(
            name="reentrant", region="r", max_in_flight=1,
            queue_limit=queued, arrivals=OffsetArrivals(offsets),
            workload=YcsbWorkload(record_count=50, read_prop=1.0,
                                  update_prop=0.0))
        store = OneSlowOpThenUnreachable()
        cohort = ClientCohort(sim, store, spec,
                              RngRegistry(0).substream("load.cohort", "re"))
        cohort.start()
        sim.run(until=1.9)
        assert cohort.queued == queued and cohort.in_flight == 1

        sim.run(until=3.0)      # the slow op finishes at 2.0
        stats = cohort.stats
        assert cohort.queued == 0 and cohort.in_flight == 0
        assert stats.reconciles() and stats.shed == 0
        ops = store.history.summary()
        assert ops.ops == 1
        assert ops.errors_by_type == {"NoInstanceAvailableError": queued}
        assert stats.peak_in_flight == 1
        # Oldest first: all drained at t=2.0, so the waits only shrink.
        delays = cohort._h_queue_delay.values_since(0.0)
        assert len(delays) == 1 + queued
        assert delays[0] == 0.0 and delays[1] == pytest.approx(1.5)
        assert all(a > b for a, b in zip(delays[1:], delays[2:]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CohortSpec(name="x", region="r", max_in_flight=0)
        with pytest.raises(ValueError):
            CohortSpec(name="x", region="r", queue_limit=-1)
        spec = CohortSpec(name="x", region="r",
                          rate_fn=lambda t: 1.0)   # peak_rate missing
        with pytest.raises(ValueError):
            spec.shape()


class TestLoadEngine:
    def test_aggregates_across_cohorts(self):
        sim = Simulator()
        engine = LoadEngine(sim)
        for i in range(4):
            engine.add(make_cohort(sim, CohortSpec(
                name=f"c{i}", region="r", users=2500, rate_per_user=0.02,
                workload=WORKLOAD), seed=i))
        report = engine.run(20.0)
        assert report["cohorts"] == 4
        assert report["modeled_users"] == 10_000
        assert report["offered"] == sum(c.stats.offered
                                        for c in engine.cohorts)
        assert report["offered_rate"] == pytest.approx(200.0, rel=0.05)

    def test_duplicate_names_rejected(self):
        sim = Simulator()
        engine = LoadEngine(sim)
        engine.add(make_cohort(sim, CohortSpec(name="a", region="r",
                                               workload=WORKLOAD)))
        with pytest.raises(ValueError):
            engine.add(make_cohort(sim, CohortSpec(name="a", region="r",
                                                   workload=WORKLOAD)))

    def test_lookup_and_len(self):
        sim = Simulator()
        engine = LoadEngine(sim)
        cohort = engine.add(make_cohort(sim, CohortSpec(
            name="a", region="r", workload=WORKLOAD)))
        assert engine["a"] is cohort and len(engine) == 1


# -- scenarios ---------------------------------------------------------------

class TestScenarios:
    def test_registry(self):
        assert set(SCENARIOS) == {"flash_crowd", "diurnal", "hotspot_shift",
                                  "failover_storm"}

    def test_flash_crowd_specs(self):
        sc = flash_crowd(["us", "eu"], users_per_region=1000,
                         rate_per_user=0.1, multiplier=5.0, at=30.0)
        assert sc.name == "flash_crowd" and len(sc.specs) == 2
        by_region = {s.region: s for s in sc.specs}
        # the crowd region's peak is multiplier x base; bystanders flat
        assert by_region["us"].peak_rate == pytest.approx(500.0)
        assert by_region["eu"].peak_rate == pytest.approx(100.0)
        assert by_region["eu"].rate_fn(1e6) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            flash_crowd(["us"], crowd_region="mars")

    def test_diurnal_specs_stagger(self):
        sc = diurnal(["asia", "eu", "us"], users_per_region=1000,
                     rate_per_user=0.1, first_peak=50.0, stagger=100.0,
                     sigma=20.0)
        assert len(sc.specs) == 3
        asia, eu, us = sc.specs
        assert asia.rate_fn(50.0) > asia.rate_fn(150.0)
        assert eu.rate_fn(150.0) > eu.rate_fn(50.0)
        assert us.rate_fn(250.0) == pytest.approx(100.0)

    def test_shifting_hotspot_moves(self):
        sim = Simulator()
        rng = np.random.default_rng(0)
        hs = ShiftingHotspot(rng, sim, record_count=1000, hot_size=10,
                             hot_frac=0.9, shift_every=60.0)
        assert hs.hot_base(0.0) == 0
        assert hs.hot_base(61.0) == 10
        assert hs.hot_base(60.0 * 100) == 0    # wraps
        draws = [hs.next() for _ in range(2000)]
        in_hot = sum(1 for d in draws if 0 <= d < 10)
        assert in_hot / len(draws) == pytest.approx(0.9, abs=0.05)

    def test_hotspot_scenario_chooser(self):
        sc = hotspot_shift(["us"], workload=WORKLOAD, hot_frac=0.7,
                           shift_every=30.0)
        sim = Simulator()
        chooser = sc.specs[0].chooser_factory(np.random.default_rng(1), sim)
        assert isinstance(chooser, ShiftingHotspot)
        assert 0 <= chooser.next() < WORKLOAD.record_count

    def test_failover_storm_spec(self):
        sc = failover_storm(["us", "eu"], crash_at=10.0, crash_duration=5.0)
        assert sc.faults is not None and len(sc.specs) == 2
        with pytest.raises(ValueError):
            failover_storm(["us"], victim_region="mars")


# -- harness integration -----------------------------------------------------

class TestHarnessIntegration:
    def test_load_engine_off_by_default(self):
        from repro.bench.harness import build_deployment
        from repro.net.topology import US_EAST
        dep = build_deployment([US_EAST])
        assert dep.load is None

    def test_add_cohort_drives_real_deployment(self):
        from repro.bench.openloop import build_scaleout_deployment
        dep, handle, workload = build_scaleout_deployment(shards=1)
        cohort = dep.add_cohort(
            CohortSpec(name="it", region=dep.servers[
                next(iter(dep.servers))].region, users=1000,
                rate_per_user=0.05, workload=workload),
            sharded=handle)
        report = dep.load.run(10.0, grace=1.0)
        assert dep.load["it"] is cohort
        assert report["offered_rate"] == pytest.approx(50.0, rel=0.15)
        assert report["errors"] == 0
        assert report["achieved"] > 0.9 * report["offered"]

    def test_servers_per_region_spreads_shards(self):
        from repro.bench.harness import build_deployment
        from repro.core.global_policy import GlobalPolicySpec, RegionPlacement
        from repro.net.topology import US_EAST, US_WEST
        from repro.tiera.policy import memory_only_policy
        dep = build_deployment([US_EAST, US_WEST], shards=4,
                               servers_per_region=4)
        assert len(dep.servers) == 8
        spec = GlobalPolicySpec(
            name="spread",
            placements=(RegionPlacement(US_EAST, memory_only_policy()),
                        RegionPlacement(US_WEST, memory_only_policy())),
            consistency="eventual")
        dep.start_sharded_instance("spread", spec)
        # least-loaded placement: every server hosts exactly one shard
        counts = [len(s.instances) for s in dep.servers.values()]
        assert counts == [1] * 8

    def test_single_server_layout_unchanged(self):
        """servers_per_region=1 keeps the historical host names/keys."""
        from repro.bench.harness import build_deployment
        from repro.net.topology import US_EAST
        dep = build_deployment([US_EAST])
        assert list(dep.servers) == [(US_EAST, "aws")]
        server = dep.servers[(US_EAST, "aws")]
        assert server.host.name == f"tsrv-host-{US_EAST}-aws"

    def test_failover_storm_scenario_runs(self):
        from repro.bench.openloop import build_scaleout_deployment
        from repro.net.topology import US_EAST, US_WEST
        dep, handle, workload = build_scaleout_deployment(shards=1)
        sc = failover_storm([US_EAST, US_WEST], users_per_region=100,
                            rate_per_user=0.1, crash_at=1.0,
                            crash_duration=2.0, victim_region=US_WEST,
                            workload=workload)
        dep.add_scenario(sc, sharded=handle)
        report = dep.load.run(6.0, grace=1.0)
        kinds = [kind for _, kind, _ in dep.faults.applied]
        assert kinds == ["crash", "restart"]
        assert report["offered"] > 0
        assert report["cohorts"] == 2


class TestConstructionOrderIndependence:
    """RNG substreams derive from stable names, so neither cohort
    creation order nor unrelated extra streams perturb any draws."""

    def test_substreams_ignore_creation_order(self):
        a = RngRegistry(7)
        b = RngRegistry(7)
        east_a = a.substream("load.cohort", "east")
        a.substream("load.cohort", "west")          # created before...
        west_b = b.substream("load.cohort", "west")  # ...and after
        b.stream("unrelated.noise")
        east_b = b.substream("load.cohort", "east")
        assert east_a.random(5).tolist() == east_b.random(5).tolist()
        assert (a.substream("load.cohort", "west").random(5).tolist()
                == west_b.random(5).tolist())

    def test_cohort_order_leaves_store_state_identical(self):
        from repro.bench.openloop import build_scaleout_deployment
        from repro.net.topology import US_EAST, US_WEST
        digests = []
        for order in ((US_EAST, US_WEST), (US_WEST, US_EAST)):
            # Same deployment (declared region order fixed); only the
            # cohort *creation* order flips.
            dep, handle, workload = build_scaleout_deployment(
                shards=2, regions=(US_EAST, US_WEST))
            for region in order:
                rate_fn, peak = constant_rate(150.0)
                dep.add_cohort(
                    CohortSpec(name=f"ol-{region}", region=region,
                               users=1500, rate_per_user=0.1,
                               workload=workload, rate_fn=rate_fn,
                               peak_rate=peak, max_in_flight=128,
                               queue_limit=512),
                    sharded=handle)
            dep.load.run(1.0, grace=0.5)
            digests.append(dep.store_digest())
        assert digests[0] == digests[1]

    def test_repeat_build_in_one_process_is_identical(self):
        """Two identical builds in one interpreter must place shards and
        name servers identically (deployment-scoped server ids)."""
        from repro.bench.harness import build_deployment, rows_digest
        from repro.net.topology import US_EAST, US_WEST

        def ids(dep):
            return sorted(s.server_id for s in dep.servers.values())
        d1 = build_deployment([US_EAST, US_WEST], servers_per_region=2)
        d2 = build_deployment([US_EAST, US_WEST], servers_per_region=2)
        assert ids(d1) == ids(d2)
        assert rows_digest(d1.store_rows()) == rows_digest(d2.store_rows())
