"""Tests for workload generators: Zipfian, YCSB, geo populations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import (
    GeoClientPopulation,
    RegionActivity,
    ScrambledZipfian,
    YcsbWorkload,
    Zipfian,
)
from repro.workloads.zipf import Uniform, ZipfianCDF, fnv1a_64


class TestZipfian:
    def test_range(self):
        z = Zipfian(1000, 0.99, np.random.default_rng(0))
        samples = z.sample(5000)
        assert samples.min() >= 0 and samples.max() < 1000

    def test_skew(self):
        """Rank-0 items dominate under high theta."""
        z = Zipfian(1000, 0.99, np.random.default_rng(0))
        samples = z.sample(20_000)
        top = np.mean(samples == 0)
        assert top > 0.10   # >10% of draws hit the hottest key

    def test_lower_theta_less_skewed(self):
        hot_high = np.mean(
            Zipfian(100, 0.99, np.random.default_rng(1)).sample(20_000) == 0)
        hot_low = np.mean(
            Zipfian(100, 0.5, np.random.default_rng(1)).sample(20_000) == 0)
        assert hot_high > hot_low

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Zipfian(0)
        with pytest.raises(ValueError):
            Zipfian(10, theta=1.5)

    def test_scrambled_spreads_hot_keys(self):
        z = ScrambledZipfian(1000, 0.99, np.random.default_rng(0))
        samples = z.sample(20_000)
        counts = np.bincount(samples, minlength=1000)
        hottest = int(np.argmax(counts))
        # scrambling moves the hottest item away from id 0 (w.h.p.)
        assert counts[hottest] > 0.10 * len(samples)
        assert hottest == fnv1a_64(0) % 1000

    def test_deterministic_given_seed(self):
        a = ScrambledZipfian(100, 0.9, np.random.default_rng(5)).sample(100)
        b = ScrambledZipfian(100, 0.9, np.random.default_rng(5)).sample(100)
        assert (a == b).all()

    @given(st.integers(min_value=0, max_value=2**62))
    @settings(max_examples=50)
    def test_fnv_is_deterministic_and_64bit(self, n):
        h = fnv1a_64(n)
        assert 0 <= h < 2**64
        assert h == fnv1a_64(n)

    def test_exact_cdf_matches_analytic_probabilities(self):
        n, theta = 50, 0.99
        z = ZipfianCDF(n, theta, np.random.default_rng(0))
        samples = z.sample(100_000)
        weights = 1.0 / np.arange(1, n + 1) ** theta
        probs = weights / weights.sum()
        counts = np.bincount(samples, minlength=n)
        # Exact sampler: empirical top-rank mass tracks the true pmf.
        for rank in range(5):
            assert counts[rank] / len(samples) == pytest.approx(
                probs[rank], rel=0.1)

    def test_exact_cdf_accepts_theta_ge_1(self):
        z = ZipfianCDF(100, 1.2, np.random.default_rng(0))
        samples = z.sample(5000)
        assert samples.min() >= 0 and samples.max() < 100
        with pytest.raises(ValueError):
            ZipfianCDF(100, 0.0)
        with pytest.raises(ValueError):
            ZipfianCDF(0)

    def test_exact_cdf_next_matches_sample_stream(self):
        a = ZipfianCDF(200, 0.9, np.random.default_rng(3))
        b = ZipfianCDF(200, 0.9, np.random.default_rng(3))
        assert [a.next() for _ in range(100)] == list(b.sample(100))

    def test_scrambled_exact_flag(self):
        z = ScrambledZipfian(1000, 0.99, np.random.default_rng(0),
                             exact=True)
        assert isinstance(z._zipf, ZipfianCDF)
        samples = z.sample(20_000)
        counts = np.bincount(samples, minlength=1000)
        assert counts[fnv1a_64(0) % 1000] > 0.10 * len(samples)

    def test_uniform_chooser(self):
        u = Uniform(10, np.random.default_rng(0))
        samples = u.sample(1000)
        assert set(np.unique(samples)) <= set(range(10))
        counts = np.bincount(samples, minlength=10)
        assert counts.min() > 50  # roughly uniform


class TestYcsbWorkload:
    def test_mixes(self):
        a = YcsbWorkload.workload_a()
        b = YcsbWorkload.workload_b()
        assert a.read_prop == 0.5 and b.read_prop == 0.95

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            YcsbWorkload(read_prop=0.9, update_prop=0.9)

    def test_key_and_value(self):
        wl = YcsbWorkload(value_size=64)
        assert wl.key(7) == "user7"
        assert len(wl.value(np.random.default_rng(0))) == 64

    def test_chooser_kinds(self):
        rng = np.random.default_rng(0)
        assert isinstance(YcsbWorkload().chooser(rng), ScrambledZipfian)
        assert isinstance(
            YcsbWorkload(distribution="uniform").chooser(rng), Uniform)
        exact = YcsbWorkload(distribution="zipfian_exact").chooser(rng)
        assert isinstance(exact, ScrambledZipfian)
        assert isinstance(exact._zipf, ZipfianCDF)
        with pytest.raises(ValueError):
            YcsbWorkload(distribution="pareto")


class TestGeoPopulation:
    def test_gaussian_peaks(self):
        act = RegionActivity("r", peak_time=100.0, sigma=20.0,
                             max_clients=10)
        assert act.active_clients(100.0) == 10
        assert act.active_clients(100.0 + 3 * 20.0) <= 1
        assert act.active_clients(0.0) <= act.active_clients(100.0)

    def test_min_clients_floor(self):
        act = RegionActivity("r", peak_time=0.0, sigma=1.0,
                             max_clients=10, min_clients=2)
        assert act.active_clients(1e6) == 2

    def test_staggered_order(self):
        pop = GeoClientPopulation.staggered(
            ["asia", "eu", "us"], first_peak=100.0, stagger=50.0,
            sigma=10.0, max_clients=10)

        def busiest(t):
            return max(pop.activities, key=lambda r: pop.active_clients(r, t))
        assert [busiest(t) for t in (100.0, 150.0, 200.0)] == [
            "asia", "eu", "us"]

    def test_client_activation_order(self):
        pop = GeoClientPopulation.staggered(
            ["r"], first_peak=0.0, stagger=0.0, sigma=10.0, max_clients=10)
        # at the peak everyone is active; far away only low indices
        assert pop.is_active("r", 9, 0.0)
        assert not pop.is_active("r", 9, 40.0)

    @given(st.floats(min_value=0, max_value=10_000,
                     allow_nan=False))
    @settings(max_examples=50)
    def test_active_count_bounded(self, t):
        act = RegionActivity("r", peak_time=500.0, sigma=60.0,
                             max_clients=10, min_clients=1)
        count = act.active_clients(t)
        assert 1 <= count <= 10

    def test_active_clients_deterministic_over_time(self):
        """Pure function of t: re-evaluation and fresh instances agree."""
        def make():
            return RegionActivity("r", peak_time=300.0, sigma=45.0,
                                  max_clients=25, min_clients=2)
        a, b = make(), make()
        times = [0.0, 150.0, 299.9, 300.0, 412.5, 1e4]
        first = [a.active_clients(t) for t in times]
        assert first == [a.active_clients(t) for t in times]
        assert first == [b.active_clients(t) for t in times]

    def test_bell_is_symmetric_and_monotone(self):
        act = RegionActivity("r", peak_time=200.0, sigma=30.0,
                             max_clients=100)
        for dt in (10.0, 50.0, 90.0):
            assert act.active_clients(200.0 - dt) == \
                act.active_clients(200.0 + dt)
        levels = [act.active_clients(200.0 + dt)
                  for dt in (0.0, 30.0, 60.0, 90.0, 120.0)]
        assert levels == sorted(levels, reverse=True)

    def test_staggered_parameters(self):
        pop = GeoClientPopulation.staggered(
            ["a", "b", "c"], first_peak=60.0, stagger=90.0, sigma=15.0,
            max_clients=40, min_clients=4)
        assert list(pop.activities) == ["a", "b", "c"]
        assert [act.peak_time for act in pop.activities.values()] == \
            [60.0, 150.0, 240.0]
        for act in pop.activities.values():
            assert act.sigma == 15.0
            assert act.max_clients == 40 and act.min_clients == 4

    def test_activity_gate_tracks_sim_clock(self):
        from repro.sim.kernel import Simulator
        sim = Simulator()
        pop = GeoClientPopulation.staggered(
            ["r"], first_peak=100.0, stagger=0.0, sigma=10.0,
            max_clients=10)
        gate = pop.activity_gate(sim, "r", client_index=9)
        assert not gate()                # t=0: far from the peak
        sim.run(until=100.0)
        assert gate()                    # at the peak everyone is active
