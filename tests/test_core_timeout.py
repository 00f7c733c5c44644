"""Tests for the timeout selection policies (Section 4.3.1)."""

import math

import numpy as np
import pytest

from repro.bo.loop import BOEngine
from repro.core.timeout import (
    MAX_TIMEOUT_MULTIPLIER,
    BestSeenTimeout,
    MultiplierTimeout,
    NoTimeout,
    PercentileTimeout,
    UncertaintyTimeout,
    build_timeout_policy,
)
from repro.exceptions import OptimizationError


class TestSimplePolicies:
    def test_no_timeout(self):
        assert NoTimeout().select(None, None, 1.0, [1.0, 2.0]) is None

    def test_best_seen(self):
        policy = BestSeenTimeout(fallback=99.0)
        assert policy.select(None, None, None, []) == 99.0
        assert policy.select(None, None, 2.5, [2.5, 4.0]) == 2.5

    def test_percentile(self):
        policy = PercentileTimeout(percentile=50.0, fallback=7.0)
        assert policy.select(None, None, None, []) == 7.0
        assert policy.select(None, None, 1.0, [1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_zeroth_percentile_equals_best_seen(self):
        policy = PercentileTimeout(percentile=0.0)
        latencies = [3.0, 1.5, 9.0]
        assert policy.select(None, None, 1.5, latencies) == pytest.approx(1.5)

    def test_multiplier(self):
        policy = MultiplierTimeout(multiplier=1.5)
        assert policy.select(None, None, 2.0, [2.0]) == pytest.approx(3.0)

    def test_percentile_incremental_matches_numpy(self):
        """The sorted running structure must agree with a full np.percentile
        recomputation as the (append-only) latency list grows."""
        rng = np.random.default_rng(0)
        policy = PercentileTimeout(percentile=25.0)
        latencies: list[float] = []
        for _ in range(40):
            latencies.append(float(rng.exponential(2.0)))
            expected = float(np.percentile(np.asarray(latencies), 25.0))
            assert policy.select(None, None, latencies[0], latencies) == pytest.approx(expected)

    def test_percentile_rebuilds_on_shorter_list(self):
        policy = PercentileTimeout(percentile=50.0)
        assert policy.select(None, None, 1.0, [1.0, 2.0, 3.0]) == pytest.approx(2.0)
        # A new (shorter) history means a new run: the mirror must be rebuilt.
        assert policy.select(None, None, 5.0, [5.0, 7.0]) == pytest.approx(6.0)
        assert policy.select(None, None, 5.0, []) == policy.fallback
        assert policy.select(None, None, 4.0, [4.0]) == pytest.approx(4.0)

    def test_percentile_out_of_range_rejected(self):
        with pytest.raises(OptimizationError):
            PercentileTimeout(percentile=-10.0).select(None, None, 1.0, [1.0, 5.0])
        with pytest.raises(OptimizationError):
            PercentileTimeout(percentile=150.0).select(None, None, 1.0, [1.0, 5.0])

    def test_percentile_rebuilds_on_different_history_of_equal_or_longer_length(self):
        """Reusing one policy instance across runs must not mix histories,
        even when the new run's list is already longer than the consumed one."""
        policy = PercentileTimeout(percentile=50.0)
        assert policy.select(None, None, 1.0, [9.0, 10.0]) == pytest.approx(9.5)
        fresh = [1.0, 2.0, 3.0]  # different run, longer than the consumed prefix
        assert policy.select(None, None, 1.0, fresh) == pytest.approx(2.0)
        fresh.append(4.0)
        assert policy.select(None, None, 1.0, fresh) == pytest.approx(2.5)

    def test_factory(self):
        assert isinstance(build_timeout_policy("none"), NoTimeout)
        assert isinstance(build_timeout_policy("uncertainty"), UncertaintyTimeout)
        assert isinstance(build_timeout_policy("percentile"), PercentileTimeout)
        assert isinstance(build_timeout_policy("best_seen"), BestSeenTimeout)
        assert isinstance(build_timeout_policy("multiplier"), MultiplierTimeout)
        with pytest.raises(OptimizationError):
            build_timeout_policy("nope")

    def test_factory_builds_each_policy_with_its_defaults(self):
        assert build_timeout_policy("uncertainty") == UncertaintyTimeout()
        assert UncertaintyTimeout().max_multiplier == MAX_TIMEOUT_MULTIPLIER == 16.0
        assert build_timeout_policy("percentile") == PercentileTimeout()
        assert build_timeout_policy("multiplier", multiplier=2.0) == MultiplierTimeout(2.0)


class TestUncertaintyPolicy:
    def make_engine(self, num_points: int = 12) -> BOEngine:
        engine = BOEngine(np.zeros(2), np.ones(2), seed=0)
        rng = np.random.default_rng(0)
        for _ in range(num_points):
            x = rng.random(2)
            value = float((x**2).sum())  # log-latency surrogate target
            engine.add_observation(x, value)
        engine.fit()
        return engine

    def test_fallback_without_best(self):
        policy = UncertaintyTimeout(fallback=42.0)
        assert policy.select(None, None, None, []) == 42.0

    def test_cap_without_enough_observations(self):
        engine = BOEngine(np.zeros(2), np.ones(2), seed=0)
        engine.add_observation(np.array([0.1, 0.1]), 0.0)
        policy = UncertaintyTimeout(max_multiplier=8.0)
        assert policy.select(engine, np.array([0.5, 0.5]), 2.0, [2.0]) == pytest.approx(16.0)

    def test_timeout_within_bounds(self):
        engine = self.make_engine()
        policy = UncertaintyTimeout(kappa=1.0, max_multiplier=16.0)
        best_latency = 1.0
        timeout = policy.select(engine, np.array([0.9, 0.9]), best_latency, [best_latency])
        assert best_latency <= timeout <= 16.0 * best_latency + 1e-6

    def test_larger_kappa_never_shrinks_timeout(self):
        engine = self.make_engine()
        candidate = np.array([0.6, 0.6])
        small = UncertaintyTimeout(kappa=0.1, max_multiplier=16.0).select(engine, candidate, 1.0, [1.0])
        large = UncertaintyTimeout(kappa=3.0, max_multiplier=16.0).select(engine, candidate, 1.0, [1.0])
        assert large >= small - 1e-9

    def test_timeout_is_positive_and_finite(self):
        engine = self.make_engine()
        policy = UncertaintyTimeout()
        timeout = policy.select(engine, np.array([0.2, 0.8]), 0.5, [0.5, 0.7])
        assert math.isfinite(timeout) and timeout > 0

    def test_batched_path_is_used_and_agrees_with_sequential(self):
        """The CensoredGP engine exposes the batched fantasize path; forcing
        the sequential bisection fallback must land on (nearly) the same
        timeout, since both probe the same fantasized LCB boundary."""
        engine = self.make_engine()
        assert engine.supports_batched_fantasize
        candidate = np.array([0.7, 0.3])
        policy = UncertaintyTimeout(kappa=1.0, max_multiplier=16.0)
        batched = policy.select(engine, candidate, 1.0, [1.0])

        low, high = math.log(1.0), math.log(16.0)
        sequential = policy._select_sequential(engine, candidate, low, high, low)
        # Grid and bisection share the same resolution over log tau.
        resolution = (high - low) / 2**policy.bisection_steps
        assert abs(math.log(batched) - math.log(sequential)) <= 2 * resolution + 1e-9

    @pytest.mark.parametrize("best_latency", [0.0, 1e-12])
    def test_latency_below_the_floor_probes_the_floored_grid(self, best_latency):
        """The grid runs from the floored best latency to max_multiplier times
        it, on both paths; an unfloored cap was a math domain error at 0."""
        engine = self.make_engine()

        class Sequential:  # the engine without its batched fantasize path
            num_observations = engine.num_observations
            fantasize_censored = engine.fantasize_censored

        policy = UncertaintyTimeout(max_multiplier=16.0)
        for surrogate in (engine, Sequential()):
            timeout = policy.select(surrogate, np.array([0.7, 0.3]), best_latency, [best_latency])
            assert 1e-9 <= timeout <= 16e-9 * (1 + 1e-12)

    def test_batched_grid_is_capped_for_large_bisection_steps(self):
        """A huge bisection_steps must not allocate an exponential grid."""
        engine = self.make_engine()
        policy = UncertaintyTimeout(bisection_steps=30, max_multiplier=16.0)
        timeout = policy.select(engine, np.array([0.4, 0.4]), 1.0, [1.0])
        assert 1.0 <= timeout <= 16.0 + 1e-6
