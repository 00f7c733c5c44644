"""Tests for BayesQO configuration and optimization-result bookkeeping."""

import pytest

from repro.bo.loop import BOEngineConfig
from repro.core.config import BayesQOConfig, VAETrainingConfig
from repro.core.result import OptimizationResult
from repro.exceptions import OptimizationError
from repro.plans.jointree import JoinTree


class TestConfig:
    def test_defaults_valid(self):
        config = BayesQOConfig()
        assert config.initialization == "bao"
        assert config.timeout_strategy == "uncertainty"

    @pytest.mark.parametrize("field,value", [
        ("max_executions", 0),
        ("surrogate", "nope"),
        ("timeout_strategy", "nope"),
        ("initialization", "nope"),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(OptimizationError):
            BayesQOConfig(**{field: value})

    @pytest.mark.parametrize("config_cls,field", [
        (BayesQOConfig, "thompson_samples"), (BayesQOConfig, "timeout_kappa"),
        (BayesQOConfig, "timeout_max_multiplier"), (BayesQOConfig, "timeout_percentile"),
        (BOEngineConfig, "thompson_samples"),
    ])
    def test_fields_nothing_varies_are_gone(self, config_cls, field):
        with pytest.raises(TypeError):
            config_cls(**{field: 1.0})

    def test_vae_training_config_defaults(self):
        config = VAETrainingConfig()
        assert config.latent_dim > 0 and config.training_steps > 0


def plan(*aliases):
    return JoinTree.left_deep(list(aliases))


class TestOptimizationResult:
    def make_result(self):
        result = OptimizationResult("q", "BayesQO")
        result.record(plan("a", "b"), 10.0, censored=False, timeout=None, source="init:bao")
        result.record(plan("b", "a"), 20.0, censored=True, timeout=20.0, source="bo")
        result.record(plan("a", "b", "c"), 4.0, censored=False, timeout=40.0, source="bo")
        return result

    def test_cost_accounting(self):
        result = self.make_result()
        # 10 (success) + 20 (timeout) + 4 (success).
        assert result.total_cost == pytest.approx(34.0)
        assert result.num_executions == 3

    def test_best_plan_and_latency(self):
        result = self.make_result()
        assert result.best_latency == pytest.approx(4.0)
        assert result.best_plan.leaf_aliases() == ["a", "b", "c"]

    def test_censored_never_wins(self):
        result = OptimizationResult("q", "X")
        result.record(plan("a", "b"), 1.0, censored=True, timeout=1.0)
        with pytest.raises(OptimizationError):
            _ = result.best_latency
        assert result.best_latency_or(123.0) == 123.0

    def test_best_latency_over_time_monotone(self):
        points = self.make_result().best_latency_over_time()
        latencies = [latency for _, latency in points]
        assert latencies == sorted(latencies, reverse=True)
        costs = [cost for cost, _ in points]
        assert costs == sorted(costs)

    def test_best_latency_at_cost(self):
        result = self.make_result()
        assert result.best_latency_at_cost(5.0) == float("inf")
        assert result.best_latency_at_cost(10.0) == pytest.approx(10.0)
        assert result.best_latency_at_cost(100.0) == pytest.approx(4.0)

    def test_improvement_over(self):
        result = self.make_result()
        assert result.improvement_over(8.0) == pytest.approx(50.0)
        assert result.improvement_over(2.0) == pytest.approx(-100.0)
        with pytest.raises(OptimizationError):
            result.improvement_over(0.0)

    def test_sources(self):
        counts = self.make_result().sources()
        assert counts == {"init:bao": 1, "bo": 2}

    def test_observed_cost_uses_timeout_for_censored(self):
        result = self.make_result()
        assert result.trace[1].observed_cost == pytest.approx(20.0)
        assert result.trace[0].observed_cost == pytest.approx(10.0)
