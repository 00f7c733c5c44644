"""Tests for the benchmark harness: metrics, reporting and technique runners."""

import numpy as np
import pytest

from repro.core.result import OptimizationResult
from repro.exceptions import OptimizationError
from repro.harness import (
    BudgetSpec,
    StreamingPercentiles,
    WorkloadSession,
    WorkloadSummary,
    best_latency_curve,
    format_cdf,
    format_summaries,
    format_table,
    improvement_cdf,
    improvement_distribution,
    improvement_over_baseline,
    percentage_difference,
    run_comparison,
    workload_curve,
)
from repro.plans.jointree import JoinTree


def make_result(name: str, latencies: list[float]) -> OptimizationResult:
    result = OptimizationResult(name, "X")
    for latency in latencies:
        result.record(JoinTree.left_deep(["a", "b"]), latency, censored=False, timeout=None)
    return result


class TestMetrics:
    def test_improvement_over_baseline(self):
        assert improvement_over_baseline(0.2, 1.0) == pytest.approx(80.0)
        assert improvement_over_baseline(2.0, 1.0) == pytest.approx(-100.0)
        with pytest.raises(ValueError):
            improvement_over_baseline(1.0, 0.0)

    def test_improvement_distribution_and_cdf(self):
        results = {"q1": make_result("q1", [0.5]), "q2": make_result("q2", [2.0])}
        baselines = {"q1": 1.0, "q2": 1.0}
        improvements = improvement_distribution(results, baselines)
        assert improvements["q1"] == pytest.approx(50.0)
        assert improvements["q2"] == pytest.approx(-100.0)
        cdf = improvement_cdf(improvements, thresholds=[0.0, 40.0, 60.0])
        assert cdf == [(0.0, 0.5), (40.0, 0.5), (60.0, 0.0)]

    def test_improvement_distribution_handles_all_censored(self):
        result = OptimizationResult("q1", "X")
        result.record(JoinTree.left_deep(["a", "b"]), 5.0, censored=True, timeout=5.0)
        improvements = improvement_distribution({"q1": result}, {"q1": 1.0})
        assert improvements["q1"] == 0.0

    def test_workload_summary(self):
        summary = WorkloadSummary.from_latencies([1.0, 2.0, 3.0, 10.0])
        assert summary.total == pytest.approx(16.0)
        assert summary.median == pytest.approx(2.5)
        assert summary.p90 >= 3.0
        empty = WorkloadSummary.from_latencies([])
        assert empty.total == 0.0

    def test_best_latency_curve(self):
        result = make_result("q", [5.0, 3.0, 1.0])
        curve = best_latency_curve(result, [4.0, 8.0, 100.0])
        assert curve[0] == float("inf")  # nothing has finished within a budget of 4
        assert curve[1] == pytest.approx(3.0)
        assert curve[-1] == pytest.approx(1.0)

    def test_workload_curve_with_fallback(self):
        results = {"q1": make_result("q1", [2.0]), "q2": make_result("q2", [4.0])}
        budgets = [0.5, 10.0]
        summaries = workload_curve(results, budgets, fallback={"q1": 7.0, "q2": 7.0})
        assert summaries[0].total == pytest.approx(14.0)  # nothing finished yet -> fallback
        assert summaries[1].total == pytest.approx(6.0)

    def test_percentage_difference(self):
        assert percentage_difference(1.5, 1.0) == pytest.approx(50.0)
        assert percentage_difference(0.5, 1.0) == pytest.approx(-50.0)
        with pytest.raises(ValueError):
            percentage_difference(1.0, 0.0)


class TestStreamingPercentiles:
    def test_exact_below_capacity(self, rng):
        values = rng.exponential(1.0, size=200)
        tracker = StreamingPercentiles(capacity=512, seed=0)
        for value in values:
            tracker.add(value)
        assert len(tracker) == 200
        for q in (50, 95, 99):
            assert tracker.percentile(q) == pytest.approx(float(np.percentile(values, q)))
        assert tracker.p50 == tracker.percentile(50)
        assert tracker.p95 == tracker.percentile(95)
        assert tracker.p99 == tracker.percentile(99)

    def test_reservoir_approximates_beyond_capacity(self, rng):
        values = rng.exponential(1.0, size=20_000)
        tracker = StreamingPercentiles(capacity=512, seed=1)
        for value in values:
            tracker.add(value)
        assert len(tracker) == 20_000
        # The reservoir is a uniform sample: p50 lands near the true median.
        true_p50 = float(np.percentile(values, 50))
        assert tracker.p50 == pytest.approx(true_p50, rel=0.25)

    def test_deterministic_and_picklable(self, rng):
        import pickle

        values = list(rng.normal(5.0, 1.0, size=3000))
        first = StreamingPercentiles(capacity=64, seed=3)
        second = StreamingPercentiles(capacity=64, seed=3)
        for value in values[:1500]:
            first.add(value)
            second.add(value)
        # A pickled tracker continues exactly where the original does.
        clone = pickle.loads(pickle.dumps(first))
        for value in values[1500:]:
            first.add(value)
            second.add(value)
            clone.add(value)
        assert first.p95 == second.p95 == clone.p95
        assert first.snapshot() == clone.snapshot()

    def test_empty_and_validation(self):
        tracker = StreamingPercentiles(capacity=4)
        assert tracker.p50 == 0.0
        assert len(tracker) == 0
        snapshot = tracker.snapshot()
        assert snapshot["count"] == 0
        with pytest.raises(ValueError):
            StreamingPercentiles(capacity=0)


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 0.0001]], title="T")
        assert "T" in text and "a" in text and "x" in text

    def test_format_cdf(self):
        series = {"BayesQO": [(0.0, 1.0), (50.0, 0.5)], "Random": [(0.0, 0.8), (50.0, 0.1)]}
        text = format_cdf(series, "Figure 3")
        assert "BayesQO" in text and ">=50%" in text

    def test_format_summaries(self):
        text = format_summaries(["past", "future"],
                                [WorkloadSummary(1, 2, 3, 4), WorkloadSummary(5, 6, 7, 8)],
                                "Figure 6")
        assert "past" in text and "future" in text


@pytest.mark.slow
class TestRunners:
    def test_unknown_technique_rejected(self, tiny_workload):
        with pytest.raises(OptimizationError):
            WorkloadSession(tiny_workload, budget=BudgetSpec()).run("nope")

    def test_run_bao_and_random(self, tiny_workload):
        budget = BudgetSpec(max_executions=10)
        queries = tiny_workload.queries
        bao = WorkloadSession(tiny_workload, budget=budget).run("bao")
        random_results = WorkloadSession(tiny_workload, budget=budget, seed=1).run("random")
        assert set(bao) == {q.name for q in queries}
        assert all(result.num_executions <= 49 for result in bao.values())
        assert all(result.num_executions <= 10 for result in random_results.values())

    def test_run_limeqo(self, tiny_workload):
        results = WorkloadSession(tiny_workload, budget=BudgetSpec(max_executions=6)).run("limeqo")
        assert set(results) == {q.name for q in tiny_workload.queries}

    def test_run_comparison_small(self, tiny_workload, tiny_schema_model):
        run = run_comparison(
            tiny_workload,
            tiny_workload.queries[:1],
            BudgetSpec(max_executions=8),
            techniques=["bayesqo", "random"],
            schema_model=tiny_schema_model,
        )
        assert set(run.techniques()) == {"bayesqo", "random"}
        assert run.bao_latencies and run.default_latencies
        name = tiny_workload.queries[0].name
        improvements = improvement_distribution(run.results["bayesqo"], run.bao_latencies)
        assert name in improvements
        # BayesQO is initialized with the Bao plans, so it can never regress vs Bao.
        assert improvements[name] >= -1e-6
