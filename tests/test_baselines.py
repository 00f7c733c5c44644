"""Tests for the Bao, Random, Balsa and LimeQO baselines."""

import numpy as np
import pytest

from oracles.reference_planner import ReferencePlanner
from repro.baselines import (
    BalsaConfig,
    BalsaOptimizer,
    BaoOptimizer,
    LimeQOConfig,
    LimeQOOptimizer,
    PlanFeaturizer,
    RandomSearch,
    bao_best_latency,
    complete_matrix,
)
from repro.core.initialization import bao_initialization
from repro.core.protocol import ExecutionOutcome, drive_state
from repro.plans.hints import bao_hint_sets


class TestBao:
    def test_runs_all_distinct_hint_plans(self, tiny_database, tiny_query):
        outcome = BaoOptimizer(tiny_database).optimize(tiny_query)
        assert 1 <= outcome.result.num_executions <= 49
        assert outcome.best_latency > 0
        outcome.best_plan.validate_for_query(tiny_query)

    def test_best_is_minimum_of_trace(self, tiny_database, tiny_query):
        outcome = BaoOptimizer(tiny_database).optimize(tiny_query)
        uncensored = [r.latency for r in outcome.result.trace if not r.censored]
        assert outcome.best_latency == pytest.approx(min(uncensored))

    def test_best_no_worse_than_default(self, tiny_database, tiny_query):
        default = tiny_database.default_latency(tiny_query)
        assert BaoOptimizer(tiny_database).optimize(tiny_query).best_latency <= default + 1e-9

    def test_time_budget_limits_executions(self, tiny_database, tiny_query):
        limited = BaoOptimizer(tiny_database).optimize(tiny_query, time_budget=1e-9)
        assert limited.result.num_executions <= 1

    def test_convenience_helper(self, tiny_database, tiny_query):
        assert bao_best_latency(tiny_database, tiny_query) > 0

    def test_all_censored_falls_back_to_the_plan_that_ran(self, tiny_database, tiny_query, monkeypatch):
        # An initial timeout no plan can meet censors every hint-set plan.
        optimizer = BaoOptimizer(tiny_database, initial_timeout=1e-12)
        state = optimizer.start(tiny_query)
        drive_state(optimizer, tiny_database, state)
        assert state.result.num_executions == len(state.plans) and state.best_plan is None

        def no_planning(*args, **kwargs):
            raise AssertionError("outcome() must not call the planner")

        monkeypatch.setattr(tiny_database.optimizer, "plan_hint_sets", no_planning)
        outcome = optimizer.outcome(state)
        assert outcome.best_plan is state.plans[0][1] is state.result.trace[0].plan
        assert outcome.best_hint_set is state.plans[0][0] is bao_hint_sets()[0]
        assert outcome.best_latency == optimizer.initial_timeout


class TestRandomSearch:
    def test_respects_execution_budget(self, tiny_database, tiny_query):
        result = RandomSearch(tiny_database, seed=1).optimize(tiny_query, max_executions=20)
        assert result.num_executions <= 20
        assert result.trace[0].source == "default"

    def test_first_execution_is_default_plan(self, tiny_database, tiny_query):
        result = RandomSearch(tiny_database, seed=1).optimize(tiny_query, max_executions=5)
        default = tiny_database.plan(tiny_query).canonical()
        assert result.trace[0].plan.canonical() == default

    def test_never_worse_than_default(self, tiny_database, tiny_query):
        result = RandomSearch(tiny_database, seed=2).optimize(tiny_query, max_executions=25)
        default = tiny_database.default_latency(tiny_query)
        assert result.best_latency <= default + 1e-9

    def test_timeouts_bounded_by_best_seen(self, tiny_database, tiny_query):
        result = RandomSearch(tiny_database, seed=3).optimize(tiny_query, max_executions=25)
        best_so_far = float("inf")
        for record in result.trace[1:]:
            if record.timeout is not None and np.isfinite(best_so_far):
                assert record.timeout <= best_so_far + 1e-9
            if not record.censored:
                best_so_far = min(best_so_far, record.latency)

    def test_time_budget(self, tiny_database, tiny_query):
        result = RandomSearch(tiny_database, seed=1).optimize(
            tiny_query, max_executions=100, time_budget=0.01
        )
        assert result.total_cost <= 0.01 + 600.0  # first execution may consume up to its timeout

    def test_deterministic_per_seed(self, tiny_database, tiny_query):
        first = RandomSearch(tiny_database, seed=5).optimize(tiny_query, max_executions=10)
        second = RandomSearch(tiny_database, seed=5).optimize(tiny_query, max_executions=10)
        assert [r.plan.canonical() for r in first.trace] == [r.plan.canonical() for r in second.trace]


class TestBalsa:
    def test_featurizer_shape_and_content(self, tiny_database, tiny_query):
        featurizer = PlanFeaturizer(tiny_database)
        plan = tiny_database.plan(tiny_query)
        features = featurizer.featurize(tiny_query, plan)
        assert features.shape == (featurizer.dim,)
        assert features.sum() > 0

    def test_featurizer_distinguishes_plans(self, tiny_database, tiny_query, rng):
        from repro.plans.sampling import random_join_tree

        featurizer = PlanFeaturizer(tiny_database)
        a = featurizer.featurize(tiny_query, tiny_database.plan(tiny_query))
        b = featurizer.featurize(tiny_query, random_join_tree(tiny_query, rng))
        assert not np.array_equal(a, b)

    def test_optimize_runs_within_budget(self, tiny_database, tiny_query):
        balsa = BalsaOptimizer(tiny_database, BalsaConfig(seed=0, retrain_every=5, training_epochs=10))
        result = balsa.optimize(tiny_query, max_executions=25)
        assert result.num_executions <= 25
        assert result.best_latency > 0

    def test_seeded_with_bao_plans(self, tiny_database, tiny_query):
        balsa = BalsaOptimizer(tiny_database, BalsaConfig(seed=0))
        result = balsa.optimize(tiny_query, max_executions=20)
        assert result.sources().get("init:bao", 0) >= 1

    def test_uses_constant_timeout_multiplier(self, tiny_database, tiny_query):
        config = BalsaConfig(seed=0, timeout_multiplier=1.5)
        result = BalsaOptimizer(tiny_database, config).optimize(tiny_query, max_executions=20)
        best_so_far = None
        for record in result.trace:
            if record.timeout is not None and best_so_far is not None:
                assert record.timeout <= 1.5 * best_so_far + 1e-9
            if not record.censored:
                best_so_far = record.latency if best_so_far is None else min(best_so_far, record.latency)


@pytest.mark.slow
class TestLimeQO:
    def test_matrix_completion_recovers_low_rank(self, rng):
        u = rng.standard_normal((12, 2))
        v = rng.standard_normal((9, 2))
        matrix = u @ v.T
        observed = rng.random((12, 9)) < 0.6
        completed = complete_matrix(matrix, observed, rank=2, iterations=30, regularization=0.01)
        error = np.abs(completed[~observed] - matrix[~observed]).mean()
        assert error < 0.5

    def test_optimize_workload_traces(self, tiny_database, tiny_query, tiny_three_table_query):
        limeqo = LimeQOOptimizer(tiny_database, LimeQOConfig(rank=2, als_iterations=5))
        results = limeqo.optimize_workload(
            [tiny_query, tiny_three_table_query], max_executions=12
        )
        assert set(results) == {tiny_query.name, tiny_three_table_query.name}
        total = sum(result.num_executions for result in results.values())
        assert total <= 12
        # Every query got at least its bootstrap execution.
        assert all(result.num_executions >= 1 for result in results.values())

    def test_limeqo_never_beats_bao_best(self, tiny_database, tiny_query):
        """LimeQO's search space is the hint sets, so Bao's exhaustive best is its floor."""
        bao_best = BaoOptimizer(tiny_database).optimize(tiny_query).best_latency
        results = LimeQOOptimizer(tiny_database).optimize_workload([tiny_query], max_executions=60)
        assert results[tiny_query.name].best_latency >= bao_best - 1e-9


class TestHintSetPlansKeepTheLoopOrder:
    """Every caller of ``plan_hint_sets`` proposes what its one-hint-set-at-a-time loop did."""

    @pytest.fixture(scope="class")
    def loop_plans(self, tiny_workload):
        """Per query: the distinct ``(hint set, plan)`` pairs of the old loop, via the oracle."""
        oracle = ReferencePlanner(tiny_workload.database.optimizer)
        expected = {}
        for query in tiny_workload.queries:
            distinct, seen = [], set()
            for hint_set in bao_hint_sets():
                plan = oracle.plan(query, hint_set)
                if plan.canonical() not in seen:
                    seen.add(plan.canonical())
                    distinct.append((hint_set, plan))
            assert 1 < len(distinct) < 49
            expected[query.name] = distinct
        return expected

    @staticmethod
    def _drain(optimizer, database, state, count):
        proposals = []
        for _ in range(count):
            proposal = optimizer.suggest(state)
            proposals.append(proposal)
            execution = database.execute(state.query, proposal.plan, timeout=proposal.timeout)
            optimizer.observe(state, ExecutionOutcome.from_execution(execution, proposal.timeout))
        return proposals

    def test_bao_initialization(self, tiny_workload, loop_plans):
        for query in tiny_workload.queries:
            assert bao_initialization(tiny_workload.database, query) == [
                (plan, "init:bao") for _, plan in loop_plans[query.name]
            ]

    def test_bao_optimizer(self, tiny_workload, loop_plans):
        database = tiny_workload.database
        optimizer = BaoOptimizer(database)
        for query in tiny_workload.queries:
            expected = loop_plans[query.name]
            state = optimizer.start(query)
            proposals = self._drain(optimizer, database, state, len(expected))
            assert [(p.metadata["hint_set"], p.plan) for p in proposals] == expected
            assert {p.source for p in proposals} == {"bao"}
            assert optimizer.suggest(state) is None

    def test_balsa_hint_seeds(self, tiny_workload, loop_plans):
        database = tiny_workload.database
        optimizer = BalsaOptimizer(database, BalsaConfig(seed=0))
        for query in tiny_workload.queries:
            expected = loop_plans[query.name]
            state = optimizer.start(query)
            proposals = self._drain(optimizer, database, state, len(expected) + 1)
            assert [p.plan for p in proposals[:-1]] == [plan for _, plan in expected]
            assert [p.source for p in proposals] == ["init:bao"] * len(expected) + ["balsa"]

    def test_limeqo_start(self, tiny_workload):
        database = tiny_workload.database
        oracle = ReferencePlanner(database.optimizer)
        state = LimeQOOptimizer(database).start_workload(tiny_workload.queries)
        assert state.matrix.hint_sets == bao_hint_sets()
        assert state.plans == [
            [oracle.plan(query, hint_set) for hint_set in bao_hint_sets()]
            for query in tiny_workload.queries
        ]
