"""Protocol-conformance suite: every registered technique through ask/tell.

Parameterized over the technique registry, these tests pin down the contract
the WorkloadSession scheduler relies on: suggest/observe round-trips with one
outstanding proposal, budget exhaustion under the shared BudgetSpec
accounting, deterministic seeding, and — for techniques with per-query RNG
state — bitwise equivalence between interleaved and sequential scheduling.
"""

from __future__ import annotations

import pytest

from repro.baselines import BaoOptimizer
from repro.core import BayesQOConfig
from repro.core.protocol import BudgetSpec, ExecutionOutcome, PlanProposal
from repro.core.registry import (
    TechniqueContext,
    get_technique,
    register_technique,
    technique_names,
)
from repro.exceptions import OptimizationError
from repro.harness import WorkloadSession, run_comparison
from repro.plans.jointree import JoinTree

ALL_TECHNIQUES = technique_names()

#: Small BayesQO configuration so protocol runs stay fast.
BAYES_CONFIG = BayesQOConfig(max_executions=6, num_candidates=32, seed=0)


def trace_signature(result):
    """Comparable summary of a trace: plans, latencies, censoring, timeouts."""
    return result.trace_signature()


def make_session(workload, schema_model, **kwargs):
    kwargs.setdefault("budget", BudgetSpec(max_executions=6))
    kwargs.setdefault("bayes_config", BAYES_CONFIG)
    return WorkloadSession(workload, schema_model=schema_model, **kwargs)


def build_optimizer(technique, workload, schema_model, seed=0):
    spec = get_technique(technique)
    context = TechniqueContext(
        database=workload.database,
        workload=workload,
        schema_model=schema_model,
        bayes_config=BAYES_CONFIG,
        seed=seed,
    )
    return spec, spec.factory(context)


# --------------------------------------------------------------------- registry
class TestRegistry:
    def test_all_expected_techniques_registered(self):
        assert set(ALL_TECHNIQUES) == {"bayesqo", "bao", "random", "balsa", "limeqo"}

    def test_unknown_technique_rejected(self):
        with pytest.raises(OptimizationError):
            get_technique("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(OptimizationError):
            register_technique("bao")(lambda context: None)

    def test_capability_flags(self):
        assert get_technique("limeqo").workload_level
        assert get_technique("bayesqo").needs_schema_model
        assert get_technique("bao").ignores_execution_cap
        assert get_technique("balsa").order_sensitive
        assert get_technique("bayesqo").predicts_improvement
        assert not get_technique("random").predicts_improvement
        assert not get_technique("random").workload_level


# ------------------------------------------------------------------ conformance
@pytest.mark.parametrize("technique", ALL_TECHNIQUES)
@pytest.mark.slow
class TestProtocolConformance:
    def test_suggest_observe_roundtrip(self, technique, tiny_workload, tiny_schema_model):
        spec, optimizer = build_optimizer(technique, tiny_workload, tiny_schema_model)
        query = tiny_workload.queries[0]
        budget = BudgetSpec(max_executions=4)
        if spec.workload_level:
            state = optimizer.start_workload([query], budget=budget.scaled(1))
            result_of = lambda: state.results[query.name]  # noqa: E731
        else:
            state = optimizer.start(query, budget=budget)
            result_of = lambda: state.result  # noqa: E731
        assert result_of().num_executions == 0
        assert state.budget_left()

        proposal = optimizer.suggest(state)
        assert isinstance(proposal, PlanProposal)
        assert isinstance(proposal.plan, JoinTree)
        assert state.outstanding_count == 1
        assert state.outstanding[proposal.proposal_id] is proposal
        # A second suggest with a pending proposal is a protocol violation and
        # must leave the state untouched: the pending proposal survives.
        with pytest.raises(OptimizationError):
            optimizer.suggest(state)
        assert state.outstanding_count == 1
        assert state.outstanding[proposal.proposal_id] is proposal

        execution = tiny_workload.database.execute(
            proposal.query or query, proposal.plan, timeout=proposal.timeout
        )
        optimizer.observe(state, ExecutionOutcome.from_execution(execution, proposal.timeout))
        assert state.outstanding_count == 0
        assert result_of().num_executions == 1
        record = result_of().trace[0]
        assert record.plan.canonical() == proposal.plan.canonical()
        assert record.timeout == proposal.timeout

    def test_budget_exhaustion(self, technique, tiny_workload, tiny_schema_model):
        spec = get_technique(technique)
        session = make_session(tiny_workload, tiny_schema_model, budget=BudgetSpec(max_executions=5))
        results = session.run(technique)
        assert set(results) == {query.name for query in tiny_workload.queries}
        if spec.ignores_execution_cap:
            # Bao's space is its 49 hint sets; only the time axis applies.
            assert all(result.num_executions <= 49 for result in results.values())
        elif spec.workload_level:
            total = sum(result.num_executions for result in results.values())
            assert total <= 5 * len(tiny_workload.queries)
        else:
            assert all(result.num_executions <= 5 for result in results.values())
        assert all(result.num_executions >= 1 for result in results.values())

    def test_deterministic_seeding(self, technique, tiny_workload, tiny_schema_model):
        first = make_session(tiny_workload, tiny_schema_model, seed=3).run(technique)
        second = make_session(tiny_workload, tiny_schema_model, seed=3).run(technique)
        for name in first:
            assert trace_signature(first[name]) == trace_signature(second[name])

    def test_time_budget_stops_early(self, technique, tiny_workload, tiny_schema_model):
        budget = BudgetSpec(max_executions=30, time_budget=1e-9)
        results = make_session(tiny_workload, tiny_schema_model, budget=budget).run(technique)
        # The first execution overshoots the tiny time budget and stops the run.
        for result in results.values():
            assert result.num_executions <= 2


# ----------------------------------------------------------------- interleaving
@pytest.mark.parametrize("technique", ["bayesqo", "random"])
@pytest.mark.slow
class TestInterleavedEquivalence:
    def test_interleaved_matches_sequential(self, technique, tiny_workload, tiny_schema_model):
        sequential = make_session(tiny_workload, tiny_schema_model, max_workers=1).run(technique)
        interleaved = make_session(
            tiny_workload, tiny_schema_model, max_workers=3, interleave=True
        ).run(technique)
        assert set(sequential) == set(interleaved)
        for name in sequential:
            assert trace_signature(sequential[name]) == trace_signature(interleaved[name])


# ---------------------------------------------------------------------- session
class TestWorkloadSession:
    def test_unknown_technique_rejected(self, tiny_workload):
        with pytest.raises(OptimizationError):
            WorkloadSession(tiny_workload).run("nope")

    def test_invalid_workers_rejected(self, tiny_workload):
        with pytest.raises(OptimizationError):
            WorkloadSession(tiny_workload, max_workers=0)

    def test_results_memoized(self, tiny_workload, tiny_schema_model):
        session = make_session(tiny_workload, tiny_schema_model)
        first = session.run("random")
        assert session.run("random") is first
        assert session.run("random", refresh=True) is not first

    def test_run_comparison_executes_bao_once(self, tiny_workload, tiny_schema_model, monkeypatch):
        starts = []
        original = BaoOptimizer.start

        def counting_start(self, query, budget=None):
            starts.append(query.name)
            return original(self, query, budget=budget)

        monkeypatch.setattr(BaoOptimizer, "start", counting_start)
        run = run_comparison(
            tiny_workload,
            tiny_workload.queries,
            BudgetSpec(max_executions=4),
            techniques=["bao", "random"],
        )
        # One Bao state per query even though Bao is both the baseline and a contender.
        assert sorted(starts) == sorted(query.name for query in tiny_workload.queries)
        assert set(run.results) == {"bao", "random"}
        assert set(run.bao_latencies) == {query.name for query in tiny_workload.queries}

    def test_limeqo_charged_like_everyone_else(self, tiny_workload, tiny_schema_model):
        # The session normalizes LimeQO's workload-level budget to the shared
        # per-query spec: scaled(len(queries)) on both axes.
        per_query = 4
        session = make_session(
            tiny_workload, tiny_schema_model, budget=BudgetSpec(max_executions=per_query)
        )
        results = session.run("limeqo")
        total = sum(result.num_executions for result in results.values())
        assert total <= per_query * len(tiny_workload.queries)

    def test_legacy_optimize_workload_matches_session(self, tiny_workload, tiny_schema_model):
        from repro.baselines import LimeQOOptimizer

        per_query = 4
        session_results = make_session(
            tiny_workload, tiny_schema_model, budget=BudgetSpec(max_executions=per_query)
        ).run("limeqo")
        legacy_results = LimeQOOptimizer(tiny_workload.database).optimize_workload(
            tiny_workload.queries, max_executions=per_query * len(tiny_workload.queries)
        )
        for name in session_results:
            assert trace_signature(session_results[name]) == trace_signature(legacy_results[name])

    def test_order_sensitive_technique_stays_sequential(self, tiny_workload, tiny_schema_model):
        # Balsa shares its RNG/model across queries, so the session must run it
        # sequentially even when interleaving is requested — and therefore
        # reproduce the sequential traces exactly.
        sequential = make_session(tiny_workload, tiny_schema_model, max_workers=1).run("balsa")
        requested_interleaved = make_session(
            tiny_workload, tiny_schema_model, max_workers=3, interleave=True
        ).run("balsa")
        for name in sequential:
            assert trace_signature(sequential[name]) == trace_signature(requested_interleaved[name])

    def test_bao_baseline_not_truncated_by_time_budget(self, tiny_workload, tiny_schema_model):
        unconstrained = make_session(tiny_workload, tiny_schema_model)
        constrained = make_session(
            tiny_workload, tiny_schema_model,
            budget=BudgetSpec(max_executions=30, time_budget=1e-9),
        )
        # The technique run respects the time budget...
        capped = constrained.run("bao")
        assert all(result.num_executions <= 2 for result in capped.values())
        # ...but the improvement baseline reflects Bao's full hint enumeration.
        assert constrained.bao_latencies() == unconstrained.bao_latencies()

    def test_rejected_suggest_leaves_bao_hints_intact(self, tiny_workload):
        # The double-suggest guard fires before any state mutation, so no
        # hint-set plan is skipped and the run still covers the full space.
        optimizer = BaoOptimizer(tiny_workload.database)
        query = tiny_workload.queries[0]
        state = optimizer.start(query)
        first = optimizer.suggest(state)
        next_hint_before = state.next_hint
        with pytest.raises(OptimizationError):
            optimizer.suggest(state)
        assert state.next_hint == next_hint_before
        execution = tiny_workload.database.execute(query, first.plan, timeout=first.timeout)
        optimizer.observe(state, ExecutionOutcome.from_execution(execution, first.timeout))
        assert optimizer.suggest(state) is not None

    def test_bayesqo_custom_initial_plan_sources(self, tiny_workload, tiny_schema_model):
        # Caller-provided initialization plans keep their source labels but
        # are still treated as the initialization phase (always observed,
        # init-timeout rule), as with the pre-refactor loop.
        from repro.core import BayesQO

        optimizer = BayesQO(tiny_workload.database, tiny_schema_model, config=BAYES_CONFIG)
        query = tiny_workload.queries[0]
        seeds = [(tiny_workload.database.plan(query), "seed:custom")]
        result = optimizer.optimize(query, initial_plans=seeds, max_executions=5)
        assert result.trace[0].source == "seed:custom"
        assert result.trace[0].timeout == 600.0

    def test_interleaved_worker_error_names_query(self, tiny_workload):
        # Regression: a failing plan execution inside the interleaved
        # scheduler used to surface as a bare future traceback from pool
        # internals; it must name the query whose execution died.
        class ExplodingDatabase:
            def __init__(self, inner, poison):
                self._inner = inner
                self._poison = poison

            def execute(self, query, plan=None, timeout=None):
                if query.name == self._poison:
                    raise RuntimeError("simulated backend crash")
                return self._inner.execute(query, plan, timeout=timeout)

            def __getattr__(self, name):
                if name.startswith("_"):
                    raise AttributeError(name)
                return getattr(self._inner, name)

        poison = tiny_workload.queries[0].name
        workload = type(tiny_workload)(
            name=tiny_workload.name,
            database=ExplodingDatabase(tiny_workload.database, poison),
            queries=tiny_workload.queries,
            max_aliases=tiny_workload.max_aliases,
        )
        with WorkloadSession(
            workload, budget=BudgetSpec(max_executions=4), max_workers=3, interleave=True
        ) as session:
            with pytest.raises(OptimizationError, match=poison):
                session.run("random")

    def test_legacy_optimize_matches_session(self, tiny_workload, tiny_schema_model):
        from repro.baselines import RandomSearch

        session_results = make_session(
            tiny_workload, tiny_schema_model, seed=1, budget=BudgetSpec(max_executions=8)
        ).run("random")
        for query in tiny_workload.queries:
            legacy = RandomSearch(tiny_workload.database, seed=1).optimize(
                query, max_executions=8
            )
            assert trace_signature(session_results[query.name]) == trace_signature(legacy)
