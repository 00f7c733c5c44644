"""Batched ask/tell suite: multi-proposal bookkeeping, q=1 equivalence,
out-of-order resolution, the batch acquisition layer, and the
SupportsFantasize decoupling of the timeout rule.

The load-bearing guarantees:

* ``q = 1`` through the batch-capable scheduler is bit-for-bit the
  single-proposal protocol for *every* registered technique, and techniques
  without ``supports_batch`` fall back to q=1 transparently at any requested
  batch size,
* outcomes resolve their proposals by ``proposal_id`` in any order,
* budget is charged per completed outcome and is never overshot by
  in-flight proposals,
* the uncertainty timeout rule runs against any ``SupportsFantasize``
  implementation — including fakes — with the batched and sequential
  fantasize paths agreeing.
"""

from __future__ import annotations

import dataclasses
import math
import queue
import threading
import time
from concurrent.futures import Future, wait

import numpy as np
import pytest

from repro.baselines import BalsaOptimizer, BaoOptimizer, LimeQOOptimizer, RandomSearch
from repro.bo.acquisition import best_admissible, thompson_scores
from repro.bo.loop import BOEngine, BOEngineConfig
from repro.bo.svgp import SVGPConfig
from repro.core import BayesQO, BayesQOConfig
from repro.core.config import ExecutionServiceConfig
from repro.core import protocol as protocol_module
from repro.core.protocol import (
    BudgetSpec,
    ExecutionOutcome,
    drive,
    drive_query,
    drive_workload,
    inline_submit,
    issue_allowance,
    suggest_proposals,
)
from repro.core.registry import get_technique, technique_names
from repro.core.timeout import (
    SupportsBatchedFantasize,
    SupportsFantasize,
    UncertaintyTimeout,
)
from repro.exceptions import OptimizationError
from repro.exec import FaultInjectionConfig, backend_submit, make_backend, perform_batch
from repro.harness import WorkloadSession
from repro.workloads.base import Workload

ALL_TECHNIQUES = technique_names()

BAYES_CONFIG = BayesQOConfig(max_executions=6, num_candidates=32, seed=0)


def signatures(results):
    return {name: result.trace_signature() for name, result in results.items()}


def make_session(workload, schema_model, **kwargs):
    kwargs.setdefault("budget", BudgetSpec(max_executions=6))
    kwargs.setdefault("bayes_config", BAYES_CONFIG)
    return WorkloadSession(workload, schema_model=schema_model, **kwargs)


# ------------------------------------------------------------- registry flags
class TestBatchCapability:
    def test_supports_batch_flags(self):
        assert get_technique("bayesqo").supports_batch
        assert get_technique("random").supports_batch
        assert not get_technique("bao").supports_batch
        assert not get_technique("balsa").supports_batch
        assert not get_technique("limeqo").supports_batch

    def test_batch_size_config_validated(self):
        assert ExecutionServiceConfig(batch_size=4).batch_size == 4
        with pytest.raises(OptimizationError):
            ExecutionServiceConfig(batch_size=0)

    def test_session_resolves_batch_size_from_exec_config(self, tiny_workload):
        session = WorkloadSession(
            tiny_workload, exec_config=ExecutionServiceConfig(batch_size=3)
        )
        assert session.batch_size == 3
        with pytest.raises(OptimizationError):
            WorkloadSession(tiny_workload, batch_size=0)


# -------------------------------------------------------- q=1 trace identity
@pytest.mark.parametrize("technique", ALL_TECHNIQUES)
@pytest.mark.slow
class TestQ1Equivalence:
    def test_q1_batched_scheduler_matches_sequential(
        self, technique, tiny_workload, tiny_schema_model
    ):
        sequential = make_session(tiny_workload, tiny_schema_model).run(technique)
        with make_session(
            tiny_workload, tiny_schema_model,
            max_workers=3, batch_size=1, interleave=True,
        ) as session:
            batched = session.run(technique)
        assert signatures(sequential) == signatures(batched)

    def test_unsupported_techniques_fall_back_at_any_q(
        self, technique, tiny_workload, tiny_schema_model
    ):
        # batch_size=4 must be transparent: supports_batch techniques keep
        # q plans in flight (same plans, possibly reordered observations are
        # not exercised here — the trace is still determined per query),
        # everyone else silently runs at q=1.  For techniques *without* the
        # flag the traces must be bit-for-bit sequential.
        if get_technique(technique).supports_batch:
            pytest.skip("fallback semantics only apply without supports_batch")
        sequential = make_session(tiny_workload, tiny_schema_model).run(technique)
        with make_session(
            tiny_workload, tiny_schema_model,
            max_workers=3, batch_size=4, interleave=True,
        ) as session:
            batched = session.run(technique)
        assert signatures(sequential) == signatures(batched)


class TestBatchedRuns:
    @pytest.mark.parametrize("technique", ["random", "bayesqo"])
    def test_batched_run_respects_budget_and_finds_plans(
        self, technique, tiny_workload, tiny_schema_model
    ):
        budget = 6
        with make_session(
            tiny_workload, tiny_schema_model,
            budget=BudgetSpec(max_executions=budget),
            max_workers=3, batch_size=3, interleave=True,
        ) as session:
            results = session.run(technique)
        assert set(results) == {query.name for query in tiny_workload.queries}
        for result in results.values():
            # Budget is charged per completed outcome and never overshot.
            assert 1 <= result.num_executions <= budget
            assert result.best_latency > 0

    def test_single_query_workload_interleaves_at_q_above_one(
        self, tiny_workload, tiny_schema_model
    ):
        single = type(tiny_workload)(
            name=tiny_workload.name,
            database=tiny_workload.database,
            queries=tiny_workload.queries[:1],
            max_aliases=tiny_workload.max_aliases,
        )
        name = single.queries[0].name
        sequential = make_session(single, tiny_schema_model).run("random")
        with make_session(
            single, tiny_schema_model, max_workers=3, batch_size=3, interleave=True
        ) as session:
            batched = session.run("random")
        # Same budget spent; the plan *set* may differ (timeouts are one
        # observation staler in flight), but the run completes and is full.
        assert batched[name].num_executions == sequential[name].num_executions

    def test_drive_state_batched_reference_loop(self, tiny_workload):
        optimizer = RandomSearch(tiny_workload.database, seed=1)
        query = tiny_workload.queries[0]
        state = optimizer.start(query, budget=BudgetSpec(max_executions=7))
        drive(optimizer, [state], inline_submit(tiny_workload.database), q=3)
        assert state.result.num_executions == 7
        assert state.outstanding_count == 0

    @pytest.mark.parametrize("capacity", [1, 3])
    def test_drive_over_several_states_equals_each_state_driven_alone(
        self, capacity, tiny_workload
    ):
        database = tiny_workload.database.snapshot()
        budget = BudgetSpec(max_executions=7)
        alone = RandomSearch(database, seed=2)
        expected = []
        for query in tiny_workload.queries:
            state = alone.start(query, budget=budget)
            drive(alone, [state], inline_submit(database), q=3)
            expected.append(state.result.trace_signature())
        together = RandomSearch(database, seed=2)
        states = [together.start(query, budget=budget) for query in tiny_workload.queries]
        # Newest-first claims: the order states claim slots in reaches no trace.
        drive(together, states[::-1], inline_submit(database), q=3, capacity=capacity)
        assert [state.result.trace_signature() for state in states] == expected
        assert all(state.outstanding_count == 0 for state in states)

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    @pytest.mark.parametrize("capacity", [1, 2])
    def test_ready_states_claim_free_slots_fifo(self, capacity, order, tiny_workload):
        # Landed states re-enter the ready list at its back, so equal budgets
        # are claimed round-robin in the order ``states`` was given.
        database = tiny_workload.database.snapshot()
        optimizer = RandomSearch(database, seed=2)
        states = [
            optimizer.start(query, budget=BudgetSpec(max_executions=4))
            for query in tiny_workload.queries
        ][::order]
        claims = []
        run = inline_submit(database)

        def submit(state, proposals):
            claims.append(state.query.name)
            return run(state, proposals)

        drive(optimizer, states, submit, capacity=capacity)
        assert claims == [state.query.name for state in states] * 4


# ------------------------------------------------------ out-of-order observe
class TestOutOfOrderResolution:
    def _outcomes(self, database, query, proposals):
        outcomes = {}
        for proposal in proposals:
            execution = database.execute(query, proposal.plan, timeout=proposal.timeout)
            outcomes[proposal.proposal_id] = ExecutionOutcome.from_execution(
                execution, proposal.timeout, proposal_id=proposal.proposal_id
            )
        return outcomes

    def test_random_resolves_out_of_order(self, tiny_workload):
        optimizer = RandomSearch(tiny_workload.database, seed=0)
        query = tiny_workload.queries[0]
        state = optimizer.start(query, budget=BudgetSpec(max_executions=6))
        proposals = optimizer.suggest_batch(state, 3)
        assert len(proposals) == 3
        assert state.outstanding_count == 3
        ids = [proposal.proposal_id for proposal in proposals]
        assert len(set(ids)) == 3
        outcomes = self._outcomes(tiny_workload.database, query, proposals)
        # Resolve in reverse submission order.
        for proposal_id in reversed(ids):
            optimizer.observe(state, outcomes[proposal_id])
        assert state.outstanding_count == 0
        assert state.result.num_executions == 3
        # The trace is observation-ordered: last-submitted lands first.
        recorded = [record.plan.canonical() for record in state.result.trace]
        submitted = [proposal.plan.canonical() for proposal in proposals]
        assert recorded == list(reversed(submitted))

    def test_bayesqo_resolves_out_of_order(self, tiny_workload, tiny_schema_model):
        optimizer = BayesQO(tiny_workload.database, tiny_schema_model, config=BAYES_CONFIG)
        query = tiny_workload.queries[0]
        state = optimizer.start(query, budget=BudgetSpec(max_executions=8))
        # Drain initialization plans in batches, resolving in reverse.
        while state.init_queue or state.outstanding_count:
            proposals = optimizer.suggest_batch(state, 2)
            if not proposals:
                break
            outcomes = self._outcomes(tiny_workload.database, query, proposals)
            for proposal in reversed(proposals):
                optimizer.observe(state, outcomes[proposal.proposal_id])
        assert state.outstanding_count == 0
        assert state.result.num_executions >= 1
        # The BO phase also issues batches with distinct in-flight plans.
        proposals = optimizer.suggest_batch(state, 3)
        keys = [proposal.plan.canonical() for proposal in proposals]
        assert len(set(keys)) == len(keys)
        outcomes = self._outcomes(tiny_workload.database, query, proposals)
        for proposal in reversed(proposals):
            optimizer.observe(state, outcomes[proposal.proposal_id])
        assert state.outstanding_count == 0

    def test_ledger_protocol_violations(self, tiny_workload):
        optimizer = RandomSearch(tiny_workload.database, seed=0)
        query = tiny_workload.queries[0]
        state = optimizer.start(query, budget=BudgetSpec(max_executions=6))
        proposals = optimizer.suggest_batch(state, 2)
        assert state.outstanding_count == 2
        # An un-keyed outcome cannot pick between two in flight…
        with pytest.raises(OptimizationError, match="proposal_id"):
            optimizer.observe(state, ExecutionOutcome(latency=1.0))
        # …and an unknown id is rejected.
        with pytest.raises(OptimizationError, match="no outstanding proposal"):
            optimizer.observe(state, ExecutionOutcome(latency=1.0, proposal_id=999))
        # Plain suggest still refuses while proposals are outstanding.
        with pytest.raises(OptimizationError, match="pending"):
            optimizer.suggest(state)
        outcomes = {
            proposal.proposal_id: ExecutionOutcome(
                latency=1.0, proposal_id=proposal.proposal_id
            )
            for proposal in proposals
        }
        for outcome in outcomes.values():
            optimizer.observe(state, outcome)
        assert state.outstanding_count == 0

    def test_issue_allowance_works_on_workload_states(self, tiny_workload):
        # Regression: the allowance must charge the same progress object the
        # budget does — workload-level states have no ``result`` attribute.
        optimizer = LimeQOOptimizer(tiny_workload.database)
        state = optimizer.start_workload(
            tiny_workload.queries, budget=BudgetSpec(max_executions=5)
        )
        assert issue_allowance(state, 3) == 3
        drive(optimizer, [state], inline_submit(tiny_workload.database), q=2)
        total = sum(result.num_executions for result in state.results.values())
        assert total == 5
        assert state.outstanding_count == 0

    def test_bayesqo_top_up_before_first_observation(self, tiny_workload, tiny_schema_model):
        # Regression: a second batched ask before any outcome has been
        # observed must not try to fit an empty surrogate.
        optimizer = BayesQO(tiny_workload.database, tiny_schema_model, config=BAYES_CONFIG)
        state = optimizer.start(tiny_workload.queries[0], budget=BudgetSpec(max_executions=30))
        drained = []
        while state.init_queue:
            drained.extend(optimizer.suggest_batch(state, 4))
        top_up = optimizer.suggest_batch(state, 2)  # BO phase, zero observations
        assert state.outstanding_count == len(drained) + len(top_up)
        for proposal in drained + top_up:
            optimizer.observe(
                state, ExecutionOutcome(latency=1.0, proposal_id=proposal.proposal_id)
            )
        assert state.outstanding_count == 0

    def test_issue_allowance_never_overshoots(self, tiny_workload):
        optimizer = RandomSearch(tiny_workload.database, seed=0)
        query = tiny_workload.queries[0]
        state = optimizer.start(query, budget=BudgetSpec(max_executions=4))
        assert issue_allowance(state, 8) == 4  # capped by remaining budget
        proposals = optimizer.suggest_batch(state, issue_allowance(state, 3))
        assert len(proposals) == 3
        assert issue_allowance(state, 3) == 0  # q slots full
        assert issue_allowance(state, 8) == 1  # budget minus in-flight
        for proposal in proposals:
            optimizer.observe(
                state, ExecutionOutcome(latency=1.0, proposal_id=proposal.proposal_id)
            )
        assert issue_allowance(state, 8) == 1  # one execution left
        state.exhausted = True
        assert issue_allowance(state, 8) == 0


# ------------------------------------------- no proposal is a plan that ran
class TestNoDuplicateProposals:
    @pytest.mark.parametrize("learn_from_timeouts", [True, False])
    @pytest.mark.parametrize("q", [1, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_proposals_are_novel_and_the_surrogate_holds_one_point_per_outcome(
        self, seed, q, learn_from_timeouts, tiny_workload, tiny_schema_model
    ):
        database = tiny_workload.database
        for query in tiny_workload.queries:
            optimizer = BayesQO(database, tiny_schema_model, config=BayesQOConfig(
                max_executions=30, num_candidates=32, seed=seed,
                learn_from_timeouts=learn_from_timeouts,
            ))
            state = optimizer.start(query)
            while state.budget_left() or state.outstanding_count:
                asked = suggest_proposals(optimizer, state, issue_allowance(state, q))
                in_flight = [p.plan.canonical() for p in state.outstanding.values()]
                assert len(set(in_flight)) == len(in_flight)
                assert all(p.source != "bo" or p.plan.canonical() not in state.executed for p in asked)
                if not in_flight:
                    break
                # Land the older half only: the next ask is a top-up beside
                # proposals still in flight.
                for proposal in list(state.outstanding.values())[: max(1, len(in_flight) // 2)]:
                    execution = database.execute(query, proposal.plan, timeout=proposal.timeout)
                    optimizer.observe(state, ExecutionOutcome.from_execution(
                        execution, proposal.timeout, proposal_id=proposal.proposal_id
                    ))
            trace = state.result.trace
            # Short of the budget only when an ask with nothing in flight
            # came back empty: no pool held another unexecuted plan.
            assert len(trace) == 30 or (not asked and state.budget_left())
            bo_plans = [r.plan.canonical() for r in trace if r.source == "bo"]
            assert len(set(bo_plans)) == len(bo_plans)
            reached = sum(
                1 for r in trace if r.source != "bo" or learn_from_timeouts or not r.censored
            )
            assert state.engine.num_observations == reached

    @pytest.mark.parametrize("q", [1, 4])
    def test_drive_state_batched_ends_an_exhausted_query_once(
        self, q, tiny_workload, tiny_schema_model, tiny_two_table_query
    ):
        optimizer = BayesQO(tiny_workload.database, tiny_schema_model, config=BAYES_CONFIG)
        state = optimizer.start(tiny_two_table_query, budget=BudgetSpec(max_executions=40))
        drive(optimizer, [state], inline_submit(tiny_workload.database), q=q)
        plans = [record.plan.canonical() for record in state.result.trace]
        assert state.exhausted and state.outstanding_count == 0
        assert len(plans) == len(set(plans)) <= 6
        assert optimizer.suggest_batch(state, 4) == []

    def test_session_finishes_an_exhausted_query_once_after_its_outcomes_land(
        self, tiny_workload, tiny_schema_model, tiny_two_table_query, monkeypatch
    ):
        """The top-up ask that comes back empty arrives while earlier
        proposals are still in flight; the state is parked, not finished,
        and finishes when the last of them lands."""
        finished = []
        finish = BayesQO.finish

        def counted(self, state):
            finished.append((state.query.name, state.outstanding_count))
            return finish(self, state)

        monkeypatch.setattr(BayesQO, "finish", counted)
        single = type(tiny_workload)(
            name=tiny_workload.name, database=tiny_workload.database,
            queries=[tiny_two_table_query], max_aliases=tiny_workload.max_aliases,
        )
        with make_session(
            single, tiny_schema_model, budget=BudgetSpec(max_executions=40),
            max_workers=3, batch_size=4, interleave=True,
        ) as session:
            results = session.run("bayesqo")
        assert finished == [("tiny_q3", 0)]
        plans = [record.plan.canonical() for record in results["tiny_q3"].trace]
        assert len(plans) == len(set(plans)) <= 6


# ------------------------------------------------ the worker task is the unit
@pytest.fixture(scope="module")
def three_queries(tiny_query, tiny_three_table_query, tiny_two_table_query):
    return [tiny_query, tiny_three_table_query, tiny_two_table_query]


@pytest.mark.slow
class TestFixedQMatchesDriveState:
    """A q-round is observed in submission order once it has landed in full
    (one worker task on a backend with a batch path): every query's trace is
    ``drive`` on that query alone at that q, whatever the backend, timing
    or query order."""

    BUDGET = BudgetSpec(max_executions=8)
    CONFIG = BayesQOConfig(max_executions=8, num_candidates=32, seed=0)

    @pytest.fixture(scope="class")
    def reference(self, tiny_database, tiny_schema_model, three_queries):
        database = tiny_database.snapshot()
        optimizer = BayesQO(database, tiny_schema_model, config=self.CONFIG)
        traces = {}
        for query in three_queries:
            state = optimizer.start(query, budget=self.BUDGET)
            drive(optimizer, [state], inline_submit(database), q=4)
            traces[query.name] = optimizer.finish(state).trace_signature()
        return traces

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_interleaved_q4_equals_the_reference_loop_and_itself(
        self, backend, order, tiny_database, tiny_schema_model, three_queries, reference
    ):
        runs = []
        for _ in range(2):
            # A snapshot per run: same relations, an execution cache of its own.
            workload = Workload(
                name="tiny", database=tiny_database.snapshot(),
                queries=three_queries[::order], max_aliases=2,
            )
            with make_session(
                workload, tiny_schema_model,
                budget=self.BUDGET, bayes_config=self.CONFIG,
                backend=backend, max_workers=2, batch_size=4,
            ) as session:
                assert session.interleave
                runs.append(signatures(session.run("bayesqo")))
        assert runs[0] == reference
        assert runs[1] == reference

    def test_a_supervised_inline_member_driven_at_q4_equals_the_reference_loop(
        self, tiny_database, tiny_schema_model, three_queries, reference
    ):
        # The coordinator keeps a q-batch together as one task on its member,
        # driven here at q = 4 directly, without a session.
        database = tiny_database.snapshot()
        optimizer = BayesQO(database, tiny_schema_model, config=self.CONFIG)
        backend = make_backend(ExecutionServiceConfig(backend="inline", supervised=True), database)
        traces = {}
        try:
            for query in three_queries:
                state = optimizer.start(query, budget=self.BUDGET)
                drive(optimizer, [state], backend_submit(backend), q=4)
                traces[query.name] = optimizer.finish(state).trace_signature()
            report = backend.health_snapshot()
        finally:
            backend.close()
        assert traces == reference
        assert report["lease_reassignments"] == 0 and report["degraded_executions"] == 0

    def test_a_supervised_inline_session_told_to_interleave_runs_at_q4(
        self, tiny_database, tiny_schema_model, three_queries, reference
    ):
        # Capacity 1 makes interleaving off by default; asked for, it holds,
        # and batch_size is the q of every query's rounds.
        config = ExecutionServiceConfig(backend="inline", supervised=True, batch_size=4)
        workload = Workload(
            name="tiny", database=tiny_database.snapshot(), queries=three_queries, max_aliases=2
        )
        with make_session(
            workload, tiny_schema_model,
            budget=self.BUDGET, bayes_config=self.CONFIG, exec_config=config, interleave=True,
        ) as session:
            assert session.backend.capacity() == 1
            assert signatures(session.run("bayesqo")) == reference

    @pytest.mark.parametrize(
        "faults",
        [None, FaultInjectionConfig(seed=0, transient_rate=0.3, max_faults_per_request=1)],
        ids=["clean", "transients"],
    )
    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_a_supervised_q4_run_equals_the_reference_loop(
        self, backend, faults, tiny_database, tiny_schema_model, three_queries, reference
    ):
        # Supervision puts the coordinator in front of the one pool, so a
        # q-batch stays one task; no execution comes near the deadline.  An
        # injected transient fails its lease before the pool sees it; the
        # lease reassigns alone and the round is still observed in order.
        config = ExecutionServiceConfig(
            backend=backend, max_workers=2, batch_size=4, supervised=True, request_deadline=30.0,
            fault_injection=faults,
        )
        workload = Workload(
            name="tiny", database=tiny_database.snapshot(), queries=three_queries, max_aliases=2
        )
        with make_session(
            workload, tiny_schema_model,
            budget=self.BUDGET, bayes_config=self.CONFIG, exec_config=config,
        ) as session:
            assert session.interleave
            assert signatures(session.run("bayesqo")) == reference
            report = session.health_report()
        assert report["fabric"]["hangs"] == 0
        if faults is not None:
            assert report["faults"]["transients"] > 0


class _SlowDatabase:
    """A database whose every execution holds its worker for ``seconds``."""

    def __init__(self, database, seconds: float) -> None:
        self.database = database
        self.seconds = seconds

    def execute(self, *args, **kwargs):
        time.sleep(self.seconds)
        return self.database.execute(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.database, name)


class TestPerRequestSubmission:
    """A request's deadline runs from its dispatch to a worker, never from
    queueing, and a q-round that is one task gets q times the deadline."""

    def test_a_supervised_q8_round_waits_out_no_deadline_queued(
        self, tiny_database, three_queries
    ):
        # 100 ms per execution on 2 workers: a q=8 round is one 0.8 s task,
        # past the 0.6 s per request but well within the round's 8 x 0.6 s.
        database = tiny_database.snapshot()
        config = ExecutionServiceConfig(
            backend="thread", max_workers=2, supervised=True, request_deadline=0.6,
            max_retries=0,
        )
        backend = make_backend(config, _SlowDatabase(database, 0.1))
        workload = Workload(name="tiny", database=database, queries=three_queries, max_aliases=2)
        with WorkloadSession(
            workload, budget=BudgetSpec(max_executions=8), seed=0, backend=backend, batch_size=8,
        ) as session:
            assert session.interleave and hasattr(backend, "submit_batch")
            results = session.run("random")
            fabric = session.health_report()["fabric"]
        executions = sum(result.num_executions for result in results.values())
        assert fabric["hangs"] == 0
        assert fabric["dispatched"] == fabric["submissions"] == executions > 8


class SteppedBackend:
    """A batch-path backend that executes at submit and resolves on demand.

    Each :meth:`step` makes the resolver thread resolve exactly one future:
    the *last* unresolved one of a group, the open groups taking turns — so
    groups land one future at a time, in reverse order, several of them
    partially landed at once.  ``fail_at`` fails the n-th resolution.
    """

    name = "stepped"

    def __init__(self, database, capacity: int = 2, fail_at: int | None = None) -> None:
        self.database = database
        self._capacity = capacity
        self._fail_at = fail_at
        #: Every group submitted, ``[(future, request, outcome), ...]`` each,
        #: in submission order; ``_open`` holds what of them is unresolved.
        self.groups: list[list] = []
        self.failed_request = None
        self._open: list[list] = []
        self._turn = 0
        self._resolved = 0
        self._steps: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._resolve, daemon=True)
        self._thread.start()

    def capacity(self) -> int:
        return self._capacity

    def healthy(self) -> bool:
        return True

    def submit(self, request):
        return self.submit_batch([request])[0]

    def submit_batch(self, requests):
        assert len(self._open) < self._capacity, "the scheduler holds more tasks than slots"
        outcomes = perform_batch(self.database, list(requests))
        group = [(Future(), request, outcome) for request, outcome in zip(requests, outcomes)]
        self.groups.append(group)
        self._open.append(list(group))
        return [future for future, *_ in group]

    def group_of(self, query_name: str, proposal_id: int) -> list:
        for group in self.groups:
            if any(
                (request.query.name, request.proposal_id) == (query_name, proposal_id)
                for _, request, _ in group
            ):
                return group
        raise AssertionError(f"no group holds {query_name}#{proposal_id}")

    def step(self) -> None:
        self._steps.put(True)

    def _resolve(self) -> None:
        # Runs between a step() and the resolution the scheduler then wakes
        # on, so it never touches ``_open`` while the scheduler submits.
        while self._steps.get():
            group = self._open[self._turn % len(self._open)]
            future, request, outcome = group.pop()
            if group:
                self._turn += 1
            else:
                self._open.remove(group)
            failing = self._resolved == self._fail_at
            self._resolved += 1
            if failing:
                self.failed_request = request
                future.set_exception(RuntimeError("injected execution failure"))
            else:
                future.set_result(outcome)

    def close(self) -> None:
        self._steps.put(None)
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


class TestSchedulerCountsTasks:
    """The scheduler against :class:`SteppedBackend`, no pool involved: slots
    hold tasks, a group is observed landed and in order, ``wait`` sleeps on
    unresolved futures only, budgets are exact, failures name their query."""

    Q = 4
    BUDGET = 9  # rounds of 4, 4 and a lone request

    @pytest.fixture
    def queries(self, tiny_query, tiny_three_table_query):
        # Three queries for two slots, each with more plans than the budget.
        return [
            tiny_query,
            tiny_three_table_query,
            dataclasses.replace(tiny_query, name="tiny_q1_again"),
        ]

    def run(self, monkeypatch, backend, queries):
        waits: list[int] = []
        observed: list[tuple] = []

        def stepping_wait(futures, timeout=None, return_when=None):
            futures = set(futures)
            assert futures and not any(future.done() for future in futures)
            waits.append(len(futures))
            backend.step()
            return wait(futures, timeout=30, return_when=return_when)

        observe = RandomSearch.observe

        def recording_observe(optimizer, state, outcome):
            group = backend.group_of(state.query.name, outcome.proposal_id)
            assert all(future.done() for future, *_ in group)
            observed.append((state.query.name, outcome.proposal_id))
            return observe(optimizer, state, outcome)

        monkeypatch.setattr(protocol_module, "wait", stepping_wait)
        monkeypatch.setattr(RandomSearch, "observe", recording_observe)
        workload = Workload(
            name="tiny", database=backend.database, queries=queries, max_aliases=2
        )
        session = WorkloadSession(
            workload, budget=BudgetSpec(max_executions=self.BUDGET), seed=0,
            backend=backend, batch_size=self.Q,
        )
        assert session.interleave
        try:
            results = session.run("random")
        finally:
            session.close()
        return results, waits, observed

    def test_groups_land_whole_in_order_within_capacity(
        self, monkeypatch, tiny_database, queries
    ):
        backend = SteppedBackend(tiny_database.snapshot())
        results, waits, observed = self.run(monkeypatch, backend, queries)
        total = self.BUDGET * len(queries)
        assert {name: result.num_executions for name, result in results.items()} == {
            query.name: self.BUDGET for query in queries
        }
        # A state asks for its whole allowance although only two slots exist.
        assert sorted({len(group) for group in backend.groups}) == [1, self.Q]
        # One wait per resolution: a partially landed group is never polled.
        assert len(waits) == total == len(observed)
        position = {key: index for index, key in enumerate(observed)}
        assert len(position) == total
        for group in backend.groups:
            keys = [(request.query.name, request.proposal_id) for _, request, _ in group]
            first = position[keys[0]]
            assert [position[key] for key in keys] == list(range(first, first + len(keys)))

    def test_a_failed_future_names_its_query_and_cancels_the_rest(
        self, monkeypatch, tiny_database, queries
    ):
        backend = SteppedBackend(tiny_database.snapshot(), fail_at=5)
        with pytest.raises(OptimizationError) as raised:
            self.run(monkeypatch, backend, queries)
        message = str(raised.value)
        assert "injected execution failure" in message
        assert f"query {backend.failed_request.query.name!r}" in message
        futures = [future for group in backend.groups for future, *_ in group]
        # Everything submitted has either landed or been cancelled on the way out.
        assert all(future.done() for future in futures)
        assert any(future.cancelled() for future in futures)


# ----------------------------------------------------- engine batch acquisition
class TestEngineSuggestBatch:
    def make_engine(self, num_points: int = 12, **config) -> BOEngine:
        engine = BOEngine(np.zeros(2), np.ones(2), config=BOEngineConfig(**config), seed=0)
        rng = np.random.default_rng(0)
        for _ in range(num_points):
            x = rng.random(2)
            engine.add_observation(x, float((x**2).sum()))
        engine.fit()
        return engine

    @pytest.mark.parametrize("strategy", ["fantasize", "thompson"])
    def test_suggest_batch_returns_distinct_points(self, strategy):
        engine = self.make_engine(batch_strategy=strategy, num_candidates=64)
        batch = engine.suggest_batch(4)
        assert len(batch) == 4
        stacked = np.stack(batch)
        assert len(np.unique(stacked, axis=0)) == 4

    def test_suggest_batch_q1_matches_suggest_stream(self):
        left = self.make_engine(num_candidates=64)
        right = self.make_engine(num_candidates=64)
        for _ in range(3):
            np.testing.assert_array_equal(left.suggest(), right.suggest_batch(1)[0])

    @pytest.mark.parametrize("strategy", ["fantasize", "thompson"])
    @pytest.mark.parametrize("q", [1, 4])
    def test_an_admissible_that_accepts_everything_changes_nothing(self, strategy, q):
        left = self.make_engine(batch_strategy=strategy, num_candidates=64)
        right = self.make_engine(batch_strategy=strategy, num_candidates=64)
        for _ in range(3):
            plain = left.suggest_batch(q)
            masked = right.suggest_batch(q, lambda points: np.ones(len(points), dtype=bool))
            np.testing.assert_array_equal(np.stack(plain), np.stack(masked))

    @pytest.mark.parametrize("strategy", ["fantasize", "thompson"])
    @pytest.mark.parametrize("q", [1, 4])
    def test_every_pick_is_admissible_and_asked_about_in_doubling_chunks(self, strategy, q):
        engine = self.make_engine(batch_strategy=strategy, num_candidates=64)
        asked = []

        def admissible(points):
            asked.append(len(points))
            return points[:, 0] > points[:, 1]

        batch = np.stack(engine.suggest_batch(q, admissible))
        assert len(np.unique(batch, axis=0)) == q and (batch[:, 0] > batch[:, 1]).all()
        # Every walk of the ranking starts over at one candidate.
        assert asked[0] == 1 and all(b in (1, 2 * a) for a, b in zip(asked, asked[1:]))

    @pytest.mark.parametrize("strategy", ["fantasize", "thompson"])
    def test_a_single_pick_is_mask_then_argmin(self, strategy):
        engine = self.make_engine(batch_strategy=strategy, num_candidates=64)
        oracle = self.make_engine(batch_strategy=strategy, num_candidates=64)
        admissible = lambda points: points[:, 0] > points[:, 1]  # noqa: E731
        point = engine.suggest(admissible)
        # The same RNG stream by hand: pool, one Thompson draw, mask, argmin.
        pool = oracle._local_candidates.generate(
            64, oracle.rng, center=oracle._normalize(oracle.best_point())[0]
        )
        scores = thompson_scores(oracle.surrogate, pool, oracle.rng)
        scores[~admissible(oracle._denormalize(pool))] = np.inf
        np.testing.assert_array_equal(point, oracle._denormalize(pool[np.argmin(scores)])[0])

    def test_trust_region_pool_without_an_admissible_point_is_redrawn_globally(self):
        engine = self.make_engine(num_candidates=64)
        best = engine.best_point()
        # The trust region (length 0.8) reaches 0.4 from the incumbent.
        far = lambda points: np.abs(points[:, 0] - best[0]) > 0.41  # noqa: E731
        rounds = engine.acquisition_rounds
        point = engine.suggest(far)
        assert far(point[None])[0]
        assert engine.acquisition_rounds == rounds + 2
        engine.suggest(lambda points: np.ones(len(points), dtype=bool))
        assert engine.acquisition_rounds == rounds + 3

    def test_nothing_admissible_ends_the_ask_after_two_rounds(self):
        engine = self.make_engine(num_candidates=64)
        calls = []

        def nothing(points):
            calls.append(len(points))
            return np.zeros(len(points), dtype=bool)

        rounds = engine.acquisition_rounds
        assert engine.suggest(nothing) is None
        assert engine.suggest_batch(4, nothing) == []
        assert engine.acquisition_rounds == rounds + 4
        # 64 candidates in chunks of 1, 2, 4, ...: seven calls per pool.
        assert calls == [1, 2, 4, 8, 16, 32, 1] * 4
        # Without a trust region there is no second pool to draw.
        flat = self.make_engine(num_candidates=64, use_trust_region=False)
        assert flat.suggest(nothing) is None and flat.acquisition_rounds == 1

    def test_best_admissible_masks_what_it_rejected_and_what_it_picked(self):
        scores = np.array([0.3, 0.1, 0.5, 0.2, 0.4])
        points = np.arange(5.0)[:, None]
        masked = np.zeros(5, dtype=bool)
        asked = []

        def odd(chunk):
            asked.append(chunk[:, 0].tolist())
            return chunk[:, 0] % 2 == 0

        assert best_admissible(scores, masked, points, odd) == 0
        # Ranking 1, 3, 0, 4, 2: asked [1], then [3, 0]; 4 and 2 never asked.
        assert asked == [[1.0], [3.0, 0.0]]
        assert masked.tolist() == [True, True, False, True, False]
        assert best_admissible(scores, masked, points, odd) == 4
        assert best_admissible(scores, masked, points, odd) == 2
        assert best_admissible(scores, masked, points, odd) is None
        assert best_admissible(scores, np.zeros(5, dtype=bool), points) == 1

    def test_suggest_batch_before_observations_is_random(self):
        engine = BOEngine(np.zeros(3), np.ones(3), seed=1)
        batch = engine.suggest_batch(3)
        assert len(batch) == 3
        assert all(point.shape == (3,) for point in batch)

    def test_invalid_q_rejected(self):
        engine = self.make_engine()
        with pytest.raises(OptimizationError):
            engine.suggest_batch(0)

    def test_svgp_subconfig_requires_svgp_surrogate(self):
        with pytest.raises(OptimizationError, match="svgp"):
            BOEngineConfig(surrogate="censored_gp", svgp=SVGPConfig())
        with pytest.raises(OptimizationError, match="svgp"):
            BOEngineConfig(svgp=SVGPConfig())  # default surrogate is censored_gp
        assert BOEngineConfig(surrogate="svgp", svgp=SVGPConfig()).svgp is not None

    def test_unknown_batch_strategy_rejected(self):
        with pytest.raises(OptimizationError):
            BOEngineConfig(batch_strategy="greedy")
        with pytest.raises(OptimizationError):
            BayesQOConfig(batch_strategy="greedy")


# -------------------------------------------------- SupportsFantasize fakes
class FakeSequentialFantasize:
    """Monotone fantasized LCB: confident once the level crosses a threshold."""

    supports_batched_fantasize = False
    num_observations = 10

    def __init__(self, threshold: float = 0.6, std: float = 0.1) -> None:
        self.threshold = threshold
        self.std = std
        self.calls = 0

    def fantasize_censored(self, x, censor_level):
        self.calls += 1
        # mean - std == best_log exactly at ``threshold``.
        return censor_level - self.threshold + self.std, self.std


class FakeBatchedFantasize(FakeSequentialFantasize):
    supports_batched_fantasize = True

    def fantasize_censored_batch(self, x, censor_levels):
        self.calls += 1
        levels = np.asarray(censor_levels, dtype=np.float64)
        return levels - self.threshold + self.std, np.full(len(levels), self.std)


class TestSupportsFantasizeDecoupling:
    def test_fakes_satisfy_the_protocol(self):
        assert isinstance(FakeSequentialFantasize(), SupportsFantasize)
        assert not isinstance(FakeSequentialFantasize(), SupportsBatchedFantasize)
        assert isinstance(FakeBatchedFantasize(), SupportsBatchedFantasize)
        assert isinstance(
            BOEngine(np.zeros(2), np.ones(2), seed=0), SupportsFantasize
        )

    def test_timeout_module_is_decoupled_from_bo(self):
        # The typed SupportsFantasize dependency replaced the BOEngine
        # import: the timeout layer must not import anything from repro.bo.
        import repro.core.timeout as timeout_module

        with open(timeout_module.__file__) as handle:
            assert "from repro.bo" not in handle.read()

    def test_batched_and_sequential_fakes_agree(self):
        policy = UncertaintyTimeout(kappa=1.0, max_multiplier=16.0, bisection_steps=10)
        best_latency = 1.0
        candidate = np.zeros(2)
        threshold = 0.6
        sequential = policy.select(
            FakeSequentialFantasize(threshold), candidate, best_latency, [best_latency]
        )
        batched = policy.select(
            FakeBatchedFantasize(threshold), candidate, best_latency, [best_latency]
        )
        resolution = math.log(16.0) / 2**policy.bisection_steps
        # Both paths bracket the same analytic boundary exp(threshold).
        assert abs(math.log(sequential) - threshold) <= 2 * resolution + 1e-9
        assert abs(math.log(batched) - threshold) <= 2 * resolution + 1e-9
        assert abs(math.log(batched) - math.log(sequential)) <= 2 * resolution + 1e-9

    def test_batched_fake_uses_one_conditioning(self):
        policy = UncertaintyTimeout(kappa=1.0, max_multiplier=16.0)
        fake = FakeBatchedFantasize()
        policy.select(fake, np.zeros(2), 1.0, [1.0])
        assert fake.calls == 1
        sequential = FakeSequentialFantasize()
        policy.select(sequential, np.zeros(2), 1.0, [1.0])
        assert sequential.calls == policy.bisection_steps + 1


# ------------------------------------------------------ shim replacements
class TestShimReplacements:
    """The deleted ``optimize()`` shims stay gone, and the calls that replace
    them run the same one-execution budgets without a deprecation warning
    (``pytest.ini`` turns any ``DeprecationWarning`` into an error)."""

    ONE = BudgetSpec(max_executions=1)

    def test_random_drive_query_replaces_optimize(self, tiny_workload):
        assert not hasattr(RandomSearch, "optimize")
        optimizer = RandomSearch(tiny_workload.database, seed=0)
        result = drive_query(optimizer, tiny_workload.database, tiny_workload.queries[0], self.ONE)
        assert result.num_executions == 1

    def test_bao_outcome_replaces_optimize(self, tiny_workload):
        assert not hasattr(BaoOptimizer, "optimize")
        optimizer = BaoOptimizer(tiny_workload.database)
        state = optimizer.start(
            tiny_workload.queries[0], budget=BudgetSpec(max_executions=None, time_budget=1e-9)
        )
        drive(optimizer, [state], inline_submit(tiny_workload.database))
        outcome = optimizer.outcome(state)
        assert outcome.result.num_executions == 1
        assert outcome.best_plan is not None and outcome.best_hint_set is not None

    def test_balsa_drive_query_replaces_optimize(self, tiny_workload):
        assert not hasattr(BalsaOptimizer, "optimize")
        optimizer = BalsaOptimizer(tiny_workload.database)
        result = drive_query(optimizer, tiny_workload.database, tiny_workload.queries[0], self.ONE)
        assert result.num_executions == 1

    def test_limeqo_drive_workload_replaces_optimize_workload(self, tiny_workload):
        assert not hasattr(LimeQOOptimizer, "optimize_workload")
        queries = tiny_workload.queries[:1]
        results = drive_workload(
            LimeQOOptimizer(tiny_workload.database), tiny_workload.database, queries, self.ONE
        )
        assert list(results) == [queries[0].name]
        assert results[queries[0].name].num_executions == 1

    def test_bayesqo_drive_query_replaces_optimize(self, tiny_workload, tiny_schema_model):
        assert not hasattr(BayesQO, "optimize")
        optimizer = BayesQO(tiny_workload.database, tiny_schema_model, config=BAYES_CONFIG)
        result = drive_query(optimizer, tiny_workload.database, tiny_workload.queries[0], self.ONE)
        assert result.num_executions == 1
