"""Execution-service suite: serialization, backends, router, policies.

Covers the cross-process contract (everything that crosses a backend boundary
round-trips through pickle), the stable sha256 seeding that makes worker
processes observe identical latencies, backend/policy trace determinism
(sequential == process-pool for Random and BayesQO), and the router's
occupancy/health bookkeeping.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import BrokenExecutor, Future

import numpy as np
import pytest

from repro.core.config import ExecutionServiceConfig
from repro.core.protocol import BudgetSpec, ExecutionOutcome, OptimizerState, PlanProposal
from repro.core.result import OptimizationResult
from repro.db.catalog import Column, ForeignKey, Schema, Table
from repro.db.datagen import ColumnSpec, DataGenerator, TableSpec
from repro.db.engine import Database
from repro.db.executor import ExecutionResult, Executor
from repro.db.query import FilterPredicate, JoinPredicate, Query, TableRef
from repro.exceptions import OptimizationError
from repro.exec import (
    BudgetAwarePriority,
    ExecutionRequest,
    InlineBackend,
    MultiBackendRouter,
    ProcessPoolBackend,
    RoundRobin,
    ThreadPoolBackend,
    make_backend,
    make_policy,
)
from repro.exec.process_pool import _WORKER_STATE, _execute_in_worker
from repro.harness import WorkloadSession
from repro.plans.jointree import JoinTree
from repro.utils.seeding import stable_digest
from repro.workloads.base import Workload


# ------------------------------------------------------------------ noisy fixture
@pytest.fixture(scope="module")
def noisy_workload() -> Workload:
    """A tiny workload with latency noise enabled.

    Noise is the part of execution that used to be process-salted; running it
    through the process backend is the real cross-process determinism check.
    """
    tables = [
        Table("orders", [Column("id"), Column("customer_id"), Column("quantity")]),
        Table("customer", [Column("id"), Column("region")]),
        Table("product", [Column("id"), Column("category"), Column("order_id")]),
    ]
    foreign_keys = [
        ForeignKey("orders", "customer_id", "customer", "id"),
        ForeignKey("product", "order_id", "orders", "id"),
    ]
    schema = Schema("noisy", tables, foreign_keys)
    schema.index_all_join_keys()
    specs = {
        "orders": TableSpec(2000, {"quantity": ColumnSpec("categorical", cardinality=10)}),
        "customer": TableSpec(300, {"region": ColumnSpec("categorical", cardinality=8)}),
        "product": TableSpec(2500, {"category": ColumnSpec("categorical", cardinality=12)}),
    }
    database = Database(
        schema, DataGenerator(schema, specs, seed=3).generate(), noise_sigma=0.25, seed=3
    )
    queries = [
        Query(
            name=f"noisy_q{i}",
            table_refs=[
                TableRef("orders#1", "orders"),
                TableRef("customer#1", "customer"),
                TableRef("product#1", "product"),
            ],
            join_predicates=[
                JoinPredicate("orders#1", "customer_id", "customer#1", "id"),
                JoinPredicate("product#1", "order_id", "orders#1", "id"),
            ],
            filters=[FilterPredicate("customer#1", "region", "=", i % 8)],
        )
        for i in range(3)
    ]
    return Workload(name="noisy", database=database, queries=queries, max_aliases=2)


def signatures(results):
    return {name: result.trace_signature() for name, result in results.items()}


# --------------------------------------------------------------- serialization
class TestCrossProcessSerialization:
    def roundtrip(self, value):
        return pickle.loads(pickle.dumps(value))

    def test_jointree_roundtrip(self):
        plan = JoinTree.left_deep(["a", "b", "c"])
        copy = self.roundtrip(plan)
        assert copy.canonical() == plan.canonical()

    def test_plan_proposal_roundtrip(self, tiny_query):
        proposal = PlanProposal(
            plan=JoinTree.left_deep(["a", "b"]),
            timeout=12.5,
            source="bo",
            query=tiny_query,
            metadata={"latent": np.arange(4.0)},
        )
        copy = self.roundtrip(proposal)
        assert copy.plan.canonical() == proposal.plan.canonical()
        assert copy.timeout == proposal.timeout
        assert copy.query.name == tiny_query.name
        np.testing.assert_array_equal(copy.metadata["latent"], proposal.metadata["latent"])

    def test_outcome_and_result_roundtrip(self):
        outcome = ExecutionOutcome(latency=3.25, timed_out=True, timeout=3.25)
        assert self.roundtrip(outcome) == outcome
        execution = ExecutionResult(
            latency=1.5, timed_out=False, output_rows=7, nodes_executed=3,
            timeout=9.0, breakdown={"scan": 0.5, "join": 1.0},
        )
        copy = self.roundtrip(execution)
        assert copy == execution

    def test_budget_spec_roundtrip(self):
        budget = BudgetSpec(max_executions=42, time_budget=7.5)
        assert self.roundtrip(budget) == budget

    def test_database_roundtrip_rebuilds_replica(self, noisy_workload):
        database = noisy_workload.database
        replica = self.roundtrip(database)
        # The replica rebuilt stats/planner/executor from constructor inputs…
        assert set(replica.relations) == set(database.relations)
        assert replica.executor.noise_sigma == database.executor.noise_sigma
        assert replica.executor.seed == database.executor.seed
        # …and executes identically (noise included: stable digest seeding).
        query = noisy_workload.queries[0]
        plan = database.plan(query)
        assert replica.plan(query).canonical() == plan.canonical()
        assert replica.execute(query, plan).latency == database.execute(query, plan).latency


# -------------------------------------------------------------- stable seeding
class TestStableSeeding:
    def test_stable_digest_is_process_stable(self):
        # Pure function of its inputs — no PYTHONHASHSEED dependence.
        import hashlib

        expected = int.from_bytes(
            hashlib.sha256("\x1f".join([repr(7), repr("abc")]).encode()).digest(), "big"
        ) % (1 << 32)
        assert stable_digest(7, "abc", bits=32) == expected
        assert stable_digest("ab", "c") != stable_digest("a", "bc")
        assert 0 <= stable_digest("x", bits=16) < (1 << 16)

    def test_latency_noise_stable_across_executors(self, noisy_workload):
        database = noisy_workload.database
        query = noisy_workload.queries[0]
        plan = database.plan(query)
        twin = Executor(
            database.schema, database.relations, database.cost_params,
            noise_sigma=database.executor.noise_sigma, seed=database.executor.seed,
        )
        assert twin.execute(query, plan).latency == database.execute(query, plan).latency


# ------------------------------------------------------------------- backends
class TestBackends:
    def test_inline_backend_matches_direct_execution(self, noisy_workload):
        database = noisy_workload.database
        query = noisy_workload.queries[0]
        plan = database.plan(query)
        backend = InlineBackend(database)
        outcome = backend.submit(ExecutionRequest(query=query, plan=plan, timeout=600.0)).result()
        direct = database.execute(query, plan, timeout=600.0)
        assert outcome == ExecutionOutcome.from_execution(direct, 600.0)
        assert backend.capacity() == 1 and backend.healthy()

    def test_inline_backend_delivers_exceptions_via_future(self, noisy_workload):
        class Exploding:
            def execute(self, query, plan=None, timeout=None):
                raise RuntimeError("boom")

        future = InlineBackend(Exploding()).submit(
            ExecutionRequest(query=noisy_workload.queries[0], plan=JoinTree.left_deep(["a", "b"]))
        )
        with pytest.raises(RuntimeError, match="boom"):
            future.result()

    def test_thread_backend_executes(self, noisy_workload):
        database = noisy_workload.database
        query = noisy_workload.queries[0]
        plan = database.plan(query)
        backend = ThreadPoolBackend(database, max_workers=2)
        try:
            outcome = backend.submit(ExecutionRequest(query=query, plan=plan)).result()
            assert outcome.latency == database.execute(query, plan).latency
        finally:
            backend.close()
        assert not backend.healthy()
        with pytest.raises(OptimizationError):
            backend.submit(ExecutionRequest(query=query, plan=plan))

    def test_make_backend_from_config(self, noisy_workload):
        database = noisy_workload.database
        assert isinstance(
            make_backend(ExecutionServiceConfig(), database), InlineBackend
        )
        thread = make_backend(
            ExecutionServiceConfig(backend="thread", max_workers=3), database
        )
        assert isinstance(thread, ThreadPoolBackend) and thread.capacity() == 3
        routed = make_backend(
            ExecutionServiceConfig(backend="inline", replicas=2), database
        )
        assert isinstance(routed, MultiBackendRouter) and routed.capacity() == 2
        with pytest.raises(OptimizationError):
            ExecutionServiceConfig(backend="quantum")
        with pytest.raises(OptimizationError):
            ExecutionServiceConfig(policy="astrology")

    def test_process_backend_executes_with_noise(self, noisy_workload):
        # The worker process has a different hash salt; identical latencies
        # prove the sha256 seeding removed the PYTHONHASHSEED dependence.
        database = noisy_workload.database
        query = noisy_workload.queries[0]
        plan = database.plan(query)
        backend = ProcessPoolBackend(database, max_workers=1, queries=noisy_workload.queries)
        try:
            outcome = backend.submit(ExecutionRequest(query=query, plan=plan)).result()
            assert outcome.latency == database.execute(query, plan).latency
        finally:
            backend.close()


# ------------------------------------------------------------- warm once
def _probe_worker(plans: dict, hold: float) -> tuple:
    """Runs inside a pool worker: the cache counters it holds on arrival and
    whether executing each default plan hits its outcome cache.  ``hold``
    keeps this worker busy so the pool hands the next probe to the other."""
    before = _WORKER_STATE["database"].execution_cache.counters.snapshot()
    hits = {
        name: _execute_in_worker(name, plan, Database.WARMUP_TIMEOUT).cache.outcome_hit
        for name, plan in plans.items()
    }
    time.sleep(hold)
    return os.getpid(), before, hits


def _exit_worker() -> None:
    os._exit(1)


def _probe_both_workers(backend: ProcessPoolBackend, plans: dict) -> dict:
    """``{worker pid: (counters on arrival, first-execution hits)}`` of a 2-worker pool."""
    reports: dict = {}
    for _ in range(5):
        pool = backend._ensure_pool()
        for task in [pool.submit(_probe_worker, plans, 0.3) for _ in range(2)]:
            pid, before, hits = task.result(timeout=60)
            reports.setdefault(pid, (before, hits))
        if len(reports) == 2:
            return reports
    raise AssertionError(f"probes reached {len(reports)} of 2 workers")


@pytest.mark.slow
class TestProcessPoolWarmsOnce:
    """Forked workers inherit one coordinator-side warm-up; spawned ones warm
    their own replica; ``warmup=False`` leaves everything cold."""

    @pytest.fixture
    def cold(self, noisy_workload):
        # A snapshot shares the relations and starts with an empty cache.
        database = noisy_workload.database.snapshot()
        queries = noisy_workload.queries
        plans = {query.name: database.plan(query) for query in queries}
        assert database.execution_cache.num_outcomes == 0
        return database, queries, plans

    def test_fork_warms_the_coordinator_and_no_worker(self, cold):
        database, queries, plans = cold
        cache = database.execution_cache
        backend = ProcessPoolBackend(
            database, max_workers=2, queries=queries, start_method="fork"
        )
        try:
            assert cache.num_outcomes == 0  # the pool is lazy
            reports = _probe_both_workers(backend, plans)
            # One warm-up, here: a miss and a stored outcome per default plan.
            assert cache.num_outcomes == len(queries)
            warm = cache.counters.snapshot()
            assert (warm["outcome_hits"], warm["outcome_misses"]) == (0, len(queries))
            assert os.getpid() not in reports
            for before, hits in reports.values():
                # The worker arrived with exactly the coordinator's cache — it
                # looked nothing up and executed nothing before the probe —
                # and its first execution of every default plan replays.
                assert before == warm
                assert hits == {query.name: True for query in queries}

            # Break the pool; its replacement forks from the warm coordinator.
            with pytest.raises(BrokenExecutor):
                backend._ensure_pool().submit(_exit_worker).result(timeout=60)
            assert not backend.healthy()
            backend.rebuild()
            reports = _probe_both_workers(backend, plans)
            assert cache.counters.snapshot() == warm
            for before, hits in reports.values():
                assert before == warm
                assert all(hits.values())
        finally:
            backend.close()

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(), reason="no spawn start method"
    )
    def test_spawned_workers_warm_their_own_replica(self, cold):
        database, queries, plans = cold
        backend = ProcessPoolBackend(
            database, max_workers=2, queries=queries, start_method="spawn"
        )
        try:
            reports = _probe_both_workers(backend, plans)
        finally:
            backend.close()
        # Nothing ran here; each worker paid its own misses before serving.
        assert database.execution_cache.num_outcomes == 0
        assert database.execution_cache.counters.snapshot()["outcome_misses"] == 0
        for before, hits in reports.values():
            assert (before["outcome_hits"], before["outcome_misses"]) == (0, len(queries))
            assert hits == {query.name: True for query in queries}

    def test_warmup_off_leaves_coordinator_and_workers_cold(self, cold):
        database, queries, plans = cold
        backend = ProcessPoolBackend(
            database, max_workers=2, queries=queries, start_method="fork", warmup=False
        )
        try:
            reports = _probe_both_workers(backend, plans)
        finally:
            backend.close()
        assert database.execution_cache.num_outcomes == 0
        for before, hits in reports.values():
            assert (before["outcome_hits"], before["outcome_misses"]) == (0, 0)
            assert hits == {query.name: False for query in queries}


# ------------------------------------------------------- trace determinism
@pytest.mark.slow
class TestThreadsShareOneCachedDatabase:
    def test_concurrent_overlapping_plans_match_sequential(self, tiny_database, tiny_query):
        """Four threads over one cached database, plans that share subtrees.

        A join output is deferred only while one execution owns it; the memo
        hands out plain arrays.  If a deferred intermediate ever reached two
        threads, one would read a half-written position set and a latency,
        a censoring flag or a node count would differ from the sequential run.
        """
        import sys

        from repro.plans.sampling import random_join_trees

        plans = random_join_trees(tiny_query, 6, seed=3)
        plans = plans + plans[:3] + [plan.with_operators(plan.operators()[::-1]) for plan in plans]
        sequential_db = Database(
            tiny_database.schema, tiny_database.relations, seed=7, exec_cache=False
        )
        latencies = [sequential_db.execute(tiny_query, plan, timeout=600.0).latency for plan in plans]
        timeouts = [600.0 if i % 3 else latency * 0.6 for i, latency in enumerate(latencies)]
        expected = [
            ExecutionOutcome.from_execution(
                sequential_db.execute(tiny_query, plan, timeout=timeout), timeout, proposal_id=i
            )
            for i, (plan, timeout) in enumerate(zip(plans, timeouts))
        ]
        assert any(outcome.timed_out for outcome in expected)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                database = Database(
                    tiny_database.schema, tiny_database.relations, seed=7, exec_cache=True
                )
                backend = ThreadPoolBackend(database, max_workers=4)
                try:
                    futures = [
                        backend.submit(ExecutionRequest(
                            query=tiny_query, plan=plan, timeout=timeout, proposal_id=i
                        ))
                        for i, (plan, timeout) in enumerate(zip(plans, timeouts))
                    ]
                    outcomes = [future.result(timeout=60) for future in futures]
                finally:
                    backend.close()
                for got, want in zip(outcomes, expected):
                    assert (got.latency, got.timed_out, got.timeout, got.proposal_id) == (
                        want.latency, want.timed_out, want.timeout, want.proposal_id
                    )
                cache = database.execution_cache
                for key in cache.subplan_keys():
                    stored = cache._subplans[key].intermediate
                    assert stored is None or all(
                        type(value) is np.ndarray for value in stored.positions.values()
                    )
        finally:
            sys.setswitchinterval(interval)


class TestProcessPoolDeterminism:
    def test_random_sequential_equals_process_pool(self, noisy_workload):
        budget = BudgetSpec(max_executions=6)
        sequential = WorkloadSession(noisy_workload, budget=budget, seed=0).run("random")
        with WorkloadSession(
            noisy_workload, budget=budget, seed=0, backend="process", max_workers=2
        ) as session:
            pooled = session.run("random")
        assert signatures(sequential) == signatures(pooled)

    def test_bayesqo_sequential_equals_process_pool(self, tiny_workload, tiny_schema_model):
        from repro.core import BayesQOConfig

        budget = BudgetSpec(max_executions=6)
        config = BayesQOConfig(max_executions=6, num_candidates=32, seed=0)
        sequential = WorkloadSession(
            tiny_workload, budget=budget, seed=0,
            schema_model=tiny_schema_model, bayes_config=config,
        ).run("bayesqo")
        with WorkloadSession(
            tiny_workload, budget=budget, seed=0,
            schema_model=tiny_schema_model, bayes_config=config,
            backend="process", max_workers=2,
        ) as session:
            pooled = session.run("bayesqo")
        assert signatures(sequential) == signatures(pooled)

    def test_budget_aware_policy_preserves_traces(self, tiny_workload, tiny_schema_model):
        from repro.core import BayesQOConfig

        budget = BudgetSpec(max_executions=6)
        config = BayesQOConfig(max_executions=6, num_candidates=32, seed=0)
        round_robin = WorkloadSession(
            tiny_workload, budget=budget, seed=0,
            schema_model=tiny_schema_model, bayes_config=config,
        ).run("bayesqo")
        with WorkloadSession(
            tiny_workload, budget=budget, seed=0,
            schema_model=tiny_schema_model, bayes_config=config,
            max_workers=2, policy="budget_aware", interleave=True,
        ) as session:
            prioritized = session.run("bayesqo")
        assert signatures(round_robin) == signatures(prioritized)


# --------------------------------------------------------------------- router
class _ScriptedBackend:
    """Backend double: scripted outcomes/failures, manual future resolution."""

    def __init__(self, name, capacity=2, fail_with=None):
        self.name = name
        self._capacity = capacity
        self._fail_with = fail_with
        self.submitted = []

    def capacity(self):
        return self._capacity

    def submit(self, request):
        self.submitted.append(request)
        future = Future()
        if self._fail_with is not None:
            future.set_exception(self._fail_with)
        else:
            future.set_result(ExecutionOutcome(latency=1.0))
        return future

    def healthy(self):
        return True

    def close(self):
        pass


def _request(query):
    return ExecutionRequest(query=query, plan=JoinTree.left_deep(["a", "b"]))


class TestMultiBackendRouter:
    def test_routes_to_least_loaded_member(self, tiny_query):
        left, right = _ScriptedBackend("left"), _ScriptedBackend("right")
        router = MultiBackendRouter([left, right])
        for _ in range(4):
            assert router.submit(_request(tiny_query)).result().latency == 1.0
        # Scripted futures resolve synchronously, so occupancy is always zero
        # at choice time and the tie-break sends everything to the first
        # member — deterministic least-loaded routing.
        assert len(left.submitted) == 4 and len(right.submitted) == 0
        statuses = {status.name: status for status in router.statuses()}
        assert statuses["left[0]"].completed == 4
        assert statuses["left[0]"].occupancy == 0
        assert router.capacity() == 4 and router.healthy()

    def test_broken_member_is_retired_and_request_retried(self, tiny_query):
        broken = _ScriptedBackend("broken", fail_with=BrokenExecutor("pool died"))
        spare = _ScriptedBackend("spare")
        router = MultiBackendRouter([broken, spare], max_failures=1)
        outcome = router.submit(_request(tiny_query)).result()
        assert outcome.latency == 1.0
        assert len(broken.submitted) == 1 and len(spare.submitted) == 1
        statuses = {status.name: status for status in router.statuses()}
        assert not statuses["broken[0]"].healthy
        assert statuses["broken[0]"].failures == 1
        # Subsequent submissions skip the retired member entirely.
        router.submit(_request(tiny_query)).result()
        assert len(broken.submitted) == 1
        assert router.capacity() == spare.capacity()

    def test_execution_errors_propagate_without_retry(self, tiny_query):
        failing = _ScriptedBackend("failing", fail_with=RuntimeError("bad plan"))
        spare = _ScriptedBackend("spare")
        router = MultiBackendRouter([failing, spare])
        with pytest.raises(RuntimeError, match="bad plan"):
            router.submit(_request(tiny_query)).result()
        # A genuine execution error is not infrastructure: nothing was
        # retried, and the member's health/failure budget is untouched.
        assert len(spare.submitted) == 0
        status = router.statuses()[0]
        assert status.healthy and status.failures == 0 and status.occupancy == 0

    def test_all_members_broken_reports_unavailable(self, tiny_query):
        broken = _ScriptedBackend("broken", fail_with=BrokenExecutor("dead"))
        router = MultiBackendRouter([broken], max_failures=1)
        with pytest.raises(OptimizationError, match="no healthy execution backend"):
            router.submit(_request(tiny_query)).result()

    def test_router_rejects_empty_membership(self):
        with pytest.raises(OptimizationError):
            MultiBackendRouter([])


# ------------------------------------------------------------------- policies
def _state(name, latencies, budget=None):
    result = OptimizationResult(query_name=name, technique="X")
    for latency in latencies:
        result.record(JoinTree.left_deep(["a", "b"]), latency, censored=False, timeout=None)
    return OptimizerState(
        query=Query(name=name, table_refs=[TableRef("a#1", "a")], join_predicates=[]),
        result=result,
        budget=budget or BudgetSpec(max_executions=10),
    )


class TestSchedulingPolicies:
    def test_round_robin_is_fifo(self):
        states = [_state("a", [1.0]), _state("b", [2.0])]
        assert RoundRobin().select(states) == 0
        with pytest.raises(OptimizationError):
            RoundRobin().select([])

    def test_budget_aware_uses_predictor(self):
        class Predictor:
            def predicted_improvement(self, state):
                return {"a": 0.1, "b": 5.0, "c": 1.0}[state.query.name]

        states = [_state("a", [1.0]), _state("b", [1.0]), _state("c", [1.0])]
        assert BudgetAwarePriority().select(states, Predictor()) == 1

    def test_budget_aware_weights_by_remaining_budget(self):
        class Predictor:
            def predicted_improvement(self, state):
                return 1.0

        # Same headroom, but "spent" has burned 8 of 10 executions: the
        # fresh state gets the slot.
        spent = _state("spent", [1.0] * 8)
        fresh = _state("fresh", [1.0])
        assert BudgetAwarePriority().select([spent, fresh], Predictor()) == 1

    def test_budget_aware_fallback_prefers_worst_incumbent(self):
        states = [_state("fast", [0.5]), _state("slow", [50.0])]
        assert BudgetAwarePriority().select(states, None) == 1
        # A state with no successful plan yet outranks everything.
        states.append(_state("unknown", []))
        assert BudgetAwarePriority().select(states, None) == 2

    def test_make_policy(self):
        assert isinstance(make_policy("round_robin"), RoundRobin)
        assert isinstance(make_policy("budget_aware"), BudgetAwarePriority)
        with pytest.raises(OptimizationError):
            make_policy("astrology")

    def test_bayesqo_predicted_improvement_shape(self, tiny_workload, tiny_schema_model):
        from repro.core import BayesQO, BayesQOConfig
        from repro.core.protocol import ExecutionOutcome as Outcome

        optimizer = BayesQO(
            tiny_workload.database, tiny_schema_model,
            config=BayesQOConfig(max_executions=6, num_candidates=32, seed=0),
        )
        state = optimizer.start(tiny_workload.queries[0], budget=BudgetSpec(max_executions=6))
        # Still initializing: infinite priority.
        assert optimizer.predicted_improvement(state) == float("inf")
        while state.init_queue:
            proposal = optimizer.suggest(state)
            execution = tiny_workload.database.execute(
                proposal.query, proposal.plan, timeout=proposal.timeout
            )
            optimizer.observe(state, Outcome.from_execution(execution, proposal.timeout))
        score = optimizer.predicted_improvement(state)
        assert np.isfinite(score) and score >= 0.0
