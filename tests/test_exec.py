"""Execution-service suite: serialization and backends.

Covers the cross-process contract (everything that crosses a backend boundary
round-trips through pickle), the stable sha256 seeding that makes worker
processes observe identical latencies, backend trace determinism
(sequential == process-pool for Random and BayesQO), and how an
``ExecutionServiceConfig`` composes backends.  The lease coordinator's
occupancy/health bookkeeping is covered in ``tests/test_fabric.py``.
"""

from __future__ import annotations

import dataclasses
import importlib
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from repro.baselines.random_search import RandomSearch
from repro.core.config import ExecutionServiceConfig
from repro.core.optimizer import BayesQO
from repro.core.protocol import BudgetSpec, ExecutionOutcome, PlanProposal, drive, inline_submit
from repro.core.registry import TechniqueSpec, register_technique
from repro.db.catalog import Column, ForeignKey, Schema, Table
from repro.db.datagen import ColumnSpec, DataGenerator, TableSpec
from repro.db.engine import Database
from repro.db.executor import ExecutionResult, Executor
from repro.db.query import FilterPredicate, JoinPredicate, Query, TableRef
from repro.exceptions import OptimizationError
from repro.exec import (
    ExecutionRequest,
    FabricBackend,
    InlineBackend,
    ProcessPoolBackend,
    ThreadPoolBackend,
    make_backend,
)
from repro.exec import process_pool
from repro.exec.backend import query_payload
from repro.exec.process_pool import MAX_REBUILDS, _WORKER_STATE, _execute_batch_in_worker
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

    def test_a_thread_backend_makes_one_pool_on_its_first_submit(self, noisy_workload):
        database = noisy_workload.database
        query = noisy_workload.queries[0]
        request = ExecutionRequest(query=query, plan=database.plan(query))
        idle = ThreadPoolBackend(database, max_workers=2)
        idle.close()
        assert idle._pool is None  # closing a backend that never ran makes no pool
        backend = ThreadPoolBackend(database, max_workers=2)
        try:
            assert backend._pool is None
            # A lone submit is a one-request batch on the same pool.
            lone = backend.submit(request).result(timeout=30.0)
            pool = backend._pool
            batch = [future.result(timeout=30.0) for future in backend.submit_batch([request] * 2)]
            assert pool is not None and backend._pool is pool
        finally:
            backend.close()
        assert backend._pool is None
        expected = database.execute(query, request.plan).latency
        assert [lone.latency] + [outcome.latency for outcome in batch] == [expected] * 3

    def test_a_cancelled_future_is_left_alone_while_its_pool_task_runs(self, noisy_workload):
        # A lone request and a batch are each one pool task behind futures of
        # their own: cancelling a queued request's future does not withdraw
        # the task, which runs; its siblings still get their outcomes and the
        # cancelled futures stay cancelled.
        database = noisy_workload.database
        query = noisy_workload.queries[0]
        request = ExecutionRequest(query=query, plan=database.plan(query))
        gate = threading.Event()
        executed = []

        class _Gated:
            def execute(self, *args, **kwargs):
                executed.append(args[0].name)
                gate.wait(10.0)
                return database.execute(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(database, name)

        backend = ThreadPoolBackend(_Gated(), max_workers=1)
        try:
            first = backend.submit(request)
            lone = backend.submit(request)
            kept, dropped = backend.submit_batch([request, request])
            assert lone.cancel() and dropped.cancel()
            gate.set()
            expected = first.result(timeout=30.0).latency
            assert kept.result(timeout=30.0).latency == expected
            deadline = time.monotonic() + 10.0
            while len(executed) < 4:
                assert time.monotonic() < deadline
                time.sleep(0.001)
        finally:
            backend.close()
        assert lone.cancelled() and dropped.cancelled()

    def test_make_backend_from_config(self, noisy_workload):
        database = noisy_workload.database
        assert isinstance(
            make_backend(ExecutionServiceConfig(), database), InlineBackend
        )
        thread = make_backend(
            ExecutionServiceConfig(backend="thread", max_workers=3), database
        )
        assert isinstance(thread, ThreadPoolBackend) and thread.capacity() == 3
        supervised = make_backend(
            ExecutionServiceConfig(backend="thread", max_workers=2, supervised=True), database
        )
        try:
            # Supervision puts the lease coordinator, with its inline
            # fallback, in front of the one backend.
            assert isinstance(supervised, FabricBackend) and supervised.capacity() == 2
            assert isinstance(supervised.member, ThreadPoolBackend)
            assert isinstance(supervised.fallback, InlineBackend)
        finally:
            supervised.close()
        with pytest.raises(TypeError, match="replicas"):
            ExecutionServiceConfig(replicas=2)
        for backend in ("quantum", "fabric"):
            with pytest.raises(OptimizationError):
                ExecutionServiceConfig(backend=backend)

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
        name: _execute_batch_in_worker(name, [(plan, Database.WARMUP_TIMEOUT, None)])[0]
        .cache.outcome_hit
        for name, plan in plans.items()
    }
    time.sleep(hold)
    return os.getpid(), before, hits


def _exit_worker() -> None:
    os._exit(1)


def _until_replaced(backend: ProcessPoolBackend, replacements: int) -> None:
    deadline = time.monotonic() + 60
    while backend.replacements < replacements:
        assert time.monotonic() < deadline, "the dead worker was never replaced"
        time.sleep(0.01)


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

            # A worker dies; its replacement forks from the warm coordinator.
            with pytest.raises(BrokenExecutor):
                backend._ensure_pool().submit(_exit_worker).result(timeout=60)
            assert backend.healthy()
            _until_replaced(backend, 1)
            replaced = _probe_both_workers(backend, plans)
            [replacement] = set(replaced) - set(reports)
            # It arrives with the coordinator's cache, as the first two did.
            assert cache.counters.snapshot() == warm
            assert replaced[replacement] == (warm, {query.name: True for query in queries})
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
            # A worker dies; its spawned replacement warms its own replica.
            with pytest.raises(BrokenExecutor):
                backend._ensure_pool().submit(_exit_worker).result(timeout=60)
            assert backend.healthy()
            _until_replaced(backend, 1)
            replaced = _probe_both_workers(backend, plans)
        finally:
            backend.close()
        [replacement] = set(replaced) - set(reports)
        # Nothing ran here; each worker, the replacement too, paid its own
        # misses before serving.
        assert database.execution_cache.num_outcomes == 0
        assert database.execution_cache.counters.snapshot()["outcome_misses"] == 0
        for before, hits in [*reports.values(), replaced[replacement]]:
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


# ------------------------------------------------------------- the transport
def _touch_and_sleep(path: str, seconds: float) -> None:
    """Runs inside a pool worker: say it started, then hold the worker."""
    open(path, "w").close()
    time.sleep(seconds)


def _running(pool, path, seconds: float):
    """Submit :func:`_touch_and_sleep` and return its future once it runs."""
    future = pool.submit(_touch_and_sleep, str(path), seconds)
    deadline = time.monotonic() + 60
    while not path.exists():
        assert time.monotonic() < deadline, "the task never started"
        time.sleep(0.01)
    return future


def _readers() -> list:
    return [thread for thread in threading.enumerate() if thread.name == "process-pool-reader"]


@pytest.mark.slow
class TestPipeTransport:
    """One pipe per worker: death, hangs, cancellation and clean shutdown."""

    @pytest.fixture
    def database(self, noisy_workload):
        return noisy_workload.database.snapshot()

    def test_a_worker_killed_mid_task_fails_only_its_task(self, database, tmp_path):
        backend = ProcessPoolBackend(database, max_workers=1, warmup=False)
        try:
            pool = backend._ensure_pool()
            pid = pool.submit(os.getpid).result(timeout=60)
            running = _running(pool, tmp_path / "started", 600.0)
            queued = [pool.submit(os.getpid) for _ in range(2)]
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(BrokenExecutor):
                running.result(timeout=60)
            # The queued tasks run on the replacement, which keeps serving.
            [replacement] = {future.result(timeout=60) for future in queued}
            assert replacement != pid
            assert backend.healthy() and backend.replacements == 1
            assert pool.submit(os.getpid).result(timeout=60) == replacement
        finally:
            backend.close()

    def test_a_worker_dead_past_its_rebuilds_breaks_the_pool(self, database, tmp_path):
        backend = ProcessPoolBackend(database, max_workers=1, warmup=False)
        try:
            pool = backend._ensure_pool()
            for died in range(MAX_REBUILDS):
                with pytest.raises(BrokenExecutor):
                    pool.submit(_exit_worker).result(timeout=60)
                _until_replaced(backend, died + 1)
                assert backend.healthy()
            running = _running(pool, tmp_path / "started", 600.0)
            queued = [pool.submit(os.getpid) for _ in range(2)]
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            for future in [running, *queued]:
                with pytest.raises(BrokenExecutor):
                    future.result(timeout=60)
            assert not backend.healthy() and backend.replacements == MAX_REBUILDS
            with pytest.raises(BrokenExecutor):
                pool.submit(os.getpid)
        finally:
            backend.close()

    def test_deaths_among_concurrent_submitters_fail_only_their_own_tasks(self, database):
        # More workers than cores and a short switch interval: replacements
        # race submissions, replies and each other.
        backend = ProcessPoolBackend(database, max_workers=3, warmup=False)
        pool = backend._ensure_pool()
        futures: dict = {}

        def submit(thread):
            for i in range(25):
                dies = (thread, i) in {(0, 5), (2, 17)}
                futures[thread, i] = pool.submit(_exit_worker if dies else os.getpid)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submit, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            failed = []
            for key, future in futures.items():
                try:
                    future.result(timeout=60)
                except BrokenExecutor:
                    failed.append(key)
            _until_replaced(backend, 2)
        finally:
            sys.setswitchinterval(interval)
            backend.close()
        assert len(futures) == 100 and sorted(failed) == [(0, 5), (2, 17)]
        assert backend.replacements == 2 and not pool.broken

    def test_a_killed_hung_worker_and_close_stop_within_a_bound(
        self, database, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(process_pool, "CLOSE_GRACE_S", 0.5)
        children = set(multiprocessing.active_children())
        backend = ProcessPoolBackend(database, max_workers=1, warmup=False)
        try:
            pool = backend._ensure_pool()
            hung = _running(pool, tmp_path / "first", 600.0)
            started = time.monotonic()
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            with pytest.raises(BrokenExecutor):
                hung.result(timeout=10.0)
            assert time.monotonic() - started < 10.0
            assert backend.healthy()
            hung = _running(pool, tmp_path / "second", 600.0)
            started = time.monotonic()
            backend.close()
            assert time.monotonic() - started < 10.0
            with pytest.raises(BrokenExecutor):
                hung.result(timeout=0)
            assert set(multiprocessing.active_children()) <= children
        finally:
            backend.close()

    def test_a_close_racing_a_replacement_leaves_no_worker_and_no_reader(
        self, database, monkeypatch
    ):
        children = set(multiprocessing.active_children())
        readers = _readers()
        replacing = threading.Event()
        start = process_pool._PipePool._start

        def slow_start(pool, rebuilds):
            if rebuilds:
                # The reader is about to start a replacement: let close()
                # begin shutting the pool down first.
                replacing.set()
                deadline = time.monotonic() + 60
                while not pool._stopping:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            return start(pool, rebuilds)

        monkeypatch.setattr(process_pool._PipePool, "_start", slow_start)
        backend = ProcessPoolBackend(database, max_workers=2, warmup=False)
        pool = backend._ensure_pool()
        dying = pool.submit(_exit_worker)
        assert replacing.wait(60)
        backend.close()
        with pytest.raises(BrokenExecutor):
            dying.result(timeout=0)
        assert set(multiprocessing.active_children()) <= children
        assert _readers() == readers
        assert backend.replacements == 1 and not pool._reader.is_alive()

    def test_a_queued_future_cancelled_before_dispatch_never_runs(self, database, tmp_path):
        backend = ProcessPoolBackend(database, max_workers=1, warmup=False)
        try:
            pool = backend._ensure_pool()
            busy = _running(pool, tmp_path / "started", 1.0)
            marker = tmp_path / "ran"
            cancelled = pool.submit(_touch_and_sleep, str(marker), 0.0)
            assert cancelled.cancel()
            after = pool.submit(os.getpid)
            busy.result(timeout=60)
            after.result(timeout=60)
            assert cancelled.cancelled()
            assert not marker.exists()
        finally:
            backend.close()

    def test_close_leaves_no_worker_and_no_reader_thread(self, database):
        children = set(multiprocessing.active_children())
        readers = _readers()
        backend = ProcessPoolBackend(database, max_workers=2, warmup=False)
        pool = backend._ensure_pool()
        assert {future.result(timeout=60) for future in [pool.submit(os.getpid) for _ in range(6)]}
        assert len(_readers()) == len(readers) + 1
        backend.close()
        assert set(multiprocessing.active_children()) <= children
        assert _readers() == readers
        # Idle workers were told to stop, not killed after the grace period.
        assert [worker.process.exitcode for worker in pool._workers] == [0, 0]
        with pytest.raises(OptimizationError):
            backend.submit(ExecutionRequest(query=None, plan=None))  # type: ignore[arg-type]

    def test_a_same_named_variant_runs_itself_not_the_registered_query(self, database, noisy_workload):
        # Only the name used to decide what was sent: a variant of a
        # registered query went by name and the worker ran the registered one.
        registered = noisy_workload.queries[0]
        variant = dataclasses.replace(registered, filters=())
        plan = database.plan(variant)
        want = database.execute(variant, plan, timeout=600.0)
        assert want.latency != database.execute(registered, plan, timeout=600.0).latency
        backend = ProcessPoolBackend(database, max_workers=1, queries=[registered], warmup=False)
        try:
            request = ExecutionRequest(query=variant, plan=plan, timeout=600.0)
            assert backend.submit(request).result(timeout=60).latency == want.latency
            batch = backend.submit_batch([request, dataclasses.replace(request, proposal_id=1)])
            assert [future.result(timeout=60).latency for future in batch] == [want.latency] * 2
        finally:
            backend.close()
        # The one rule the pool sends by.
        assert query_payload(variant, {registered.name: registered}) is variant
        assert query_payload(registered, {registered.name: registered}) == registered.name
        twin = dataclasses.replace(registered)  # same content, another object
        assert query_payload(twin, {registered.name: registered}) == registered.name

    def test_warmup_after_start_searches_no_plan(
        self, tiny_workload, tiny_schema_model, monkeypatch
    ):
        from repro.core import BayesQO, BayesQOConfig
        from repro.db.optimizer import PlanOptimizer

        database = tiny_workload.database.snapshot()
        optimizer = BayesQO(
            database, tiny_schema_model, config=BayesQOConfig(max_executions=4, seed=0)
        )
        for query in tiny_workload.queries:
            optimizer.start(query)
        searches = []
        for name in ("_dp", "_greedy"):
            search = getattr(PlanOptimizer, name)
            monkeypatch.setattr(
                PlanOptimizer, name,
                lambda self, tables, classes, search=search: searches.append(classes)
                or search(self, tables, classes),
            )
        backend = ProcessPoolBackend(
            database, max_workers=1, queries=tiny_workload.queries, start_method="fork"
        )
        try:
            backend._ensure_pool()
        finally:
            backend.close()
        assert database.execution_cache.num_outcomes == len(tiny_workload.queries)  # it warmed
        assert searches == []


# ------------------------------------------------------- trace determinism
@pytest.mark.slow
class TestThreadsShareOneCachedDatabase:
    def test_concurrent_overlapping_plans_match_sequential(self, tiny_database, tiny_query):
        """Four threads over one cached database, plans that share subtrees.

        The memo hands out plain arrays, or a blow-up join's pairs still
        deferred.  If two threads reading one entry ever saw a half-written
        position set, a latency, a censoring flag or a node count would
        differ from the sequential run.
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
                        len(stored.positions[alias]) == stored.count
                        for alias in list(stored.positions)
                    )
        finally:
            sys.setswitchinterval(interval)

    def test_a_thread_pool_over_deferred_memo_entries_gives_the_sequential_trace(
        self, job_workload_small, monkeypatch
    ):
        """Random JOB plans and their root-swapped siblings (both subtrees
        shared) on a :class:`ThreadPoolBackend` over one cached database: the
        memo holds blow-up joins deferred, the threads gather them as they
        read them, and every outcome is the sequential one.

        Deferred entries are counted as the memo stores them: later plans
        read and gather them, so how many are still deferred once the run
        ends depends on how the threads interleave."""
        import sys

        from repro.db.executor import _Gather
        from repro.db.plan_cache import ExecutionCache
        from repro.plans.sampling import random_join_trees

        source = job_workload_small.database
        query = next(q for q in job_workload_small.queries if q.name == "JOB_2a")
        plans = random_join_trees(query, 8, seed=3)
        plans += [JoinTree.join(plan.right, plan.left, plan.op) for plan in plans]
        sequential = Database(source.schema, source.relations, seed=7, exec_cache=False)
        expected = [
            ExecutionOutcome.from_execution(
                sequential.execute(query, plan, timeout=600.0), 600.0, proposal_id=i
            )
            for i, plan in enumerate(plans)
        ]
        stored_deferred = []
        put_subplan = ExecutionCache.put_subplan

        def counting_put_subplan(cache, key, intermediate, events):
            put_subplan(cache, key, intermediate, events)
            entry = cache._subplans.get(key)
            if entry is not None and entry.intermediate is intermediate and any(
                isinstance(value, _Gather) for value in dict.values(intermediate.positions)
            ):
                stored_deferred.append(key)

        monkeypatch.setattr(ExecutionCache, "put_subplan", counting_put_subplan)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                stored_deferred.clear()
                database = Database(source.schema, source.relations, seed=7, exec_cache=True)
                backend = ThreadPoolBackend(database, max_workers=4)
                try:
                    futures = [
                        backend.submit(ExecutionRequest(
                            query=query, plan=plan, timeout=600.0, proposal_id=i
                        ))
                        for i, plan in enumerate(plans)
                    ]
                    outcomes = [future.result(timeout=60) for future in futures]
                finally:
                    backend.close()
                for got, want in zip(outcomes, expected):
                    assert (got.latency, got.timed_out, got.proposal_id) == (
                        want.latency, want.timed_out, want.proposal_id
                    )
                assert stored_deferred  # the run stored deferred entries
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


# ------------------------------------------------------------ one claim order
@pytest.mark.parametrize(
    "removed, error",
    [
        (lambda workload: ExecutionServiceConfig(policy="budget_aware"), TypeError),
        (lambda workload: WorkloadSession(workload, policy="budget_aware"), TypeError),
        (
            lambda workload: drive(
                RandomSearch(workload.database), [], inline_submit(workload.database),
                select=lambda ready: 0,
            ),
            TypeError,
        ),
        (lambda workload: register_technique("scored", predicts_improvement=True), TypeError),
        (lambda workload: importlib.import_module("repro.exec.policy"), ImportError),
        (lambda workload: BayesQO.predicted_improvement, AttributeError),
        (lambda workload: importlib.import_module("repro.exec").make_policy, AttributeError),
        (
            lambda workload: importlib.import_module("repro.core.config").SCHEDULING_POLICIES,
            AttributeError,
        ),
        (
            lambda workload: TechniqueSpec("scored", RandomSearch, predicts_improvement=True),
            TypeError,
        ),
    ],
    ids=["config_policy", "session_policy", "drive_select", "registry_flag", "policy_module",
         "bayesqo_score", "exec_make_policy", "config_policy_names", "technique_spec_flag"],
)
def test_the_scheduling_policy_layer_is_gone(removed, error, tiny_workload):
    # Ready states claim free slots FIFO; budgets are per state, so no other
    # order could reach a trace.
    with pytest.raises(error):
        removed(tiny_workload)
