"""Fault-tolerance suite: injection, supervision, probation, checkpoint/resume.

Covers the deterministic fault-injection harness (seeded schedules, crash /
transient short-circuit, hang / slow delayed delivery), the supervisor's
retry-with-backoff / watchdog / rebuild / degradation paths, the router's
probation and half-open re-probe recovery, remote-traceback preservation
across the process boundary, and the session-level checkpoint/resume
guarantee: a killed run resumed from its checkpoint finishes with traces
bit-for-bit identical to an uninterrupted run.
"""

from __future__ import annotations

import pickle
import threading
import time
from concurrent.futures import BrokenExecutor, Future

import pytest

from repro.core.config import BayesQOConfig, ExecutionServiceConfig
from repro.core.protocol import BudgetSpec, ExecutionOutcome
from repro.core.result import OptimizationResult
from repro.db.plan_cache import ExecutionCache
from repro.db.query import Query, TableRef
from repro.exceptions import OptimizationError
from repro.exec import (
    BudgetAwarePriority,
    ExecutionRequest,
    FaultInjectionBackend,
    FaultInjectionConfig,
    HangTimeout,
    InjectedTransientError,
    InjectedWorkerCrash,
    InlineBackend,
    MultiBackendRouter,
    ProcessPoolBackend,
    RemoteExecutionError,
    SupervisedBackend,
    TransientBackendError,
    is_infra_failure,
    make_backend,
)
from repro.exec.router import BackendUnavailableError
from repro.harness import CheckpointManager, SessionCheckpoint, WorkloadSession
from repro.plans.jointree import JoinTree


# ------------------------------------------------------------------ doubles
class _ScriptedBackend:
    """Backend double: scripted per-submission outcomes, counted submissions."""

    def __init__(self, name="scripted", capacity=2, script=None):
        self.name = name
        self._capacity = capacity
        #: Per-submission script entries: an exception instance to fail with,
        #: or None for a clean outcome.  Exhausted script -> clean outcomes.
        self._script = list(script or [])
        self.submitted = []

    def capacity(self):
        return self._capacity

    def submit(self, request):
        self.submitted.append(request)
        future = Future()
        entry = self._script.pop(0) if self._script else None
        if entry is not None:
            future.set_exception(entry)
        else:
            future.set_result(ExecutionOutcome(latency=1.0))
        return future

    def healthy(self):
        return True

    def close(self):
        pass


class _RebuildableBackend(_ScriptedBackend):
    """Scripted backend that goes unhealthy on failure until rebuilt."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rebuilds = 0
        self._broken = False

    def submit(self, request):
        future = super().submit(request)
        if future.exception() is not None and isinstance(future.exception(), BrokenExecutor):
            self._broken = True
        return future

    def healthy(self):
        return not self._broken

    def rebuild(self):
        self.rebuilds += 1
        self._broken = False


class _NeverResolves:
    """Backend whose futures never complete — a true hang."""

    name = "black-hole"

    def __init__(self):
        self.submitted = []

    def capacity(self):
        return 1

    def submit(self, request):
        self.submitted.append(request)
        return Future()

    def healthy(self):
        return True

    def close(self):
        pass


def _query(name="faulty_q"):
    return Query(name=name, table_refs=[TableRef("a#1", "a")], join_predicates=[])


def _request(name="faulty_q", plan=None):
    return ExecutionRequest(query=_query(name), plan=plan or JoinTree.left_deep(["a", "b"]))


def signatures(results):
    return {name: result.trace_signature() for name, result in results.items()}


# ------------------------------------------------------------------ fault schedule
class TestFaultInjectionConfig:
    def test_rates_validated(self):
        with pytest.raises(OptimizationError, match="crash_rate"):
            FaultInjectionConfig(crash_rate=1.5)
        with pytest.raises(OptimizationError, match="sum"):
            FaultInjectionConfig(crash_rate=0.6, hang_rate=0.6)
        with pytest.raises(OptimizationError, match="hang_seconds"):
            FaultInjectionConfig(hang_seconds=0.0)

    def test_decisions_are_deterministic_and_seed_sensitive(self):
        config = FaultInjectionConfig(seed=3, crash_rate=0.25, transient_rate=0.25)
        requests = [_request(f"q{i}") for i in range(40)]
        first = [config.decide(r, attempt=0) for r in requests]
        second = [config.decide(r, attempt=0) for r in requests]
        assert first == second  # pure function of (seed, query, plan, attempt)
        assert any(kind is not None for kind in first)  # schedule actually fires
        other_seed = FaultInjectionConfig(seed=4, crash_rate=0.25, transient_rate=0.25)
        assert [other_seed.decide(r, 0) for r in requests] != first

    def test_attempt_counter_advances_the_schedule(self):
        config = FaultInjectionConfig(seed=0, crash_rate=0.5)
        request = _request("flippy")
        decisions = {config.decide(request, attempt) for attempt in range(16)}
        assert decisions == {"crash", None}  # retries draw fresh deviates

    def test_max_faults_per_request_guarantees_clean_attempts(self):
        config = FaultInjectionConfig(seed=0, crash_rate=1.0, max_faults_per_request=2)
        request = _request()
        assert config.decide(request, 0) == "crash"
        assert config.decide(request, 1) == "crash"
        assert config.decide(request, 2) is None  # bounded: attempt 3 is clean


class TestFaultInjectionBackend:
    def test_crash_and_transient_short_circuit_inner(self):
        inner = _ScriptedBackend()
        config = FaultInjectionConfig(seed=0, crash_rate=0.5, transient_rate=0.5)
        backend = FaultInjectionBackend(inner, config)
        crashes = transients = 0
        for i in range(12):
            future = backend.submit(_request(f"q{i}"))
            exc = future.exception()
            assert isinstance(exc, (InjectedWorkerCrash, InjectedTransientError))
            assert is_infra_failure(exc)
            crashes += isinstance(exc, InjectedWorkerCrash)
            transients += isinstance(exc, InjectedTransientError)
        # Every submission faulted (rates sum to 1) without touching inner.
        assert inner.submitted == []
        assert backend.counters.crashes == crashes > 0
        assert backend.counters.transients == transients > 0
        assert backend.counters.total_faults == 12

    def test_slow_delivery_runs_for_real_but_arrives_late(self):
        inner = _ScriptedBackend()
        config = FaultInjectionConfig(seed=0, slow_rate=1.0, slow_seconds=0.05)
        backend = FaultInjectionBackend(inner, config)
        start = time.monotonic()
        future = backend.submit(_request())
        assert not future.done()  # the result is withheld...
        assert len(inner.submitted) == 1  # ...but the work already happened
        assert future.result(timeout=5.0).latency == 1.0
        assert time.monotonic() - start >= 0.04
        assert backend.counters.slowdowns == 1
        backend.close()

    def test_close_flushes_withheld_results(self):
        inner = _ScriptedBackend()
        config = FaultInjectionConfig(seed=0, hang_rate=1.0, hang_seconds=60.0)
        backend = FaultInjectionBackend(inner, config)
        future = backend.submit(_request())
        assert not future.done()
        backend.close()  # cancels the 60s timer, delivers the done result
        assert future.result(timeout=1.0).latency == 1.0


# ------------------------------------------------------------------ supervisor
class TestSupervisedBackend:
    def test_clean_path_stamps_attempts(self):
        supervised = SupervisedBackend(_ScriptedBackend())
        outcome = supervised.submit(_request()).result(timeout=5.0)
        assert outcome.latency == 1.0 and outcome.attempts == 1
        assert supervised.counters.retries == 0

    def test_retry_then_succeed_on_transient(self):
        inner = _ScriptedBackend(
            script=[TransientBackendError("blip"), BrokenExecutor("worker died"), None]
        )
        supervised = SupervisedBackend(inner, max_retries=3, backoff_base=0.001, backoff_max=0.01)
        outcome = supervised.submit(_request()).result(timeout=5.0)
        assert outcome.latency == 1.0 and outcome.attempts == 3
        assert len(inner.submitted) == 3
        report = supervised.report()
        assert report["retries"] == 2
        assert report["transients"] == 1 and report["crashes"] == 1
        assert report["give_ups"] == 0 and not report["degraded"]

    def test_gives_up_after_max_retries(self):
        inner = _ScriptedBackend(script=[TransientBackendError("blip")] * 10)
        supervised = SupervisedBackend(inner, max_retries=2, backoff_base=0.001, backoff_max=0.01)
        future = supervised.submit(_request())
        with pytest.raises(TransientBackendError):
            future.result(timeout=5.0)
        assert len(inner.submitted) == 3  # initial + 2 retries, bounded
        assert supervised.counters.give_ups == 1

    def test_genuine_plan_error_is_never_retried(self):
        inner = _ScriptedBackend(script=[RuntimeError("bad plan")])
        supervised = SupervisedBackend(inner, max_retries=5, backoff_base=0.001)
        future = supervised.submit(_request())
        with pytest.raises(RuntimeError, match="bad plan"):
            future.result(timeout=5.0)
        assert len(inner.submitted) == 1
        assert supervised.counters.retries == 0

    def test_hang_watchdog_fires_and_retry_lands_elsewhere(self):
        hang_then_recover = FaultInjectionBackend(
            _ScriptedBackend(),
            FaultInjectionConfig(seed=0, hang_rate=1.0, hang_seconds=60.0, max_faults_per_request=1),
        )
        supervised = SupervisedBackend(
            hang_then_recover, request_deadline=0.05, max_retries=2,
            backoff_base=0.001, backoff_max=0.01,
        )
        outcome = supervised.submit(_request()).result(timeout=10.0)
        assert outcome.latency == 1.0 and outcome.attempts == 2
        assert supervised.counters.hangs == 1
        supervised.close()

    def test_true_hang_exhausts_retries_with_hang_timeout(self):
        supervised = SupervisedBackend(
            _NeverResolves(), request_deadline=0.02, max_retries=1,
            backoff_base=0.001, backoff_max=0.01,
        )
        future = supervised.submit(_request())
        with pytest.raises(HangTimeout, match="supervision deadline"):
            future.result(timeout=10.0)
        assert supervised.counters.hangs == 2
        supervised.close()

    def test_pool_rebuild_on_broken_backend(self):
        inner = _RebuildableBackend(script=[BrokenExecutor("pool broke"), None])
        supervised = SupervisedBackend(inner, max_retries=2, backoff_base=0.001, backoff_max=0.01)
        outcome = supervised.submit(_request()).result(timeout=5.0)
        assert outcome.latency == 1.0
        assert inner.rebuilds == 1
        assert supervised.report()["pool_rebuilds_done"] == 1

    def test_degrades_to_fallback_when_capacity_lost(self):
        inner = _RebuildableBackend(script=[BrokenExecutor("gone")] * 10)
        fallback = _ScriptedBackend(name="fallback")
        supervised = SupervisedBackend(
            inner, max_retries=3, max_rebuilds=0, fallback=fallback,
            backoff_base=0.001, backoff_max=0.01,
        )
        outcome = supervised.submit(_request()).result(timeout=5.0)
        assert outcome.latency == 1.0
        assert supervised.degraded
        assert len(fallback.submitted) >= 1
        assert supervised.counters.fallback_attempts >= 1
        # Degradation is sticky: the next request goes straight to fallback.
        supervised.submit(_request("next_q")).result(timeout=5.0)
        assert len(inner.submitted) == 1

    def test_backoff_delay_is_deterministic_bounded_jitter(self):
        supervised = SupervisedBackend(
            _ScriptedBackend(), backoff_base=0.05, backoff_max=0.2, backoff_jitter=0.25
        )
        request = _request()
        delays = [supervised._backoff_delay(request, attempt) for attempt in range(6)]
        assert delays == [supervised._backoff_delay(request, a) for a in range(6)]
        for attempt, delay in enumerate(delays):
            base = min(0.2, 0.05 * 2**attempt)
            assert base <= delay <= base * 1.25  # capped + bounded jitter


# ------------------------------------------------------------------ router probation
class _FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRouterProbation:
    def test_exhausted_member_enters_probation_then_recovers_via_probe(self):
        clock = _FakeClock()
        flaky = _ScriptedBackend("flaky", script=[BrokenExecutor("dead")] * 2)
        spare = _ScriptedBackend("spare")
        router = MultiBackendRouter(
            [flaky, spare], max_failures=2, probation_seconds=30.0, clock=clock
        )
        # Two infra failures: requests land on spare, flaky goes on probation.
        for i in range(2):
            assert router.submit(_request(f"q{i}")).result().latency == 1.0
        statuses = {s.name: s for s in router.statuses()}
        assert statuses["flaky[0]"].on_probation and not statuses["flaky[0]"].healthy
        assert statuses["spare[1]"].retries == 2
        # While on probation the member takes no traffic.
        router.submit(_request("q2")).result()
        assert len(flaky.submitted) == 2
        # Probation expires -> half-open probe -> success clears the record.
        clock.advance(31.0)
        router.submit(_request("q3")).result()
        assert len(flaky.submitted) == 3  # the probe went to the probing member
        statuses = {s.name: s for s in router.statuses()}
        assert statuses["flaky[0]"].healthy and not statuses["flaky[0]"].on_probation
        assert statuses["flaky[0]"].failures == 0

    def test_failed_probe_doubles_the_next_probation(self):
        clock = _FakeClock()
        flaky = _ScriptedBackend("flaky", script=[BrokenExecutor("dead")] * 5)
        spare = _ScriptedBackend("spare")
        router = MultiBackendRouter(
            [flaky, spare], max_failures=1, probation_seconds=10.0, clock=clock
        )
        router.submit(_request("q0")).result()  # failure #1 -> probation (10s)
        clock.advance(11.0)
        router.submit(_request("q1")).result()  # probe fails -> probation doubles
        assert len(flaky.submitted) == 2
        clock.advance(11.0)  # 11 < 20: still on probation
        router.submit(_request("q2")).result()
        assert len(flaky.submitted) == 2
        clock.advance(10.0)  # 21 > 20: next probe allowed
        router.submit(_request("q3")).result()
        assert len(flaky.submitted) == 3

    def test_transient_error_charges_health_budget(self):
        clock = _FakeClock()
        flaky = _ScriptedBackend("flaky", script=[TransientBackendError("blip")])
        spare = _ScriptedBackend("spare")
        router = MultiBackendRouter(
            [flaky, spare], max_failures=1, probation_seconds=30.0, clock=clock
        )
        assert router.submit(_request()).result().latency == 1.0
        assert router.statuses()[0].on_probation  # transient == infra here

    def test_every_member_retired_raises_backend_unavailable(self):
        # Legacy mode (probation_seconds=None): retirement is permanent.
        members = [
            _ScriptedBackend(f"dead{i}", script=[BrokenExecutor("dead")] * 4)
            for i in range(2)
        ]
        router = MultiBackendRouter(members, max_failures=1)
        with pytest.raises(BackendUnavailableError, match="no healthy execution backend"):
            router.submit(_request()).result()
        assert not router.healthy()
        with pytest.raises(BackendUnavailableError):
            router.submit(_request("q2")).result()

    def test_genuine_error_does_not_dent_health_budget(self):
        clock = _FakeClock()
        failing = _ScriptedBackend("failing", script=[RuntimeError("bad plan")])
        spare = _ScriptedBackend("spare")
        router = MultiBackendRouter(
            [failing, spare], max_failures=1, probation_seconds=30.0, clock=clock
        )
        with pytest.raises(RuntimeError, match="bad plan"):
            router.submit(_request()).result()
        status = router.statuses()[0]
        assert status.healthy and status.failures == 0 and not status.on_probation
        assert spare.submitted == []  # no retry either

    def test_retry_then_succeed_on_flaky_member(self):
        clock = _FakeClock()
        flaky = _ScriptedBackend("flaky", script=[BrokenExecutor("hiccup")])
        router = MultiBackendRouter(
            [flaky, _ScriptedBackend("spare")], max_failures=3,
            probation_seconds=30.0, clock=clock,
        )
        assert router.submit(_request()).result().latency == 1.0
        status = router.statuses()[0]
        assert status.healthy and status.failures == 1  # charged but not retired


# ------------------------------------------------------------------ remote tracebacks
class ExplodingDatabase:
    """Picklable database double whose executions always fail in the worker."""

    def execute(self, query, plan, timeout=None):
        raise ValueError("synthetic worker-side failure")


class TestRemoteTracebacks:
    def test_remote_traceback_rides_the_exception(self):
        backend = ProcessPoolBackend(ExplodingDatabase(), max_workers=1, warmup=False)
        try:
            future = backend.submit(_request("remote_q"))
            exc = future.exception(timeout=60.0)
        finally:
            backend.close()
        assert isinstance(exc, RemoteExecutionError)
        assert "remote_q" in str(exc)
        assert "ValueError: synthetic worker-side failure" in exc.remote_traceback
        # The worker-side frame is in the traceback the scheduler sees.
        assert "in execute" in exc.remote_traceback
        assert not is_infra_failure(exc)  # a plan error, not infrastructure

    def test_remote_execution_error_pickles_with_traceback(self):
        error = RemoteExecutionError("boom", remote_traceback="Traceback ...\nValueError: x")
        copy = pickle.loads(pickle.dumps(error))
        assert isinstance(copy, RemoteExecutionError)
        assert copy.remote_traceback == error.remote_traceback
        assert "remote traceback" in str(copy)


# ------------------------------------------------------------------ checkpoint/resume
class _SessionKilled(BaseException):
    """Out-of-band kill signal — deliberately not an Exception subclass, so
    nothing in the stack can swallow it (like a real SIGKILL wouldn't be)."""


class _KillAfter:
    """Inline backend wrapper that kills the process after N executions."""

    name = "kill-after"

    def __init__(self, database, kills_at):
        self.inner = InlineBackend(database)
        self.kills_at = kills_at
        self.executed = 0

    def capacity(self):
        return 1

    def submit(self, request):
        if self.executed >= self.kills_at:
            raise _SessionKilled()
        self.executed += 1
        return self.inner.submit(request)

    def healthy(self):
        return True

    def close(self):
        pass


class TestCheckpointResume:
    def test_manager_roundtrip_and_atomicity(self, tmp_path):
        path = str(tmp_path / "session.ckpt")
        manager = CheckpointManager(path, every=3)
        assert manager.load() is None
        assert [manager.due() for _ in range(4)] == [False, False, True, False]
        checkpoint = SessionCheckpoint(
            technique="random", seed=7, query_names=["a", "b"], completed={"a": 1}
        )
        manager.save(checkpoint)
        loaded = manager.load()
        assert loaded is not None and loaded.completed == {"a": 1}
        assert loaded.matches("random", 7, ["a", "b"])
        assert not loaded.matches("random", 8, ["a", "b"])
        assert not loaded.matches("bao", 7, ["a", "b"])
        manager.clear()
        assert manager.load() is None
        manager.clear()  # idempotent

    def test_corrupt_checkpoint_is_ignored(self, tmp_path):
        path = tmp_path / "session.ckpt"
        path.write_bytes(b"not a pickle")
        assert CheckpointManager(str(path)).load() is None

    def test_cache_outcome_export_import_roundtrip(self):
        source = ExecutionCache()
        key = (("q-fingerprint",), "canonical-plan")
        source.store_outcome(key, [("cpu", 1.5), ("__node__", 0.0)], True, None, 42)
        target = ExecutionCache()
        assert target.import_outcomes(source.export_outcomes()) == 1
        entry = target.lookup_outcome(key, timeout=None)
        assert entry is not None and entry.completed and entry.output_rows == 42
        assert entry.events == [("cpu", 1.5), ("__node__", 0.0)]

    def test_killed_session_resumes_bit_for_bit(self, tiny_workload, tmp_path):
        self._kill_and_resume("random", tiny_workload, tmp_path)

    def test_killed_bao_session_resumes_bit_for_bit(self, tiny_workload, tmp_path):
        # Bao's state carries its hint-set plans (made in one planner pass at
        # ``start``); the resumed run must neither re-plan nor re-order them.
        self._kill_and_resume("bao", tiny_workload, tmp_path)

    @pytest.mark.parametrize("kills_at", [5, 9])
    def test_killed_bayesqo_session_resumes_bit_for_bit(
        self, kills_at, tiny_workload, tiny_schema_model, tmp_path
    ):
        # A full refit continues from the surrogate's hyper-parameters, so the
        # resumed trajectory depends on the ones the checkpoint pickled: one
        # checkpoint mid-way between full refits (``refit_every=5``), one
        # right before the second.
        self._kill_and_resume(
            "bayesqo", tiny_workload, tmp_path, kills_at=kills_at, max_executions=14,
            schema_model=tiny_schema_model,
            bayes_config=BayesQOConfig(max_executions=14, num_candidates=64, seed=5),
        )

    @staticmethod
    def _kill_and_resume(
        technique, tiny_workload, tmp_path, kills_at=5, max_executions=6, **session_kwargs
    ):
        budget = BudgetSpec(max_executions=max_executions)
        path = str(tmp_path / "session.ckpt")

        # Reference: uninterrupted run, no checkpointing.
        with WorkloadSession(tiny_workload, budget=budget, seed=5, **session_kwargs) as session:
            reference = signatures(session.run(technique))
        total = sum(
            r.num_executions for r in WorkloadSession(
                tiny_workload, budget=budget, seed=5, **session_kwargs
            ).run(technique).values()
        )

        # Killed run: the backend raises after ``kills_at`` executions,
        # checkpointing after every observation.
        killer = _KillAfter(tiny_workload.database, kills_at=kills_at)
        session = WorkloadSession(
            tiny_workload, budget=budget, seed=5, backend=killer,
            checkpoint_path=path, checkpoint_every=1, **session_kwargs,
        )
        with pytest.raises(_SessionKilled):
            session.run(technique)
        assert killer.executed == kills_at

        # Resume: a fresh session (fresh optimizer, fresh backend) picks up
        # the checkpoint and completes without redoing finished work.
        resumed_backend = _KillAfter(tiny_workload.database, kills_at=10**9)
        with WorkloadSession(
            tiny_workload, budget=budget, seed=5, backend=resumed_backend,
            checkpoint_path=path, checkpoint_every=1, **session_kwargs,
        ) as session:
            resumed = signatures(session.run(technique))
        assert resumed == reference  # bit-for-bit
        assert resumed_backend.executed == total - kills_at  # completed work not re-paid
        import os
        assert not os.path.exists(path)  # cleared on completion

    def test_checkpoint_pins_to_sequential_scheduler(self, tiny_workload, tmp_path):
        session = WorkloadSession(
            tiny_workload, budget=BudgetSpec(max_executions=3), seed=1,
            exec_config=ExecutionServiceConfig(backend="thread", max_workers=2),
            checkpoint_path=str(tmp_path / "c.ckpt"), checkpoint_every=2,
        )
        with session:
            results = session.run("random")
        assert set(results) == {q.name for q in tiny_workload.queries}


# ------------------------------------------------------------------ session health report
class TestHealthReport:
    def test_layers_surface_in_report(self, tiny_workload):
        config = ExecutionServiceConfig(
            backend="inline", replicas=2, supervised=True,
            fault_injection=FaultInjectionConfig(seed=0, transient_rate=0.3),
            max_retries=4, backoff_base=0.001, backoff_max=0.01,
        )
        with WorkloadSession(
            tiny_workload, budget=BudgetSpec(max_executions=4),
            exec_config=config, interleave=False,
        ) as session:
            results = session.run("random")
            report = session.health_report()
        assert set(results) == {q.name for q in tiny_workload.queries}
        assert report["supervisor"]["submissions"] > 0
        assert report["supervisor"]["give_ups"] == 0
        assert report["faults"]["clean"] > 0
        assert len(report["router"]) == 2
        assert all(set(m) >= {"occupancy", "failures", "healthy", "retries"}
                   for m in report["router"])

    def test_make_backend_wires_supervision_and_faults(self, tiny_workload):
        config = ExecutionServiceConfig(
            backend="inline", supervised=True, request_deadline=5.0,
            fault_injection=FaultInjectionConfig(seed=1, crash_rate=0.2),
        )
        backend = make_backend(config, tiny_workload.database, tiny_workload.queries)
        try:
            assert isinstance(backend, SupervisedBackend)
            assert isinstance(backend.inner, FaultInjectionBackend)
            assert isinstance(backend.inner.inner, InlineBackend)
            assert backend.fallback is None  # inline primary needs no fallback
        finally:
            backend.close()

    def test_comparison_run_carries_backend_health(self, tiny_workload):
        from repro.harness import run_comparison

        run = run_comparison(
            tiny_workload, tiny_workload.queries, BudgetSpec(max_executions=3),
            techniques=["random"],
            exec_config=ExecutionServiceConfig(backend="inline", supervised=True),
        )
        assert "supervisor" in run.backend_health


# ------------------------------------------------------------------ policy robustness
class _ExplodingPredictor:
    def predicted_improvement(self, state):
        raise FloatingPointError("singular posterior")


def _policy_state(name, latencies):
    result = OptimizationResult(query_name=name, technique="X")
    for latency in latencies:
        result.record(JoinTree.left_deep(["a", "b"]), latency, censored=False, timeout=None)
    from repro.core.protocol import OptimizerState

    return OptimizerState(
        query=Query(name=name, table_refs=[TableRef("a#1", "a")], join_predicates=[]),
        result=result,
        budget=BudgetSpec(max_executions=10),
    )


class TestPolicyRobustness:
    def test_budget_aware_survives_predictor_exceptions(self):
        states = [_policy_state("fast", [0.5]), _policy_state("slow", [50.0])]
        # The predictor explodes; scheduling falls back to worst-incumbent
        # priority instead of killing the session.
        assert BudgetAwarePriority().select(states, _ExplodingPredictor()) == 1


# ------------------------------------------------------------------ supervisor over fabric
class _ScriptedFabricNode:
    """Minimal node double for driving a FabricBackend from the supervisor."""

    def __init__(self, name="node[0]", script=None):
        self.name = name
        self._script = list(script or [])
        self.submitted = []

    def capacity(self):
        return 1

    def healthy(self):
        return True

    def submit(self, request):
        self.submitted.append(request)
        future = Future()
        entry = self._script.pop(0) if self._script else None
        if entry is not None:
            future.set_exception(entry)
        else:
            future.set_result(ExecutionOutcome(latency=1.0))
        return future

    def close(self):
        pass


class TestSupervisedFabric:
    """The supervisor's per-request semantics survive a fabric underneath."""

    def _supervised_fabric(self, script):
        from repro.exec import FabricBackend, NodeLostError  # noqa: F401

        fabric = FabricBackend(
            [_ScriptedFabricNode(script=script)],
            max_lease_attempts=1,  # fabric-level failover off: supervisor owns retry
            max_failures=10,
        )
        supervised = SupervisedBackend(
            fabric, max_retries=3, backoff_base=0.001, backoff_max=0.01
        )
        return supervised, fabric

    def test_batch_submission_falls_back_per_request_and_retries(self):
        from repro.exec import NodeLostError
        from repro.exec.backend import submit_request_batch

        # The node loses the first request's lease; the fabric (failover
        # disabled) surfaces the infra failure and the *supervisor* retries.
        supervised, fabric = self._supervised_fabric([NodeLostError("link down")])
        try:
            # The supervisor deliberately has no submit_batch: batches must
            # disband so each request keeps its own retry/fail-over story.
            assert not hasattr(supervised, "submit_batch")
            futures = submit_request_batch(supervised, [_request("q_a"), _request("q_b")])
            outcomes = [future.result(timeout=30.0) for future in futures]
        finally:
            supervised.close()
        assert outcomes[0].attempts == 2  # retried after the lease was lost
        assert outcomes[1].attempts == 1  # clean sibling: untouched
        assert supervised.counters.retries == 1
        assert supervised.counters.give_ups == 0
        assert fabric.counters.give_ups == 1  # the fabric handed the failure up

    def test_fabric_infra_failure_is_retryable_by_the_supervisor(self):
        from repro.exec import NodeLostError

        assert is_infra_failure(NodeLostError("down"))
        supervised, _ = self._supervised_fabric(
            [NodeLostError("down"), NodeLostError("down")]
        )
        try:
            outcome = supervised.submit(_request()).result(timeout=30.0)
        finally:
            supervised.close()
        assert outcome.attempts == 3


# ------------------------------------------------------------------ checkpoint discard logging
class TestCheckpointDiscardLogging:
    def _capture(self):
        import logging

        records = []

        class _Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        handler = _Capture(level=logging.DEBUG)
        # The repro root logger does not propagate to the stdlib root, so
        # caplog never sees it; attach directly.
        logger = logging.getLogger("repro")
        previous = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        return records, handler, logger, previous

    def test_corrupt_artifact_discard_is_logged(self, tmp_path):
        from repro.harness.checkpoint import tolerant_pickle_load

        path = tmp_path / "session.ckpt"
        path.write_bytes(b"not a pickle at all")
        records, handler, logger, previous = self._capture()
        try:
            assert tolerant_pickle_load(str(path)) is None
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous)
        warnings = [r for r in records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        # What was dropped, how big it was, and why.
        assert "discarding corrupt artifact" in message
        assert str(path) in message
        assert f"{len(b'not a pickle at all')} bytes" in message
        assert "UnpicklingError" in message

    def test_checkpoint_with_a_stale_state_layout_is_discarded(self, tiny_workload, tmp_path):
        # A BaoState pickled before the hint-set plans moved into it (it held
        # ``hint_sets``/``seen`` and re-planned on every suggest).
        from repro.baselines import BaoOptimizer

        query = tiny_workload.queries[0]
        stale = BaoOptimizer(tiny_workload.database).start(query)
        del stale.__dict__["plans"]
        stale.__dict__.update(hint_sets=[], seen=set())
        path = str(tmp_path / "session.ckpt")
        names = [q.name for q in tiny_workload.queries]
        CheckpointManager(path).save(
            SessionCheckpoint(technique="bao", seed=5, query_names=names, state=stale)
        )
        records, handler, logger, previous = self._capture()
        try:
            assert CheckpointManager(path).load() is None
            with WorkloadSession(
                tiny_workload, budget=BudgetSpec(max_executions=6), seed=5,
                checkpoint_path=path, checkpoint_every=1,
            ) as session:
                resumed = signatures(session.run("bao"))
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous)
        messages = [r.getMessage() for r in records if r.levelname == "WARNING"]
        assert messages and all("discarding corrupt artifact" in m for m in messages)
        assert "BaoState predates its fields ['plans']" in messages[0]
        # The session started over instead of resuming into an AttributeError.
        with WorkloadSession(tiny_workload, budget=BudgetSpec(max_executions=6), seed=5) as session:
            assert resumed == signatures(session.run("bao"))

    def test_bayesqo_state_pickled_before_pr16_resumes(
        self, tiny_workload, tiny_schema_model, tmp_path
    ):
        # Before PR 16 a BayesQOState counted loop steps against a cap
        # (``iterations``/``iteration_cap``) and its engine did not count
        # acquisition rounds.  Extra fields are not a stale layout: the
        # checkpoint resumes, silently, and never into an AttributeError.
        kwargs = dict(
            budget=BudgetSpec(max_executions=14), seed=5, schema_model=tiny_schema_model,
            bayes_config=BayesQOConfig(max_executions=14, num_candidates=64, seed=5),
        )
        path = str(tmp_path / "session.ckpt")
        with WorkloadSession(tiny_workload, **kwargs) as session:
            reference = signatures(session.run("bayesqo"))
        killed = WorkloadSession(
            tiny_workload, backend=_KillAfter(tiny_workload.database, kills_at=9),
            checkpoint_path=path, checkpoint_every=1, **kwargs,
        )
        with pytest.raises(_SessionKilled):
            killed.run("bayesqo")
        checkpoint = CheckpointManager(path).load()
        assert checkpoint.state.engine.num_observations == 9
        checkpoint.state.__dict__.update(iterations=4, iteration_cap=70)
        checkpoint.state.engine.__dict__.pop("acquisition_rounds")
        CheckpointManager(path).save(checkpoint)
        records, handler, logger, previous = self._capture()
        try:
            with WorkloadSession(
                tiny_workload, checkpoint_path=path, checkpoint_every=1, **kwargs
            ) as session:
                resumed = signatures(session.run("bayesqo"))
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous)
        assert not [r.getMessage() for r in records if r.levelname == "WARNING"]
        assert resumed == reference

    def test_failed_save_keeps_the_previous_checkpoint_and_no_temp(self, tmp_path):
        from repro.harness.checkpoint import CheckpointManager, SessionCheckpoint

        manager = CheckpointManager(str(tmp_path / "session.ckpt"))
        manager.save(SessionCheckpoint(technique="random", seed=0, query_names=["q"]))
        unpicklable = SessionCheckpoint(
            technique="random", seed=0, query_names=["q"], optimizer=lambda: None
        )
        with pytest.raises(Exception, match="pickle"):
            manager.save(unpicklable)
        assert [p.name for p in tmp_path.iterdir()] == ["session.ckpt"]
        assert manager.load().optimizer is None

    def test_cold_start_is_only_a_debug_line(self, tmp_path):
        from repro.harness.checkpoint import tolerant_pickle_load

        records, handler, logger, previous = self._capture()
        try:
            assert tolerant_pickle_load(str(tmp_path / "absent.ckpt")) is None
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous)
        assert all(r.levelname == "DEBUG" for r in records)
        assert any("cold start" in r.getMessage() for r in records)
