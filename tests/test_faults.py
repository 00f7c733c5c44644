"""Fault-tolerance suite: injection, supervision, probation, checkpoint/resume.

Covers the deterministic fault schedule (seeded decisions) and its
injection by the lease coordinator (crash / transient short-circuit, hang /
slow delayed delivery, the per-request fault bound), supervision on a
one-member lease coordinator (attempt stamping, bounded reassignment, the
hang watchdog, pool rebuild, degradation; probation and half-open re-probe
recovery are ``tests/test_fabric.py``'s), how ``make_backend`` composes
supervision, fault injection and the coordinator, remote-traceback
preservation
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
    FabricBackend,
    FaultInjectionConfig,
    HangTimeout,
    InjectedTransientError,
    InjectedWorkerCrash,
    InlineBackend,
    NodeLostError,
    ProcessPoolBackend,
    RemoteExecutionError,
    RemoteNodeBackend,
    ThreadPoolBackend,
    TransientBackendError,
    is_infra_failure,
    make_backend,
)
from repro.exec.fabric import MAX_REBUILDS
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
    """Backend whose futures never complete — a true hang.

    The futures are already running, so nobody can cancel them, exactly
    like a stuck worker's.  With ``hangs`` set only the first ``hangs``
    submissions hang; later ones complete cleanly.
    """

    name = "black-hole"

    def __init__(self, hangs=None):
        self.hangs = hangs
        self.submitted = []
        self.hung = []

    def capacity(self):
        return 1

    def submit(self, request):
        self.submitted.append(request)
        future = Future()
        if self.hangs is not None and len(self.hung) >= self.hangs:
            future.set_result(ExecutionOutcome(latency=1.0))
        else:
            future.set_running_or_notify_cancel()
            self.hung.append(future)
        return future

    def healthy(self):
        return True

    def close(self):
        pass


class _FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.001)


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

    # The first 64 draws of one seed (16 requests x attempts 0-3), one letter
    # per decision ("." = no fault).  Seeded chaos runs replay only while
    # these never change, whatever code draws them.
    PINNED_FAULTS = "ts.schtc.hshs.tt.sttcst.t.s.t.s.t.s.httctcc.tcthcs.t....stc....t"
    PINNED_NETWORK = "l.d.dddl.d.dpll...p.dl.k.k.k.lllkk..dp..lppkl..pk.l.lld.dkd.k..d"
    LETTERS = {
        None: ".", "crash": "c", "hang": "h", "transient": "t", "slow": "s",
        "drop": "d", "partition": "p", "slow_link": "l", "kill": "k",
    }

    def _draws(self, config):
        requests = [_request(f"q{i}") for i in range(16)]
        return "".join(
            self.LETTERS[config.decide(request, attempt)]
            for attempt in range(4)
            for request in requests
        )

    def test_seeded_schedules_are_pinned(self):
        faults = FaultInjectionConfig(
            seed=7, crash_rate=0.15, hang_rate=0.1, transient_rate=0.2, slow_rate=0.15
        )
        network = FaultInjectionConfig(
            seed=7, drop_rate=0.15, partition_rate=0.1, slow_link_rate=0.2, kill_rate=0.15,
            max_faults_per_request=None,
        )
        assert self._draws(faults) == self.PINNED_FAULTS
        assert self._draws(network) == self.PINNED_NETWORK


class TestCoordinatorFaultInjection:
    """The one injector: a one-member coordinator drawing faults at dispatch."""

    def test_crash_and_transient_short_circuit_inner(self):
        inner = _ScriptedBackend()
        config = FaultInjectionConfig(seed=0, crash_rate=0.5, transient_rate=0.5)
        fabric = FabricBackend([inner], faults=config, max_lease_attempts=1, max_failures=100)
        crashes = transients = 0
        try:
            for i in range(12):
                exc = fabric.submit(_request(f"q{i}")).exception(timeout=5.0)
                assert isinstance(exc, (InjectedWorkerCrash, InjectedTransientError))
                assert is_infra_failure(exc)
                crashes += isinstance(exc, InjectedWorkerCrash)
                transients += isinstance(exc, InjectedTransientError)
            status = fabric.statuses()[0]
        finally:
            fabric.close()
        # Every dispatch faulted (rates sum to 1) without touching the member,
        # and each was dispatched and charged like a real member failure.
        assert inner.submitted == []
        assert fabric.fault_counters.crashes == crashes > 0
        assert fabric.fault_counters.transients == transients > 0
        assert fabric.fault_counters.total_faults == 12
        assert fabric.counters.dispatched == 12 and status["failures"] == 12

    def test_slow_delivery_runs_for_real_but_arrives_late(self):
        inner = _ScriptedBackend()
        config = FaultInjectionConfig(seed=0, slow_rate=1.0, slow_seconds=0.05)
        fabric = FabricBackend([inner], faults=config)
        try:
            start = time.monotonic()
            future = fabric.submit(_request())
            assert not future.done()  # the result is withheld...
            assert len(inner.submitted) == 1  # ...but the work already happened
            assert future.result(timeout=5.0).latency == 1.0
            assert time.monotonic() - start >= 0.04
        finally:
            fabric.close()
        assert fabric.fault_counters.slowdowns == 1

    def test_close_flushes_withheld_results(self):
        inner = _ScriptedBackend()
        config = FaultInjectionConfig(seed=0, hang_rate=1.0, hang_seconds=60.0)
        fabric = FabricBackend([inner], faults=config)
        future = fabric.submit(_request())
        assert not future.done()
        fabric.close()  # cancels the 60s timer, delivers the done result
        assert future.result(timeout=1.0).latency == 1.0

    def test_the_fault_bound_holds_across_replicas(self, tiny_workload):
        # The attempt is the coordinator's, not a member's: a lease
        # reassigned to the other replica does not draw its faults again.
        database = tiny_workload.database.snapshot()
        query = tiny_workload.queries[0]
        config = ExecutionServiceConfig(
            backend="inline", replicas=2,
            fault_injection=FaultInjectionConfig(
                seed=0, crash_rate=1.0, max_faults_per_request=2
            ),
        )
        backend = make_backend(config, database)
        try:
            request = ExecutionRequest(query=query, plan=database.plan(query))
            outcome = backend.submit(request).result(timeout=30.0)
        finally:
            backend.close()
        assert outcome.attempts == 3
        assert backend.fault_counters.crashes == 2
        assert backend.counters.degraded_executions == 0


# ------------------------------------------------------------------ supervision
class TestCoordinatorSupervision:
    """Supervision on a one-member lease coordinator, the stack
    ``supervised=True`` builds around a single backend."""

    def test_clean_path_stamps_one_attempt(self):
        fabric = FabricBackend([_ScriptedBackend()])
        try:
            outcome = fabric.submit(_request()).result(timeout=5.0)
        finally:
            fabric.close()
        assert outcome.latency == 1.0 and outcome.attempts == 1
        assert fabric.counters.dispatched == 1
        assert fabric.counters.lease_reassignments == 0

    def test_transient_then_crash_then_success(self):
        inner = _ScriptedBackend(
            script=[TransientBackendError("blip"), BrokenExecutor("worker died"), None]
        )
        fabric = FabricBackend([inner], max_lease_attempts=4)
        try:
            outcome = fabric.submit(_request()).result(timeout=5.0)
            report = fabric.health_snapshot()
        finally:
            fabric.close()
        assert outcome.latency == 1.0 and outcome.attempts == 3
        assert len(inner.submitted) == 3
        assert report["dispatched"] == 3 and report["lease_reassignments"] == 2
        assert report["give_ups"] == 0 and report["degraded_executions"] == 0

    def test_gives_up_after_max_lease_attempts_with_the_last_error(self):
        inner = _ScriptedBackend(
            script=[TransientBackendError(f"blip {i}") for i in range(10)]
        )
        fabric = FabricBackend([inner], max_lease_attempts=3, max_failures=10)
        try:
            future = fabric.submit(_request())
            with pytest.raises(TransientBackendError, match="blip 2"):
                future.result(timeout=5.0)
        finally:
            fabric.close()
        assert len(inner.submitted) == 3  # bounded: first dispatch + 2 reassignments
        assert fabric.counters.give_ups == 1

    def test_a_plan_error_is_never_retried(self):
        inner = _ScriptedBackend(script=[RuntimeError("bad plan")])
        fabric = FabricBackend([inner], max_lease_attempts=6)
        try:
            future = fabric.submit(_request())
            with pytest.raises(RuntimeError, match="bad plan"):
                future.result(timeout=5.0)
            status = fabric.statuses()[0]
        finally:
            fabric.close()
        assert len(inner.submitted) == 1
        assert fabric.counters.lease_reassignments == 0 and status["failures"] == 0

    def test_a_failed_lease_leaves_its_group_and_reassigns_alone(self):
        inner = _ScriptedBackend(script=[NodeLostError("link down")])
        fabric = FabricBackend([inner])
        try:
            futures = fabric.submit_batch([_request("q_a"), _request("q_b")])
            outcomes = [future.result(timeout=5.0) for future in futures]
        finally:
            fabric.close()
        assert [outcome.attempts for outcome in outcomes] == [2, 1]
        assert fabric.counters.lease_reassignments == 1
        assert fabric.counters.give_ups == 0

    def test_the_watchdog_reassigns_a_hang_and_drops_its_late_reply(self):
        clock = _FakeClock()
        member = _NeverResolves(hangs=1)
        fabric = FabricBackend([member], request_deadline=0.5, degrade_after=0.0, clock=clock)
        try:
            future = fabric.submit(_request())
            clock.advance(0.6)
            outcome = future.result(timeout=10.0)
            # The stuck attempt finally answers: nobody listens any more.
            member.hung[0].set_result(ExecutionOutcome(latency=99.0))
            report = fabric.health_snapshot()
        finally:
            fabric.close()
        assert outcome.latency == 1.0 and outcome.attempts == 2
        assert future.result().latency == 1.0
        assert report["hangs"] == 1 and report["completed"] == 1
        assert report["nodes"][0]["occupancy"] == 0

    def test_a_true_hang_gives_up_with_hang_timeout(self):
        clock = _FakeClock()
        member = _NeverResolves()
        fabric = FabricBackend([member], request_deadline=0.5, max_lease_attempts=2, clock=clock)
        try:
            future = fabric.submit(_request())
            clock.advance(0.6)
            _until(lambda: len(member.submitted) == 2)
            clock.advance(0.6)
            with pytest.raises(HangTimeout, match="request deadline"):
                future.result(timeout=10.0)
        finally:
            fabric.close()
        assert fabric.counters.hangs == 2 and fabric.counters.give_ups == 1

    def test_a_group_deadline_starts_at_dispatch_and_scales_with_its_size(self):
        clock = _FakeClock()
        member = _NeverResolves()
        fabric = FabricBackend([member], request_deadline=0.5, clock=clock)
        try:
            fabric.submit_batch([_request("q_a"), _request("q_b")])  # due at +1.0
            fabric.submit(_request("q_c"))  # queued behind the group: no deadline yet
            assert len(member.submitted) == 2
            clock.advance(0.9)
            time.sleep(0.1)  # several watchdog passes
            assert fabric.counters.hangs == 0
            clock.advance(0.2)
            _until(lambda: fabric.counters.hangs == 2)
            time.sleep(0.1)
            # The group hung; q_c, queued for 1.1 s, did not.
            assert fabric.counters.hangs == 2
        finally:
            fabric.close()

    def test_watchdog_bookkeeping_survives_a_stress_run(self):
        # Executions of 0-40 ms against a 20 ms deadline: about half the
        # attempts are abandoned while their worker still runs, so late
        # replies, expiries and fresh dispatches race on many threads.
        import random
        import sys
        from concurrent.futures import ThreadPoolExecutor

        rng = random.Random(0)
        pool = ThreadPoolExecutor(max_workers=16)

        class _Sleepy(_ScriptedBackend):
            def submit(self, request):
                delay = rng.uniform(0.0, 0.04)
                return pool.submit(lambda: time.sleep(delay) or ExecutionOutcome(latency=1.0))

        fabric = FabricBackend(
            [_Sleepy(capacity=4)], request_deadline=0.02, max_lease_attempts=1000,
            max_failures=10**6,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            futures = [fabric.submit(_request(f"q{i}")) for i in range(100)]
            assert all(future.result(timeout=60.0).latency == 1.0 for future in futures)
            _until(lambda: not fabric._flights)
            report = fabric.health_snapshot()
        finally:
            sys.setswitchinterval(interval)
            fabric.close()
            pool.shutdown(wait=True)
        assert report["hangs"] > 0
        assert report["completed"] == report["submissions"] == 100
        assert report["hangs"] == report["lease_reassignments"]
        assert report["dispatched"] == 100 + report["lease_reassignments"]
        assert report["nodes"][0]["occupancy"] == 0

    def test_a_broken_pool_is_rebuilt_once(self):
        inner = _RebuildableBackend(script=[BrokenExecutor("pool broke"), None])
        fabric = FabricBackend([inner])
        try:
            outcome = fabric.submit(_request()).result(timeout=5.0)
            status = fabric.statuses()[0]
        finally:
            fabric.close()
        assert outcome.latency == 1.0 and outcome.attempts == 2
        assert inner.rebuilds == 1
        assert fabric.counters.rebuilds == 1 and status["rebuilds"] == 1

    def test_degradation_to_the_fallback_is_sticky(self):
        inner = _RebuildableBackend(script=[BrokenExecutor("gone")] * 10)
        fallback = _ScriptedBackend(name="fallback")
        fabric = FabricBackend(
            [inner], fallback=fallback, max_lease_attempts=6, max_failures=10,
            degrade_after=0.0,
        )
        try:
            outcome = fabric.submit(_request()).result(timeout=5.0)
            # Rebuilt MAX_REBUILDS times, then broken for good.
            assert inner.rebuilds == MAX_REBUILDS == 2
            assert len(inner.submitted) == MAX_REBUILDS + 1
            # The next request goes straight to the fallback.
            fabric.submit(_request("next_q")).result(timeout=5.0)
        finally:
            fabric.close()
        assert outcome.latency == 1.0
        assert len(inner.submitted) == MAX_REBUILDS + 1
        assert fabric.counters.degraded_executions == len(fallback.submitted) == 2


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
            max_retries=4,
        )
        with WorkloadSession(
            tiny_workload, budget=BudgetSpec(max_executions=4),
            exec_config=config, interleave=False,
        ) as session:
            results = session.run("random")
            report = session.health_report()
        assert set(results) == {q.name for q in tiny_workload.queries}
        assert report["fabric"]["submissions"] > 0
        assert report["fabric"]["give_ups"] == 0
        assert report["faults"]["clean"] > 0 and report["faults"]["transients"] > 0
        nodes = report["fabric"]["nodes"]
        assert [node["name"] for node in nodes] == ["inline[0]", "inline[1]"]
        assert all(set(node) >= {"occupancy", "failures", "live", "on_probation",
                                 "lease_reassignments_received", "rebuilds"}
                   for node in nodes)

    def test_make_backend_wires_supervision_and_faults(self, tiny_workload):
        config = ExecutionServiceConfig(
            backend="inline", supervised=True, request_deadline=5.0,
            fault_injection=FaultInjectionConfig(seed=1, crash_rate=0.2),
        )
        backend = make_backend(config, tiny_workload.database, tiny_workload.queries)
        try:
            assert isinstance(backend, FabricBackend)
            [member] = backend.members()
            assert isinstance(member, InlineBackend)
            assert backend.faults is config.fault_injection
            assert backend.fallback is None  # inline primary needs no fallback
            assert backend._request_deadline == 5.0
            assert backend._max_lease_attempts == config.max_retries + 1
        finally:
            backend.close()
        # Fabric nodes draw from the same schedule, on the same coordinator.
        fabric = make_backend(
            ExecutionServiceConfig(
                backend="fabric", fabric_nodes=1, fault_injection=config.fault_injection
            ),
            tiny_workload.database, tiny_workload.queries,
        )
        try:
            assert isinstance(fabric, FabricBackend)
            assert [type(member) for member in fabric.members()] == [RemoteNodeBackend]
            assert fabric.faults is config.fault_injection
        finally:
            fabric.close()

    def test_one_inline_fallback_per_stack(self, tiny_workload):
        database = tiny_workload.database
        stacks = [
            make_backend(
                ExecutionServiceConfig(backend="thread", max_workers=2, supervised=True), database
            ),
            make_backend(
                ExecutionServiceConfig(backend="inline", replicas=2, supervised=True), database
            ),
            make_backend(
                ExecutionServiceConfig(backend="fabric", fabric_nodes=1, replicas=2),
                database, tiny_workload.queries,
            ),
        ]
        try:
            # Each stack is one coordinator carrying the one fallback.
            for stack in stacks:
                assert isinstance(stack, FabricBackend)
                assert isinstance(stack.fallback, InlineBackend)
            thread, replicas, fabric = (stack.members() for stack in stacks)
            assert [type(member) for member in thread] == [ThreadPoolBackend]
            assert [type(member) for member in replicas] == [InlineBackend] * 2
            assert [type(member) for member in fabric] == [RemoteNodeBackend] * 2
        finally:
            for stack in stacks:
                stack.close()

    def test_comparison_run_carries_backend_health(self, tiny_workload):
        from repro.harness import run_comparison

        run = run_comparison(
            tiny_workload, tiny_workload.queries, BudgetSpec(max_executions=3),
            techniques=["random"],
            exec_config=ExecutionServiceConfig(backend="inline", supervised=True),
        )
        assert run.backend_health["fabric"]["submissions"] > 0


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
