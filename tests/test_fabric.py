"""Fabric suite: lease failover, probation, a member that loses workers.

Covers the coordinator's lease machinery against a scripted member double
(reassignment after a lost attempt, bounded attempts, probation while
leases wait and the half-open probe, a member that replaces its own dead
workers, degradation to the inline fallback once the member is unhealthy,
grouped batch dispatch, a submission racing ``close``), a hypothesis state
machine over a scripted member, and the coordinator over a real process
pool whose workers die while they hold no lease, or beside one that runs a
lease.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import Counter
from concurrent.futures import BrokenExecutor, Future

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import ExecutionServiceConfig
from repro.core.protocol import ExecutionOutcome
from repro.exceptions import OptimizationError
from repro.exec import (
    ExecutionRequest,
    FabricBackend,
    InlineBackend,
    RemoteExecutionError,
    ThreadPoolBackend,
    TransientBackendError,
    backend_health,
    make_backend,
)
from repro.exec import backend as backend_module
from repro.exec.process_pool import MAX_REBUILDS
from repro.db.query import Query, TableRef
from repro.plans.jointree import JoinTree
from repro.workloads import build_job_workload


def _query(name="fabric_q"):
    return Query(name=name, table_refs=[TableRef("a#1", "a")], join_predicates=[])


def _request(name="fabric_q", plan=None):
    return ExecutionRequest(query=_query(name), plan=plan or JoinTree.left_deep(["a", "b"]))


class _FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ------------------------------------------------------------------ member double
class _ScriptedNode:
    """Member double with the surface the fabric drives.

    ``script`` entries are consumed one per submitted request: an exception
    instance fails that request's future, ``None`` completes it cleanly.
    An exhausted script means clean outcomes.
    """

    def __init__(self, name="node[0]", capacity=1, script=None):
        self.name = name
        self._capacity = capacity
        self._script = list(script or [])
        self.submitted = []
        self.batches = []
        self._healthy = True
        self.closed = False

    def capacity(self):
        return self._capacity

    def healthy(self):
        return self._healthy

    def _complete(self, future):
        entry = self._script.pop(0) if self._script else None
        if entry is not None:
            future.set_exception(entry)
        else:
            future.set_result(ExecutionOutcome(latency=1.0))

    def submit(self, request):
        self.submitted.append(request)
        future = Future()
        self._complete(future)
        return future

    def submit_batch(self, requests):
        self.batches.append(list(requests))
        futures = []
        for request in requests:
            self.submitted.append(request)
            future = Future()
            self._complete(future)
            futures.append(future)
        return futures

    def close(self):
        self.closed = True


class _HeldNode(_ScriptedNode):
    """Node double whose futures stay pending until :meth:`release`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.held = []

    def _complete(self, future):
        self.held.append(future)

    def release(self):
        held, self.held = self.held, []
        for future in held:
            future.set_result(ExecutionOutcome(latency=1.0))


def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.001)


# ------------------------------------------------------------------ lease failover
class TestLeaseFailover:
    def test_clean_submission_keeps_attempts_at_one(self):
        node = _ScriptedNode()
        fabric = FabricBackend(node)
        try:
            outcome = fabric.submit(_request()).result(timeout=10.0)
        finally:
            fabric.close()
        assert outcome.attempts == 1
        assert fabric.counters.lease_reassignments == 0

    def test_lost_node_reassigns_the_lease_and_stamps_attempts(self):
        flaky = _ScriptedNode(script=[TransientBackendError("link down")])
        fabric = FabricBackend(flaky, max_failures=3)
        try:
            outcome = fabric.submit(_request()).result(timeout=10.0)
        finally:
            fabric.close()
        assert outcome.attempts == 2  # reassignment is visible, not silent
        assert fabric.counters.lease_reassignments == 1
        assert len(flaky.submitted) == 2

    def test_plan_error_propagates_untouched_without_reassignment(self):
        node = _ScriptedNode(script=[RemoteExecutionError("plan died", remote_traceback="tb")])
        fabric = FabricBackend(node)
        try:
            exc = fabric.submit(_request()).exception(timeout=10.0)
        finally:
            fabric.close()
        assert isinstance(exc, RemoteExecutionError)
        assert exc.remote_traceback == "tb"
        assert fabric.counters.lease_reassignments == 0
        assert len(node.submitted) == 1

    def test_exhausted_lease_gives_up_with_the_infra_error(self):
        node = _ScriptedNode(script=[TransientBackendError("down"), TransientBackendError("down")])
        fabric = FabricBackend(node, max_lease_attempts=2, max_failures=10)
        try:
            exc = fabric.submit(_request()).exception(timeout=10.0)
        finally:
            fabric.close()
        assert isinstance(exc, TransientBackendError)
        assert fabric.counters.give_ups == 1

    def test_exhausted_lease_falls_back_inline_when_available(self):
        node = _ScriptedNode(script=[TransientBackendError("down")] * 3)
        fallback = _ScriptedNode(name="fallback")
        fabric = FabricBackend(node, max_lease_attempts=1, fallback=fallback)
        try:
            outcome = fabric.submit(_request()).result(timeout=10.0)
        finally:
            fabric.close()
        assert outcome.attempts == 2
        assert fabric.counters.degraded_executions == 1
        assert len(fallback.submitted) == 1

    def test_batch_dispatches_as_one_group_to_one_node(self):
        node = _ScriptedNode(capacity=4)
        fabric = FabricBackend(node)
        try:
            futures = fabric.submit_batch([_request(), _request(), _request()])
            for future in futures:
                future.result(timeout=10.0)
        finally:
            fabric.close()
        # The member received the whole group, batched.
        assert [len(batch) for batch in node.batches] == [3]

    def test_failed_batch_disbands_and_each_lease_reassigns(self):
        flaky = _ScriptedNode(capacity=4, script=[TransientBackendError("down")] * 2)
        fabric = FabricBackend(flaky, max_failures=5)
        try:
            futures = fabric.submit_batch([_request(), _request()])
            outcomes = [future.result(timeout=10.0) for future in futures]
        finally:
            fabric.close()
        assert all(outcome.attempts == 2 for outcome in outcomes)
        # One batch of two, then one lone submission per reassigned lease.
        assert [len(batch) for batch in flaky.batches] == [2]
        assert len(flaky.submitted) == 4
        assert fabric.counters.give_ups == 0

    def test_a_full_member_queues_leases_until_a_slot_frees(self):
        node = _HeldNode(capacity=2)
        fabric = FabricBackend(node)
        try:
            futures = [fabric.submit(_request(f"q{i}")) for i in range(3)]
            assert len(node.held) == 2
            assert fabric.health_snapshot()["pending_leases"] == 1
            node.release()
            # The freed slot takes the queued lease.  (The pump thread may
            # be the one that hands it over, hence the wait.)
            _until(lambda: len(node.held) == 1)
            assert node.submitted[-1].query.name == "q2"
            node.release()
            assert all(future.result(timeout=10.0).latency == 1.0 for future in futures)
        finally:
            fabric.close()

    def test_double_settlement_is_impossible(self):
        # A lease whose node dies after the reply raced in must not resolve
        # the outer future twice; _settle tolerates the race structurally.
        node = _ScriptedNode()
        fabric = FabricBackend(node)
        try:
            future = fabric.submit(_request())
            outcome = future.result(timeout=10.0)
            # Simulate a late duplicate settlement attempt.
            from repro.exec.fabric import _settle

            _settle(future, exc=TransientBackendError("late loss"))
            assert future.result() is outcome
        finally:
            fabric.close()


    def test_concurrent_submitters_lose_no_count(self):
        # Submitters, completion callbacks and the pump all dispatch at once;
        # every count is written under the coordinator's lock.
        node = _ScriptedNode(capacity=3, script=[TransientBackendError("blip"), None, None, None] * 10)
        fabric = FabricBackend(node, max_failures=100, max_lease_attempts=20)
        futures = [[] for _ in range(8)]

        def submit_all(index):
            for _ in range(100):
                futures[index].append(fabric.submit(_request(f"q{index}")))

        submitters = [threading.Thread(target=submit_all, args=(index,)) for index in range(8)]
        try:
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=30.0)
            outcomes = [future.result(timeout=30.0) for batch in futures for future in batch]
            report = fabric.health_snapshot()
        finally:
            fabric.close()
        assert len(outcomes) == report["submissions"] == report["completed"] == 800
        assert report["lease_reassignments"] == 10 and report["give_ups"] == 0
        assert report["dispatched"] == report["completed"] + report["lease_reassignments"]
        assert sum(outcome.attempts - 1 for outcome in outcomes) == 10
        assert report["member"]["occupancy"] == 0 and report["pending_leases"] == 0


# ------------------------------------------------------------------ probation + degradation
class TestProbationAndDegradation:
    """The member's probation: after ``max_failures`` infrastructure failures
    in a row it sits out a doubling period while leases wait (they never go to
    the fallback while it is healthy), then takes one half-open probe."""

    def test_failing_node_enters_probation_and_recovers_half_open(self):
        clock = _FakeClock()
        node = _HeldNode(capacity=2)
        fallback = _ScriptedNode(name="fallback")
        fabric = FabricBackend(
            node, fallback=fallback, max_failures=1, probation_seconds=5.0, clock=clock
        )
        try:
            first = fabric.submit(_request("q0"))
            node.held.pop(0).set_exception(TransientBackendError("down"))
            member = fabric.health_snapshot()["member"]
            assert member["on_probation"] and member["probations"] == 1
            second = fabric.submit(_request("q1"))
            time.sleep(0.1)  # several pump passes: a healthy member on probation
            assert len(node.submitted) == 1 and not fallback.submitted
            assert fabric.health_snapshot()["pending_leases"] == 2
            # Probation lapses -> half-open: one probe, though two slots are free.
            clock.advance(5.1)
            _until(lambda: len(node.held) == 1)
            time.sleep(0.1)
            assert len(node.held) == 1
            assert node.submitted[-1].query.name == "q0"
            # A successful probe clears the record and reopens every slot.
            node.release()
            _until(lambda: len(node.held) == 1)
            node.release()
            outcomes = [first.result(timeout=10.0), second.result(timeout=10.0)]
            member = fabric.health_snapshot()["member"]
        finally:
            fabric.close()
        assert [outcome.attempts for outcome in outcomes] == [2, 1]
        assert not member["on_probation"] and member["probations"] == member["failures"] == 0
        assert not fallback.submitted and fabric.counters.degraded_executions == 0

    def test_failed_probe_doubles_the_next_probation(self):
        clock = _FakeClock()
        flaky = _ScriptedNode(script=[BrokenExecutor("pool died")] * 2)
        fabric = FabricBackend(
            flaky, max_failures=1, probation_seconds=10.0, max_lease_attempts=5, clock=clock
        )
        try:
            future = fabric.submit(_request("q0"))  # failure -> 10 s probation
            assert len(flaky.submitted) == 1 and not future.done()
            clock.advance(11.0)
            _until(lambda: len(flaky.submitted) == 2)  # the probe fails -> 20 s
            assert fabric.health_snapshot()["member"]["probations"] == 2
            clock.advance(11.0)  # 11 < 20: still on probation
            time.sleep(0.1)
            assert len(flaky.submitted) == 2 and not future.done()
            clock.advance(10.0)  # 21 > 20: the next probe goes through
            outcome = future.result(timeout=10.0)
        finally:
            fabric.close()
        assert outcome.attempts == 3 and len(flaky.submitted) == 3

    def test_a_transient_error_counts_against_health(self):
        clock = _FakeClock()
        flaky = _ScriptedNode(script=[TransientBackendError("blip")])
        fabric = FabricBackend(flaky, max_failures=1, clock=clock)
        try:
            future = fabric.submit(_request())
            member = fabric.health_snapshot()["member"]
            clock.advance(1.1)
            outcome = future.result(timeout=10.0)
        finally:
            fabric.close()
        assert member["on_probation"] and member["probations"] == 1
        assert outcome.attempts == 2

    def test_a_failure_below_max_failures_is_counted_but_not_benched(self):
        node = _HeldNode()
        fabric = FabricBackend(node, max_failures=3, clock=_FakeClock())
        try:
            future = fabric.submit(_request())
            node.held.pop(0).set_exception(BrokenExecutor("hiccup"))
            # Reassigned to the member at once: one failure benches nothing.
            assert len(node.held) == 1
            member = fabric.health_snapshot()["member"]
            node.release()
            outcome = future.result(timeout=10.0)
            cleared = fabric.health_snapshot()["member"]
        finally:
            fabric.close()
        assert member["failures"] == 1 and not member["on_probation"]
        assert outcome.latency == 1.0 and outcome.attempts == 2
        assert cleared["failures"] == 0

    def test_a_plan_error_neither_reassigns_nor_charges_the_member(self):
        failing = _ScriptedNode(script=[RuntimeError("bad plan")])
        fabric = FabricBackend(failing, max_failures=1)
        try:
            with pytest.raises(RuntimeError, match="bad plan"):
                fabric.submit(_request()).result(timeout=10.0)
            member = fabric.health_snapshot()["member"]
        finally:
            fabric.close()
        assert member["failures"] == 0 and not member["on_probation"]
        assert member["occupancy"] == 0 and len(failing.submitted) == 1

    def test_all_nodes_lost_degrades_to_fallback(self):
        node = _ScriptedNode()
        node._healthy = False
        fallback = _ScriptedNode(name="fallback")
        fabric = FabricBackend(node, fallback=fallback)
        try:
            outcome = fabric.submit(_request()).result(timeout=10.0)
        finally:
            fabric.close()
        assert isinstance(outcome, ExecutionOutcome)
        assert fabric.counters.degraded_executions == 1
        assert not node.submitted and len(fallback.submitted) == 1

    def test_no_nodes_and_no_fallback_leaves_work_queued_not_lost(self):
        node = _ScriptedNode()
        node._healthy = False
        fabric = FabricBackend(node)
        try:
            future = fabric.submit(_request())
            assert not future.done()
            # The node comes back; the queued lease drains.
            node._healthy = True
            fabric._dispatch()
            assert future.result(timeout=10.0).latency == 1.0
        finally:
            fabric.close()

    def test_constructor_validation(self):
        with pytest.raises(OptimizationError):
            FabricBackend(_ScriptedNode(), max_failures=0)
        with pytest.raises(OptimizationError):
            FabricBackend(_ScriptedNode(), max_lease_attempts=0)


# ------------------------------------------------------------------ members that lose workers
class _HealingNode(_ScriptedNode):
    """Node double that loses a worker and replaces it itself, as a process
    pool does: it stays healthy and counts ``replacements``.  A restart call
    from the coordinator is recorded, and must never come."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.replacements = 0
        self.restarts = 0

    def lose_worker(self):
        self.replacements += 1

    def rebuild(self):
        self.restarts += 1


class TestMemberRebuild:
    """The member rebuilds its own dead workers; the coordinator restarts no
    member, and degrades once it is unhealthy for good."""

    def test_a_member_that_replaced_an_idle_worker_serves_the_next_lease(self):
        node = _HealingNode()
        fallback = _ScriptedNode(name="fallback")
        fabric = FabricBackend(node, fallback=fallback)
        try:
            fabric.submit(_request("q0")).result(timeout=10.0)
            node.lose_worker()
            outcome = fabric.submit(_request("q1")).result(timeout=10.0)
            report = fabric.health_snapshot()
        finally:
            fabric.close()
        assert outcome.latency == 1.0 and outcome.attempts == 1
        assert node.restarts == 0 and [r.query.name for r in node.submitted] == ["q0", "q1"]
        assert not fallback.submitted and report["degraded_executions"] == 0
        assert report["lease_reassignments"] == 0
        assert report["member"]["live"] and report["member"]["replacements"] == 1

    def test_a_member_dead_for_good_degrades_the_run_at_once(self):
        node = _HealingNode()
        node._healthy = False
        fallback = _ScriptedNode(name="fallback")
        fabric = FabricBackend(node, fallback=fallback, clock=_FakeClock())
        try:
            # The fake clock never moves: no wait stands between the member
            # going and the fallback taking the leases.
            outcomes = [fabric.submit(_request(f"q{i}")).result(timeout=10.0) for i in range(3)]
        finally:
            fabric.close()
        assert [outcome.latency for outcome in outcomes] == [1.0] * 3
        assert node.restarts == 0
        assert not node.submitted and len(fallback.submitted) == 3
        assert fabric.counters.degraded_executions == 3

    def test_an_unhealthy_member_is_never_restarted_even_with_work_queued(self):
        node = _HealingNode()
        fabric = FabricBackend(node)
        try:
            fabric.submit(_request("q0")).result(timeout=10.0)
            node._healthy = False
            time.sleep(0.1)  # several pump passes over an empty queue
            future = fabric.submit(_request("q1"))
            time.sleep(0.1)  # and over a queued lease with nowhere to go
            assert not future.done() and fabric.health_snapshot()["pending_leases"] == 1
            assert node.restarts == 0 and len(node.submitted) == 1
        finally:
            fabric.close()
        with pytest.raises(OptimizationError, match="closed"):
            future.result(timeout=10.0)


# ------------------------------------------------------------------ submit racing close
class TestSubmitRacingClose:
    def test_a_submit_that_loses_the_race_with_close_raises_and_strands_nothing(
        self, monkeypatch
    ):
        from repro.exec import fabric as fabric_module

        fabric = FabricBackend(_HeldNode())

        class _ClosingLease(fabric_module._Lease):
            # close() runs after submit_batch made its leases but before it
            # queues them.
            def __init__(self, request):
                super().__init__(request)
                fabric.close()

        monkeypatch.setattr(fabric_module, "_Lease", _ClosingLease)
        with pytest.raises(OptimizationError, match="closed"):
            fabric.submit(_request())
        assert not fabric._pending and fabric.counters.submissions == 0

    def test_a_lease_that_fails_after_close_settles_with_its_failure(self):
        node = _HeldNode()
        fabric = FabricBackend(node)
        future = fabric.submit(_request())
        fabric.close()
        # A pool's close() kills what still runs: the lease cannot reassign.
        node.held[0].set_exception(BrokenExecutor("worker killed at close"))
        with pytest.raises(BrokenExecutor, match="killed at close"):
            future.result(timeout=10.0)
        assert not fabric._pending


# ------------------------------------------------------------------ state machine
class _PlanError(Exception):
    """A genuine execution error: propagated, never retried."""


class _MachineNode:
    """Member double for :class:`FabricMachine`: futures wait for the machine
    to settle them (``hold=False`` completes them at once, as the inline
    fallback does), and a dispatch while unhealthy is counted."""

    def __init__(self, name, capacity, dispatches, hold=True):
        self.name = name
        self._capacity = capacity
        self._dispatches = dispatches
        self._hold = hold
        self.held = []
        self.alive = True
        self.unhealthy_dispatches = 0

    def capacity(self):
        return self._capacity

    def healthy(self):
        return self.alive

    def close(self):
        pass

    def submit(self, request):
        self.unhealthy_dispatches += not self.alive
        self._dispatches[id(request)] += 1
        future = Future()
        if self._hold:
            self.held.append(future)
        else:
            future.set_result(ExecutionOutcome(latency=1.0))
        return future

    def submit_batch(self, requests):
        return [self.submit(request) for request in requests]

    def open(self):
        """Held futures nobody settled or cancelled yet."""
        return [future for future in self.held if not future.done()]

    def die(self):
        """Dead for good: unhealthy, and every execution on it is lost."""
        self.alive = False
        for future in self.open():
            future.set_exception(BrokenExecutor("member died"))


class FabricMachine(RuleBasedStateMachine):
    """The coordinator over a member that fails transiently, dies for good,
    raises plan errors or hangs past the request deadline.

    The pump thread is switched off: every step ends with one pump pass (the
    watchdog, then dispatch) on the test thread, so a run is a function of
    its steps alone and hypothesis can shrink it.
    """

    def __init__(self):
        super().__init__()
        self.clock = _FakeClock()
        #: Dispatches of each request (by identity) to the member or the fallback.
        self.dispatches = Counter()
        self.leases = []
        self.member = None
        self.fallback = None
        self.fabric = None

    @initialize(capacity=st.integers(1, 3), fallback=st.booleans())
    def build(self, capacity, fallback):
        self.member = _MachineNode("member", capacity, self.dispatches)
        if fallback:
            self.fallback = _MachineNode("fallback", 1, self.dispatches, hold=False)
        self.fabric = FabricBackend(
            self.member, fallback=self.fallback, max_failures=2, probation_seconds=1.0,
            max_lease_attempts=3, request_deadline=1.0, clock=self.clock,
        )
        self.fabric._ensure_pump = lambda: None

    def _pump(self):
        self.fabric._expire_hung()
        self.fabric._dispatch()

    @rule(size=st.integers(1, 3))
    def submit(self, size):
        requests = [_request(f"q{len(self.leases)}") for _ in range(size)]
        self.leases.extend(zip(requests, self.fabric.submit_batch(requests)))
        self._pump()

    @precondition(lambda self: self.member.open())
    @rule(data=st.data(), reply=st.sampled_from(["clean", "transient", "plan error"]))
    def reply(self, data, reply):
        future = data.draw(st.sampled_from(self.member.open()))
        if reply == "clean":
            future.set_result(ExecutionOutcome(latency=1.0))
        elif reply == "transient":
            future.set_exception(TransientBackendError("blip"))
        else:
            future.set_exception(_PlanError("bad plan"))
        self._pump()

    @precondition(lambda self: self.fallback is not None and self.member.alive)
    @rule()
    def die(self):
        # Without a fallback the member stays: leases would wait for ever.
        self.member.die()
        self._pump()

    @rule(seconds=st.sampled_from([0.5, 1.5, 4.0]))
    def wait(self, seconds):
        # Held executions past the deadline hang; probation lapses.
        self.clock.advance(seconds)
        self._pump()

    @invariant()
    def no_lease_goes_to_an_unhealthy_member(self):
        assert self.member is None or self.member.unhealthy_dispatches == 0

    @invariant()
    def with_no_healthy_member_nothing_waits(self):
        if self.fallback is not None and not self.member.alive:
            assert not self.fabric._pending

    @invariant()
    def attempts_are_reassignments_plus_one(self):
        for request, future in self.leases:
            if future.done() and future.exception() is None:
                assert future.result().attempts == self.dispatches[id(request)]

    def teardown(self):
        if self.fabric is None:
            return
        try:
            for _ in range(100):
                if all(future.done() for _, future in self.leases):
                    break
                for future in self.member.open():
                    future.set_result(ExecutionOutcome(latency=1.0))
                self.clock.advance(100.0)
                self._pump()
            futures = [future for _, future in self.leases]
            assert all(future.done() for future in futures)
            # Settled exactly once: a second delivery would count twice.
            errors = [future.exception() for future in futures if future.exception()]
            plan_errors = sum(isinstance(error, _PlanError) for error in errors)
            counters = self.fabric.counters
            assert counters.give_ups == len(errors) - plan_errors
            assert counters.completed == len(futures) - len(errors)
            assert counters.submissions == len(futures)
            assert sum(self.dispatches.values()) == (
                counters.lease_reassignments + counters.completed + plan_errors
            )
            assert not self.fabric._pending and not self.fabric._flights
            assert self.fabric.health_snapshot()["member"]["occupancy"] == 0
        finally:
            self.fabric.close()


TestFabricMachine = FabricMachine.TestCase
TestFabricMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ------------------------------------------------------------------ health surface
class TestHealthSurface:
    def test_health_snapshot_shape(self):
        fabric = FabricBackend(_ScriptedNode())
        try:
            fabric.submit(_request()).result(timeout=10.0)
            report = fabric.health_snapshot()
        finally:
            fabric.close()
        assert report["submissions"] == 1 and report["completed"] == 1
        for key in ("lease_reassignments", "give_ups", "pending_leases"):
            assert key in report
        assert report["member"]["live"] and report["member"]["replacements"] == 0

    def test_health_snapshot_keys_are_the_counters_and_the_member(self):
        fabric = FabricBackend(_ScriptedNode())
        try:
            report = fabric.health_snapshot()
        finally:
            fabric.close()
        assert set(report) == {
            "submissions", "dispatched", "completed", "lease_reassignments",
            "degraded_executions", "give_ups", "hangs", "member", "pending_leases",
        }
        assert set(report["member"]) == {
            "live", "occupancy", "failures", "on_probation", "probations", "replacements",
        }

    def test_backend_health_walker_reports_the_fabric_layer(self):
        fabric = FabricBackend(_ScriptedNode())
        try:
            report = backend_health(fabric)
        finally:
            fabric.close()
        assert "fabric" in report
        assert report["fabric"]["member"]["live"]


# ------------------------------------------------------------------ a thread member
class TestThreadMember:
    def test_a_group_runs_as_one_pool_task(self, tiny_workload, monkeypatch):
        calls = []
        perform_batch = backend_module.perform_batch

        def recording(database, requests, tracer=None):
            calls.append(len(requests))
            return perform_batch(database, requests, tracer)

        monkeypatch.setattr(backend_module, "perform_batch", recording)
        database = tiny_workload.database.snapshot()
        query = tiny_workload.queries[0]
        request = ExecutionRequest(query=query, plan=database.plan(query))
        fabric = FabricBackend(
            ThreadPoolBackend(database, max_workers=2), fallback=InlineBackend(database)
        )
        try:
            outcomes = [
                future.result(timeout=30.0) for future in fabric.submit_batch([request] * 3)
            ]
            report = fabric.health_snapshot()
        finally:
            fabric.close()
        assert calls == [3]
        assert [outcome.attempts for outcome in outcomes] == [1, 1, 1]
        assert len({outcome.latency for outcome in outcomes}) == 1
        assert report["dispatched"] == report["completed"] == 3
        assert report["degraded_executions"] == 0

    def test_a_closed_member_degrades_to_the_inline_fallback(self, tiny_workload):
        database = tiny_workload.database.snapshot()
        query = tiny_workload.queries[0]
        request = ExecutionRequest(query=query, plan=database.plan(query))
        member = ThreadPoolBackend(database, max_workers=2)
        fabric = FabricBackend(member, fallback=InlineBackend(database))
        try:
            served = fabric.submit(request).result(timeout=30.0)
            member.close()
            degraded = fabric.submit(request).result(timeout=30.0)
            report = fabric.health_snapshot()
        finally:
            fabric.close()
        assert degraded.latency == served.latency and degraded.attempts == 1
        assert report["degraded_executions"] == 1 and report["dispatched"] == 1
        assert not report["member"]["live"] and report["give_ups"] == 0


# ------------------------------------------------------------------ process members
class _PidDatabase:
    """Database double for a process pool: an execution's latency is the pid
    of the worker that ran it, and ``hold`` queries wait for ``release``."""

    def __init__(self, release: str) -> None:
        self.release = release

    def execute(self, query, plan, timeout=None):
        if query.name == "hold":
            while not os.path.exists(self.release):
                time.sleep(0.01)
        return ExecutionOutcome(latency=float(os.getpid()), timeout=timeout)


def _pids(pool) -> set:
    return {worker.process.pid for worker in pool._workers}


@pytest.mark.slow
class TestProcessMembers:
    """The coordinator over a real process pool."""

    def test_a_dead_idle_worker_costs_its_busy_sibling_nothing(self, tmp_path):
        release = tmp_path / "release"
        backend = make_backend(
            ExecutionServiceConfig(backend="process", max_workers=2, supervised=True),
            _PidDatabase(str(release)),
        )
        try:
            member = backend.member
            pool = member._ensure_pool()
            held = backend.submit(_request("hold"))
            _until(lambda: any(worker.future is not None for worker in pool._workers))
            [busy] = [worker.process.pid for worker in pool._workers if worker.future]
            [idle] = [worker.process.pid for worker in pool._workers if not worker.future]
            os.kill(idle, signal.SIGKILL)
            _until(lambda: len(_pids(pool) - {busy, idle}) == 1, timeout=30.0)
            [replacement] = _pids(pool) - {busy, idle}
            served = backend.submit(_request("next")).result(timeout=60.0)
            assert not held.done()
            release.touch()
            long = held.result(timeout=60.0)
            report = backend.health_snapshot()
        finally:
            release.touch()
            backend.close()
        assert served.latency == replacement and served.attempts == 1
        assert long.latency == busy and long.attempts == 1
        assert report["lease_reassignments"] == 0 and report["degraded_executions"] == 0
        assert report["member"]["live"] and report["member"]["replacements"] == 1

    def test_a_member_dead_past_its_rebuilds_degrades_the_run_at_once(self, tmp_path):
        backend = make_backend(
            ExecutionServiceConfig(backend="process", max_workers=1, supervised=True),
            _PidDatabase(str(tmp_path / "unused")),
        )
        try:
            member = backend.member
            pool = member._ensure_pool()
            killed = set()
            for _ in range(MAX_REBUILDS + 1):
                served = backend.submit(_request("q")).result(timeout=60.0)
                assert served.latency not in killed and member.healthy()
                killed.add(served.latency)
                os.kill(int(served.latency), signal.SIGKILL)
                _until(
                    lambda: member.replacements == len(killed) or pool.broken, timeout=30.0
                )
            assert pool.broken and not member.healthy()
            degraded = backend.submit(_request("q")).result(timeout=60.0)
            report = backend.health_snapshot()
        finally:
            backend.close()
        assert degraded.latency == os.getpid() and degraded.attempts == 1
        assert report["degraded_executions"] == 1 and report["lease_reassignments"] == 0
        assert not report["member"]["live"]
        assert report["member"]["replacements"] == MAX_REBUILDS

    def test_a_member_whose_workers_died_idle_replaces_them_in_place(self):
        workload = build_job_workload(scale=0.05, seed=0, num_queries=4)
        database = workload.database
        requests = [
            ExecutionRequest(query=query, plan=database.plan(query)) for query in workload.queries
        ]
        backend = make_backend(
            ExecutionServiceConfig(backend="process", max_workers=2, supervised=True),
            database, workload.queries,
        )
        try:
            for future in [backend.submit(request) for request in requests]:
                future.result(timeout=60.0)
            member = backend.member
            pool = member._ensure_pool()
            # Kill both workers while neither holds a lease: no lease fails on
            # them, and the pool replaces each in its own slot.
            _until(lambda: all(worker.future is None for worker in pool._workers))
            dead = _pids(pool)
            for pid in dead:
                os.kill(pid, signal.SIGKILL)
            _until(lambda: member.replacements == 2, timeout=30.0)
            assert member.healthy() and not _pids(pool) & dead
            outcomes = [
                future.result(timeout=60.0)
                for future in [backend.submit(request) for request in requests * 2]
            ]
            report = backend.health_snapshot()
        finally:
            backend.close()
        inline = InlineBackend(database)
        expected = [inline.submit(request).result() for request in requests * 2]
        assert [(o.latency, o.timed_out) for o in outcomes] == [
            (o.latency, o.timed_out) for o in expected
        ]
        assert report["degraded_executions"] == 0 and report["lease_reassignments"] == 0
        assert report["give_ups"] == 0
        assert report["member"]["live"] and report["member"]["replacements"] == 2
