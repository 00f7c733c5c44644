"""Fabric suite: lease failover, probation, replicas, rebuild of lost members.

Covers the coordinator's lease machinery against scripted member doubles
(reassignment off a lost member, bounded attempts, probation/half-open
rejoin, rebuild of a dead member at dispatch, degradation to the inline
fallback, grouped batch dispatch), the
same coordinator over in-process replicas
(``ExecutionServiceConfig(replicas=N)``: least-loaded routing, health
charging, unique slot names), and over real process-pool members whose
workers die while they hold no lease.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import BrokenExecutor, Future

import pytest

from repro.core.config import ExecutionServiceConfig
from repro.core.protocol import ExecutionOutcome
from repro.exceptions import OptimizationError
from repro.exec import (
    ExecutionRequest,
    FabricBackend,
    InlineBackend,
    RemoteExecutionError,
    TransientBackendError,
    backend_health,
    make_backend,
)
from repro.exec.fabric import MAX_REBUILDS
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
        fabric = FabricBackend([node])
        try:
            outcome = fabric.submit(_request()).result(timeout=10.0)
        finally:
            fabric.close()
        assert outcome.attempts == 1
        assert fabric.counters.lease_reassignments == 0

    def test_lost_node_reassigns_the_lease_and_stamps_attempts(self):
        flaky = _ScriptedNode(name="node[0]", script=[TransientBackendError("link down")])
        steady = _ScriptedNode(name="node[1]")
        fabric = FabricBackend([flaky, steady], max_failures=3)
        try:
            outcome = fabric.submit(_request()).result(timeout=10.0)
        finally:
            fabric.close()
        assert outcome.attempts == 2  # reassignment is visible, not silent
        assert fabric.counters.lease_reassignments == 1
        # The retry landed on the *other* node (last_slot avoidance).
        assert len(flaky.submitted) == 1
        assert len(steady.submitted) == 1

    def test_plan_error_propagates_untouched_without_reassignment(self):
        node = _ScriptedNode(script=[RemoteExecutionError("plan died", remote_traceback="tb")])
        other = _ScriptedNode(name="node[1]")
        fabric = FabricBackend([node, other])
        try:
            exc = fabric.submit(_request()).exception(timeout=10.0)
        finally:
            fabric.close()
        assert isinstance(exc, RemoteExecutionError)
        assert exc.remote_traceback == "tb"
        assert fabric.counters.lease_reassignments == 0
        assert not other.submitted

    def test_exhausted_lease_gives_up_with_the_infra_error(self):
        node = _ScriptedNode(script=[TransientBackendError("down"), TransientBackendError("down")])
        fabric = FabricBackend([node], max_lease_attempts=2, max_failures=10)
        try:
            exc = fabric.submit(_request()).exception(timeout=10.0)
        finally:
            fabric.close()
        assert isinstance(exc, TransientBackendError)
        assert fabric.counters.give_ups == 1

    def test_exhausted_lease_falls_back_inline_when_available(self):
        node = _ScriptedNode(script=[TransientBackendError("down")] * 3)
        fallback = _ScriptedNode(name="fallback")
        fabric = FabricBackend([node], max_lease_attempts=1, fallback=fallback)
        try:
            outcome = fabric.submit(_request()).result(timeout=10.0)
        finally:
            fabric.close()
        assert outcome.attempts == 2
        assert fabric.counters.degraded_executions == 1
        assert len(fallback.submitted) == 1

    def test_batch_dispatches_as_one_group_to_one_node(self):
        a = _ScriptedNode(name="node[0]", capacity=4)
        b = _ScriptedNode(name="node[1]", capacity=4)
        fabric = FabricBackend([a, b])
        try:
            futures = fabric.submit_batch([_request(), _request(), _request()])
            for future in futures:
                future.result(timeout=10.0)
        finally:
            fabric.close()
        # Exactly one node received the whole group, batched.
        batched = a.batches or b.batches
        assert len(batched) == 1 and len(batched[0]) == 3
        assert not (a.batches and b.batches)

    def test_failed_batch_disbands_and_each_lease_reassigns(self):
        flaky = _ScriptedNode(
            name="node[0]", capacity=4, script=[TransientBackendError("down")] * 2
        )
        steady = _ScriptedNode(name="node[1]", capacity=4)
        fabric = FabricBackend([flaky, steady], max_failures=5)
        try:
            futures = fabric.submit_batch([_request(), _request()])
            outcomes = [future.result(timeout=10.0) for future in futures]
        finally:
            fabric.close()
        assert all(outcome.attempts == 2 for outcome in outcomes)
        assert len(steady.submitted) == 2
        assert fabric.counters.give_ups == 0

    def test_double_settlement_is_impossible(self):
        # A lease whose node dies after the reply raced in must not resolve
        # the outer future twice; _settle tolerates the race structurally.
        node = _ScriptedNode()
        fabric = FabricBackend([node])
        try:
            future = fabric.submit(_request())
            outcome = future.result(timeout=10.0)
            # Simulate a late duplicate settlement attempt.
            from repro.exec.fabric import _settle

            _settle(future, exc=TransientBackendError("late loss"))
            assert future.result() is outcome
        finally:
            fabric.close()


# ------------------------------------------------------------------ probation + degradation
class TestProbationAndDegradation:
    def test_failing_node_enters_probation_and_recovers_half_open(self):
        clock = _FakeClock()
        flaky = _ScriptedNode(name="node[0]", script=[TransientBackendError("down")])
        steady = _ScriptedNode(name="node[1]")
        fabric = FabricBackend(
            [flaky, steady], max_failures=1, probation_seconds=5.0, clock=clock
        )
        try:
            fabric.submit(_request()).result(timeout=10.0)
            flaky_slot = fabric._slots[0]
            assert flaky_slot.on_probation(clock())
            assert not flaky_slot.eligible(clock())
            # Until probation lapses, new work routes around the node.
            fabric.submit(_request()).result(timeout=10.0)
            assert len(flaky.submitted) == 1
            # Probation lapses -> half-open: the node may take one probe.
            clock.advance(5.1)
            assert flaky_slot.probing(clock())
            assert flaky_slot.eligible(clock())
            fabric.submit(_request("probe_q")).result(timeout=10.0)
            # A successful probe fully clears probation state.
            assert flaky_slot.probation_until is None
            assert flaky_slot.probations == 0
        finally:
            fabric.close()

    def test_all_nodes_lost_degrades_to_fallback(self):
        node = _ScriptedNode()
        node._healthy = False
        fallback = _ScriptedNode(name="fallback")
        fabric = FabricBackend([node], fallback=fallback, degrade_after=0.0)
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
        fabric = FabricBackend([node])
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
            FabricBackend([])
        with pytest.raises(OptimizationError):
            FabricBackend([_ScriptedNode()], max_failures=0)
        with pytest.raises(OptimizationError):
            FabricBackend([_ScriptedNode()], max_lease_attempts=0)


# ------------------------------------------------------------------ replica coordination
class TestReplicaCoordinator:
    """The coordinator over in-process replicas, as ``replicas > 1`` builds it:
    members failing with pool-level errors."""

    def test_failed_probe_doubles_the_next_probation(self):
        clock = _FakeClock()
        flaky = _ScriptedNode(name="flaky", script=[BrokenExecutor("pool died")] * 5)
        spare = _ScriptedNode(name="spare")
        fabric = FabricBackend(
            [flaky, spare], max_failures=1, probation_seconds=10.0, clock=clock
        )
        try:
            fabric.submit(_request("q0")).result(timeout=10.0)  # failure -> 10 s probation
            clock.advance(11.0)
            fabric.submit(_request("q1")).result(timeout=10.0)  # probe fails -> 20 s
            assert len(flaky.submitted) == 2
            clock.advance(11.0)  # 11 < 20: still on probation
            fabric.submit(_request("q2")).result(timeout=10.0)
            assert len(flaky.submitted) == 2
            clock.advance(10.0)  # 21 > 20: the next probe goes through
            fabric.submit(_request("q3")).result(timeout=10.0)
            assert len(flaky.submitted) == 3
        finally:
            fabric.close()
        assert len(spare.submitted) == 4  # every lease finished on the spare

    def test_a_transient_error_counts_against_health(self):
        flaky = _ScriptedNode(name="flaky", script=[TransientBackendError("blip")])
        spare = _ScriptedNode(name="spare")
        fabric = FabricBackend([flaky, spare], max_failures=1, clock=_FakeClock())
        try:
            assert fabric.submit(_request()).result(timeout=10.0).latency == 1.0
            status = fabric.statuses()[0]
        finally:
            fabric.close()
        assert status["on_probation"] and status["probations"] == 1
        assert len(spare.submitted) == 1

    def test_a_failure_below_max_failures_is_counted_but_not_benched(self):
        clock = _FakeClock()
        flaky = _ScriptedNode(name="flaky", script=[BrokenExecutor("hiccup")])
        fabric = FabricBackend([flaky, _ScriptedNode(name="spare")], max_failures=3, clock=clock)
        try:
            outcome = fabric.submit(_request()).result(timeout=10.0)
            status = fabric.statuses()[0]
            assert fabric._slots[0].eligible(clock())
        finally:
            fabric.close()
        assert outcome.latency == 1.0 and outcome.attempts == 2
        assert status["failures"] == 1 and not status["on_probation"]

    def test_a_plan_error_neither_reassigns_nor_charges_the_replica(self):
        failing = _ScriptedNode(name="failing", script=[RuntimeError("bad plan")])
        spare = _ScriptedNode(name="spare")
        fabric = FabricBackend([failing, spare], max_failures=1)
        try:
            with pytest.raises(RuntimeError, match="bad plan"):
                fabric.submit(_request()).result(timeout=10.0)
            status = fabric.statuses()[0]
        finally:
            fabric.close()
        assert status["failures"] == 0 and not status["on_probation"]
        assert status["occupancy"] == 0 and not spare.submitted

    def test_least_loaded_routing_breaks_ties_by_name(self):
        right = _HeldNode(name="right", capacity=2)
        left = _HeldNode(name="left", capacity=2)
        fabric = FabricBackend([right, left])
        try:
            futures, occupancy = [], []
            for i in range(4):
                futures.append(fabric.submit(_request(f"q{i}")))
                occupancy.append(tuple(status["occupancy"] for status in fabric.statuses()))
            # (right, left): a tie goes to the smaller name whatever the
            # member order, then the load alternates the members.
            assert occupancy == [(0, 1), (1, 1), (1, 2), (2, 2)]
            # Both members are full: the fifth lease waits in the queue...
            futures.append(fabric.submit(_request("q4")))
            assert fabric.health_snapshot()["pending_leases"] == 1
            # ...until a member frees a slot.  (The fabric's pump thread may
            # be the one that hands a lease to its member, hence the waits.)
            _until(lambda: len(right.held) == 2)
            right.release()
            _until(lambda: len(right.held) == 1)
            assert right.submitted[-1].query.name == "q4"
            _until(lambda: len(left.held) == 2)
            right.release()
            left.release()
            assert all(future.result(timeout=10.0).latency == 1.0 for future in futures)
        finally:
            fabric.close()

    def test_same_named_members_get_unique_slot_names(self):
        replicas = FabricBackend([_ScriptedNode(name="inline"), _ScriptedNode(name="inline")])
        nodes = FabricBackend([_ScriptedNode(name="node[0]"), _ScriptedNode(name="node[1]")])
        try:
            assert [status["name"] for status in replicas.statuses()] == ["inline[0]", "inline[1]"]
            assert [status["name"] for status in nodes.statuses()] == ["node[0]", "node[1]"]
        finally:
            replicas.close()
            nodes.close()


# ------------------------------------------------------------------ rebuild of dead members
class _RebuildableNode(_ScriptedNode):
    """Node double that can die while idle and be rebuilt in place.

    With ``revives=False`` a rebuild leaves it dead, like a member whose
    fresh workers die again at once.
    """

    def __init__(self, *args, revives=True, **kwargs):
        super().__init__(*args, **kwargs)
        self.revives = revives
        self.rebuilds = 0

    def die(self):
        self._healthy = False

    def rebuild(self):
        self.rebuilds += 1
        self._healthy = self.revives


class TestMemberRebuild:
    """Dispatch rebuilds an unhealthy member that offers ``rebuild()``,
    whether or not a lease ever failed on it."""

    def test_a_member_that_died_idle_is_rebuilt_and_serves_the_next_lease(self):
        node = _RebuildableNode()
        fallback = _ScriptedNode(name="fallback")
        fabric = FabricBackend([node], fallback=fallback, degrade_after=0.0)
        try:
            fabric.submit(_request("q0")).result(timeout=10.0)
            node.die()
            outcome = fabric.submit(_request("q1")).result(timeout=10.0)
            report = fabric.health_snapshot()
        finally:
            fabric.close()
        assert outcome.latency == 1.0 and outcome.attempts == 1
        assert node.rebuilds == 1 and [r.query.name for r in node.submitted] == ["q0", "q1"]
        assert not fallback.submitted and report["degraded_executions"] == 0
        assert report["rebuilds"] == 1 and report["lease_reassignments"] == 0
        assert report["live_nodes"] == 1 and report["nodes"][0]["rebuilds"] == 1

    def test_only_the_dead_member_is_rebuilt_and_both_serve_again(self):
        dead = _HeldNode(name="a")
        live = _HeldNode(name="b")
        dead.rebuild = lambda: setattr(dead, "_healthy", True)
        dead._healthy = False
        fabric = FabricBackend([dead, live])
        try:
            futures = [fabric.submit(_request(f"q{i}")) for i in range(2)]
            # Rebuilt before the first dispatch: the two leases spread over
            # both members instead of queueing behind the survivor.
            assert len(dead.held) == len(live.held) == 1
            dead.release()
            live.release()
            assert all(future.result(timeout=10.0).latency == 1.0 for future in futures)
            statuses = fabric.statuses()
        finally:
            fabric.close()
        assert [status["rebuilds"] for status in statuses] == [1, 0]
        assert fabric.counters.rebuilds == 1

    def test_rebuilds_stop_at_max_rebuilds_and_the_run_degrades(self):
        node = _RebuildableNode(revives=False)
        node.die()
        fallback = _ScriptedNode(name="fallback")
        fabric = FabricBackend([node], fallback=fallback, degrade_after=0.0)
        try:
            outcomes = [fabric.submit(_request(f"q{i}")).result(timeout=10.0) for i in range(3)]
        finally:
            fabric.close()
        assert [outcome.latency for outcome in outcomes] == [1.0] * 3
        assert node.rebuilds == fabric.counters.rebuilds == MAX_REBUILDS
        assert not node.submitted and len(fallback.submitted) == 3
        assert fabric.counters.degraded_executions == 3

    def test_a_dead_member_without_rebuild_is_routed_around(self):
        dead = _ScriptedNode(name="a")
        dead._healthy = False
        spare = _ScriptedNode(name="b")
        fabric = FabricBackend([dead, spare])
        try:
            outcomes = [fabric.submit(_request(f"q{i}")).result(timeout=10.0) for i in range(3)]
            report = fabric.health_snapshot()
        finally:
            fabric.close()
        assert [outcome.attempts for outcome in outcomes] == [1] * 3
        assert not dead.submitted and len(spare.submitted) == 3
        assert report["rebuilds"] == 0 and report["live_nodes"] == 1

    def test_no_rebuild_without_queued_work(self):
        node = _RebuildableNode()
        fabric = FabricBackend([node])
        try:
            fabric.submit(_request("q0")).result(timeout=10.0)
            node.die()
            time.sleep(0.1)  # several pump passes over an empty queue
            assert node.rebuilds == 0 and not fabric.statuses()[0]["live"]
            fabric.submit(_request("q1")).result(timeout=10.0)
        finally:
            fabric.close()
        assert node.rebuilds == 1


# ------------------------------------------------------------------ health surface
class TestHealthSurface:
    def test_health_snapshot_shape(self):
        fabric = FabricBackend([_ScriptedNode(), _ScriptedNode(name="node[1]")])
        try:
            fabric.submit(_request()).result(timeout=10.0)
            report = fabric.health_snapshot()
        finally:
            fabric.close()
        assert report["submissions"] == 1 and report["completed"] == 1
        assert len(report["nodes"]) == 2
        for key in ("lease_reassignments", "give_ups", "pending_leases", "rebuilds"):
            assert key in report

    def test_health_snapshot_keys_are_the_counters_and_the_member_table(self):
        fabric = FabricBackend([_ScriptedNode()])
        try:
            report = fabric.health_snapshot()
        finally:
            fabric.close()
        assert set(report) == {
            "submissions", "dispatched", "completed", "lease_reassignments",
            "degraded_executions", "give_ups", "hangs", "rebuilds",
            "nodes", "live_nodes", "pending_leases",
        }
        assert set(report["nodes"][0]) == {
            "name", "live", "occupancy", "dispatched", "completed",
            "lease_reassignments_received", "failures", "on_probation", "probations",
            "rebuilds",
        }

    def test_backend_health_walker_reports_the_fabric_layer(self):
        fabric = FabricBackend([_ScriptedNode()])
        try:
            report = backend_health(fabric)
        finally:
            fabric.close()
        assert "fabric" in report
        assert report["fabric"]["live_nodes"] == 1


# ------------------------------------------------------------------ process members
@pytest.mark.slow
class TestProcessMembers:
    """The coordinator over real process-pool members (``replicas=2``)."""

    def test_members_whose_workers_died_idle_are_rebuilt_at_dispatch(self):
        workload = build_job_workload(scale=0.05, seed=0, num_queries=4)
        database = workload.database
        requests = [
            ExecutionRequest(query=query, plan=database.plan(query)) for query in workload.queries
        ]
        backend = make_backend(
            ExecutionServiceConfig(backend="process", max_workers=1, replicas=2),
            database, workload.queries,
        )
        try:
            for future in [backend.submit(request) for request in requests]:
                future.result(timeout=60.0)
            members = backend.members()
            # Kill both workers while neither member holds a lease: no lease
            # can fail on them, so only dispatch can notice and rebuild them.
            for member in members:
                pid = member._ensure_pool().submit(os.getpid).result(timeout=60.0)
                os.kill(pid, signal.SIGKILL)
            _until(lambda: not any(member.healthy() for member in members), timeout=30.0)
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
        assert report["rebuilds"] == 2 and report["degraded_executions"] == 0
        assert report["live_nodes"] == 2 and report["give_ups"] == 0
