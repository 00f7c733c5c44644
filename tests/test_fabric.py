"""Fabric suite: wire protocol, lease failover, probation, replication, e2e.

Covers the socket wire format (length-prefixed pickle frames, error frames
that preserve node-side tracebacks, pickle failures that must not tear the
stream), the coordinator's lease machinery against scripted node doubles
(reassignment off a lost node, bounded attempts, probation/half-open rejoin,
degradation to the inline fallback, grouped batch dispatch), the same
coordinator over in-process replicas (``ExecutionServiceConfig(replicas=N)``:
least-loaded routing, health charging, unique slot names), cross-node
cache-log replication, and end-to-end runs against real localhost node
processes: trace equivalence with inline execution, drop/kill recovery and
remote-traceback preservation across the socket boundary.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from concurrent.futures import BrokenExecutor, Future

import pytest

from repro.core.protocol import BudgetSpec, ExecutionOutcome
from repro.exceptions import OptimizationError
from repro.exec import (
    ExecutionRequest,
    FabricBackend,
    FaultInjectionConfig,
    InlineBackend,
    NodeLostError,
    RemoteExecutionError,
    RemoteNodeBackend,
    TransientBackendError,
    backend_health,
    is_infra_failure,
    start_local_fabric,
)
from repro.exec.node import _wire_safe, start_node_process
from repro.exec.remote import recv_frame, send_frame
from repro.db.query import Query, TableRef
from repro.harness import WorkloadSession
from repro.plans.jointree import JoinTree


def _query(name="fabric_q"):
    return Query(name=name, table_refs=[TableRef("a#1", "a")], join_predicates=[])


def _request(name="fabric_q", plan=None):
    return ExecutionRequest(query=_query(name), plan=plan or JoinTree.left_deep(["a", "b"]))


def signatures(results):
    return {name: result.trace_signature() for name, result in results.items()}


class _FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ------------------------------------------------------------------ node double
class _ScriptedNode:
    """Node double with the surface the fabric drives.

    ``script`` entries are consumed one per submitted request: an exception
    instance fails that request's future, ``None`` completes it cleanly.
    An exhausted script means clean outcomes.
    """

    def __init__(self, name="node[0]", capacity=1, script=None, signature=None):
        self.name = name
        self._capacity = capacity
        self._script = list(script or [])
        self.signature = signature
        self.submitted = []
        self.batches = []
        self.offered = []
        self.on_events = None
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

    def offer_events(self, events):
        self.offered.extend(events)

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


class _ImportingCache:
    """Cache double counting :meth:`import_outcomes` calls."""

    def __init__(self):
        self.imported = []

    def import_outcomes(self, events):
        self.imported.extend(events)
        return len(events)


class _CachedDatabase:
    def __init__(self):
        self.execution_cache = _ImportingCache()


class ExplodingDatabase:
    """Picklable database double whose executions always fail on the node."""

    def execute(self, query, plan, timeout=None):
        raise ValueError("synthetic node-side failure")


# ------------------------------------------------------------------ wire format
class TestWireProtocol:
    def _pair(self):
        left, right = socket.socketpair()
        left.settimeout(10.0)
        right.settimeout(10.0)
        return left, right

    def test_frame_roundtrip(self):
        left, right = self._pair()
        try:
            frame = ("execute", 7, "fabric_q", JoinTree.left_deep(["a", "b"]), None, 3, [])
            send_frame(left, frame)
            received = recv_frame(right)
        finally:
            left.close()
            right.close()
        assert received[:3] == ("execute", 7, "fabric_q")
        assert received[3].canonical() == frame[3].canonical()

    def test_pickle_failure_never_tears_the_stream(self):
        # Frames are pickled *before* any byte hits the socket: a payload
        # that cannot pickle raises on the sender and the stream stays
        # byte-aligned for the next frame.
        left, right = self._pair()
        try:
            with pytest.raises((pickle.PicklingError, TypeError, AttributeError)):
                send_frame(left, ("outcome", 1, lambda: None, [], {}))
            send_frame(left, ("pong", 5))
            assert recv_frame(right) == ("pong", 5)
        finally:
            left.close()
            right.close()

    def test_error_frame_preserves_remote_traceback(self):
        # The satellite contract: a node-side plan error crosses the socket
        # as RemoteExecutionError with the node's traceback string intact,
        # and stays a *plan* error (never retried as infrastructure).
        error = RemoteExecutionError(
            "node execution of query 'fabric_q' failed: ValueError: boom",
            remote_traceback="Traceback (most recent call last):\n  ...\nValueError: boom",
        )
        left, right = self._pair()
        try:
            send_frame(left, ("error", 42, error))
            kind, task_id, received = recv_frame(right)
        finally:
            left.close()
            right.close()
        assert (kind, task_id) == ("error", 42)
        assert isinstance(received, RemoteExecutionError)
        assert received.remote_traceback == error.remote_traceback
        assert "ValueError: boom" in received.remote_traceback
        assert not is_infra_failure(received)

    def test_wire_safe_wraps_foreign_exceptions(self):
        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        try:
            raise Unpicklable("original")
        except Unpicklable as exc:
            safe = _wire_safe(exc)
        assert isinstance(safe, RemoteExecutionError)
        assert "Unpicklable" in str(safe)
        pickle.loads(pickle.dumps(safe))  # guaranteed wire-safe

    def test_node_lost_error_is_infrastructure(self):
        assert is_infra_failure(NodeLostError("link down"))
        copy = pickle.loads(pickle.dumps(NodeLostError("link down")))
        assert is_infra_failure(copy)


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
        flaky = _ScriptedNode(name="node[0]", script=[NodeLostError("link down")])
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
        node = _ScriptedNode(script=[NodeLostError("down"), NodeLostError("down")])
        fabric = FabricBackend([node], max_lease_attempts=2, max_failures=10)
        try:
            exc = fabric.submit(_request()).exception(timeout=10.0)
        finally:
            fabric.close()
        assert isinstance(exc, NodeLostError)
        assert fabric.counters.give_ups == 1

    def test_exhausted_lease_falls_back_inline_when_available(self):
        node = _ScriptedNode(script=[NodeLostError("down")] * 3)
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
            name="node[0]", capacity=4, script=[NodeLostError("down")] * 2
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

            _settle(future, exc=NodeLostError("late loss"))
            assert future.result() is outcome
        finally:
            fabric.close()


# ------------------------------------------------------------------ probation + degradation
class TestProbationAndDegradation:
    def test_failing_node_enters_probation_and_recovers_half_open(self):
        clock = _FakeClock()
        flaky = _ScriptedNode(name="node[0]", script=[NodeLostError("down")])
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
    members that are not node links, failing with pool-level errors."""

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


# ------------------------------------------------------------------ link faults (doubles)
class TestLinkFaultDecisions:
    def test_rates_validated_and_deterministic(self):
        with pytest.raises(OptimizationError):
            FaultInjectionConfig(seed=0, drop_rate=0.9, partition_rate=0.2)
        config = FaultInjectionConfig(seed=3, drop_rate=0.3, kill_rate=0.2)
        requests = [_request(f"q{i}") for i in range(32)]
        first = [config.decide(request, 0) for request in requests]
        second = [config.decide(request, 0) for request in requests]
        assert first == second  # pure function of (seed, request, attempt)
        assert any(kind is not None for kind in first)
        assert any(kind is None for kind in first)
        other = FaultInjectionConfig(seed=4, drop_rate=0.3, kill_rate=0.2)
        assert first != [other.decide(request, 0) for request in requests]

    def test_max_faults_per_request_guarantees_clean_retries(self):
        config = FaultInjectionConfig(seed=0, drop_rate=1.0, max_faults_per_request=1)
        request = _request()
        assert config.decide(request, 0) == "drop"
        assert all(config.decide(request, attempt) is None for attempt in range(1, 8))

    def test_link_kinds_are_drawn_only_when_the_member_draw_is_clean(self):
        members = FaultInjectionConfig(seed=3, crash_rate=0.5)
        links = FaultInjectionConfig(seed=3, drop_rate=1.0)
        both = FaultInjectionConfig(seed=3, crash_rate=0.5, drop_rate=1.0)
        requests = [_request(f"q{i}") for i in range(32)]
        expected = [members.decide(r, 0) or links.decide(r, 0) for r in requests]
        assert [both.decide(r, 0) for r in requests] == expected
        assert set(expected) == {"crash", "drop"}

    def test_faults_without_link_hooks_run_clean_on_doubles(self):
        # Link-level faults (kill/drop/partition) need a real link; against
        # doubles without the inject_* hooks the dispatch must run clean
        # rather than crash.
        config = FaultInjectionConfig(seed=0, kill_rate=1.0, max_faults_per_request=2)
        node = _ScriptedNode()
        fabric = FabricBackend([node], faults=config)
        try:
            outcome = fabric.submit(_request()).result(timeout=10.0)
        finally:
            fabric.close()
        assert isinstance(outcome, ExecutionOutcome)
        assert fabric.fault_counters.kills == 0 and fabric.fault_counters.clean == 1


# ------------------------------------------------------------------ cache replication
class TestCacheReplication:
    def _events(self):
        return [(("fabric_q", "plan-x"), [(0.5, 10)], True, 10, 10, False)]

    def test_events_fan_out_to_signature_matched_peers_and_coordinator(self):
        source = _ScriptedNode(name="node[0]", signature=("sig", 1))
        match = _ScriptedNode(name="node[1]", signature=("sig", 1))
        fresh = _ScriptedNode(name="node[2]", signature=None)  # not yet handshaken
        mismatch = _ScriptedNode(name="node[3]", signature=("sig", 2))
        database = _CachedDatabase()
        fabric = FabricBackend([source, match, fresh, mismatch], database=database)
        try:
            events = self._events()
            fabric._on_node_events(source, events)
        finally:
            fabric.close()
        assert match.offered == events
        assert fresh.offered == events  # unknown signature: offer, node dedups
        assert mismatch.offered == []  # different data: never cross-pollinate
        assert source.offered == []  # never echoed back to the producer
        assert database.execution_cache.imported == events
        assert fabric.counters.events_imported == 1
        assert fabric.counters.events_replicated == 2

    def test_replication_can_be_disabled(self):
        source = _ScriptedNode(name="node[0]", signature=("sig", 1))
        peer = _ScriptedNode(name="node[1]", signature=("sig", 1))
        fabric = FabricBackend([source, peer], replicate_cache=False)
        try:
            fabric._on_node_events(source, self._events())
        finally:
            fabric.close()
        assert peer.offered == []
        assert fabric.counters.events_replicated == 0


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
        for key in ("lease_reassignments", "give_ups", "pending_leases", "shipped_log_hits"):
            assert key in report

    def test_backend_health_walker_reports_the_fabric_layer(self):
        fabric = FabricBackend([_ScriptedNode()])
        try:
            report = backend_health(fabric)
        finally:
            fabric.close()
        assert "fabric" in report
        assert report["fabric"]["live_nodes"] == 1


# ------------------------------------------------------------------ real node processes
def _fabric_kwargs(**extra):
    kwargs = dict(heartbeat_interval=0.05, heartbeat_timeout=0.8)
    kwargs.update(extra)
    return kwargs


@pytest.mark.slow
class TestLocalFabricEndToEnd:
    def test_fabric_traces_match_inline_and_health_surfaces(self, tiny_workload):
        budget = BudgetSpec(max_executions=3)
        with WorkloadSession(tiny_workload, budget=budget, seed=0) as session:
            reference = session.run("random")
        backend = start_local_fabric(
            tiny_workload.database, tiny_workload.queries, num_nodes=2, **_fabric_kwargs()
        )
        with WorkloadSession(
            tiny_workload, budget=budget, seed=0, backend=backend
        ) as session:
            fabric_results = session.run("random")
            health = session.health_report()
        assert signatures(fabric_results) == signatures(reference)
        fabric_health = health["fabric"]
        assert fabric_health["live_nodes"] == 2
        assert fabric_health["completed"] == fabric_health["submissions"] > 0
        assert fabric_health["give_ups"] == 0
        names = {status["name"] for status in fabric_health["nodes"]}
        assert names == {"node[0]", "node[1]"}

    def test_remote_traceback_survives_the_socket(self):
        process, address = start_node_process()
        node = RemoteNodeBackend(
            address, ExplodingDatabase(), warmup=False, **_fabric_kwargs()
        )
        try:
            node.connect()
            exc = node.submit(_request("remote_q")).exception(timeout=30.0)
        finally:
            node.close()
            process.join(timeout=10.0)
        assert isinstance(exc, RemoteExecutionError)
        assert "remote_q" in str(exc)
        assert "ValueError: synthetic node-side failure" in exc.remote_traceback
        assert "in execute" in exc.remote_traceback  # the node-side frame
        assert not is_infra_failure(exc)

    def test_dropped_connection_reconnects_and_serves_again(self, tiny_workload):
        process, address = start_node_process()
        node = RemoteNodeBackend(
            address,
            tiny_workload.database,
            tiny_workload.queries,
            warmup=False,
            reconnect_base=0.02,
            **_fabric_kwargs(),
        )
        try:
            node.connect()
            request = ExecutionRequest(
                query=tiny_workload.queries[0],
                plan=JoinTree.left_deep(
                    [ref.alias for ref in tiny_workload.queries[0].table_refs]
                ),
            )
            before = node.submit(request).result(timeout=30.0)
            node.inject_drop()
            deadline = time.monotonic() + 20.0
            while not node.healthy() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert node.healthy(), "node did not reconnect after a dropped link"
            after = node.submit(request).result(timeout=30.0)
            assert node.counters.losses >= 1 and node.counters.connects >= 2
        finally:
            node.close()
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
        # Shared-nothing determinism: the same plan costs the same after a
        # reconnect (the replica survived on the node).
        assert after.latency == before.latency

    def test_killed_node_respawns_and_the_run_completes(self, tiny_workload):
        backend = start_local_fabric(
            tiny_workload.database,
            tiny_workload.queries,
            num_nodes=2,
            warmup=False,
            **_fabric_kwargs(),
        )
        try:
            request = ExecutionRequest(
                query=tiny_workload.queries[0],
                plan=JoinTree.left_deep(
                    [ref.alias for ref in tiny_workload.queries[0].table_refs]
                ),
            )
            backend.submit(request).result(timeout=60.0)
            # Chaos: hard-kill node 0 (os._exit in the process, no cleanup).
            backend._slots[0].node.inject_kill()
            outcomes = [backend.submit(request).result(timeout=60.0) for _ in range(4)]
            assert all(isinstance(outcome, ExecutionOutcome) for outcome in outcomes)
            assert backend.counters.give_ups == 0
        finally:
            backend.close()
