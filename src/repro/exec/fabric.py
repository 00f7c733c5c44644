"""The fabric coordinator: lease-based dispatch over execution members.

:class:`FabricBackend` implements the
:class:`~repro.exec.backend.ExecutionBackend` protocol over N members: the
in-process replicas ``ExecutionServiceConfig(replicas=N)`` builds (inline,
thread or process backends), or the lone backend a supervised session puts
behind it.  Anything duck-typing ``submit``/``healthy``/``capacity``/``close``
(and optionally ``submit_batch``) works, which is what the unit tests
exploit.  Robustness is the design center:

* **Leases.**  Every request is owned by a lease.  Dispatch hands the lease
  to the least-loaded eligible member; an infrastructure failure (a worker
  died, a transient error, the request deadline) returns the lease to the
  *front* of the central queue and the next dispatch reassigns it —
  deterministically, to the least-loaded survivor, preferring a different
  member than the one that just failed.  The scheduler's future resolves
  exactly once no matter how many members attempt the lease, so the budget
  is never double-charged; the delivered outcome's ``attempts`` field
  records the reassignment count.
* **Probation / half-open probes.**  A member charged ``max_failures``
  infrastructure failures sits out ``probation_seconds`` (doubling per
  relapse), then gets a single half-open probe.  A success clears the
  member's record.  This is the coordinator's one backoff: a reassigned
  lease never sleeps.
* **Hang watchdog.**  With a ``request_deadline``, a dispatched group that
  has not landed ``request_deadline * len(group)`` seconds after it reached
  its member is abandoned: its futures are cancelled and its leases charged
  and reassigned as a :class:`~repro.exec.backend.HangTimeout`.  A late
  reply from the abandoned attempt is discarded, never observed twice.
  The pump thread checks the deadlines; no request gets a thread.
* **Members heal themselves, or not at all.**  The coordinator never
  restarts a member: a :class:`~repro.exec.process_pool.ProcessPoolBackend`
  replaces a dead worker in place and stays healthy (the member table shows
  its ``replacements``), so only the lease that worker held is reassigned.
  A member gets a lease only while it reports itself healthy.
* **Work conservation.**  There are no per-member queues to steal from:
  members hold at most ``capacity()`` leases and everything else waits in
  the central queue, so a straggler can never hoard work an idle member
  could run — work-stealing by construction.  The scheduling-policy layer
  sees the fabric's full capacity and keeps that many proposals in flight.
* **Degradation.**  With no member healthy (or a lease out of
  ``max_lease_attempts``), leases run on the ``fallback`` backend (inline on
  the coordinator) at once — the run finishes slower instead of dying.
* **Seeded chaos.**  A :class:`~repro.exec.faults.FaultInjectionConfig`
  is drawn once per lease at dispatch, from one ``(seed, query, plan,
  attempt)`` digest schedule whose attempt is this coordinator's dispatch
  count of the ``(query, plan)``: crashes and transient errors fail the
  lease before its member sees it, hangs and slow members delay its result.
  A chaos run is a pure function of its config — and because execution
  outcomes are deterministic in ``(query, plan, timeout)``, chaos traces are
  bit-for-bit identical to fault-free inline ones.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable

from repro.core.protocol import ExecutionOutcome
from repro.exceptions import OptimizationError
from repro.exec.backend import ExecutionRequest, HangTimeout, is_infra_failure
from repro.exec.faults import (
    FaultCounters,
    FaultInjectionConfig,
    InjectedTransientError,
    InjectedWorkerCrash,
)


@dataclass
class FabricCounters:
    """What the fabric did to keep leases alive."""

    submissions: int = 0
    dispatched: int = 0
    completed: int = 0
    lease_reassignments: int = 0
    degraded_executions: int = 0
    give_ups: int = 0
    hangs: int = 0

    def snapshot(self) -> dict:
        return dataclasses.asdict(self)


class _Lease:
    """Ownership record of one in-flight request."""

    __slots__ = ("request", "outer", "attempt", "last_slot")

    def __init__(self, request: ExecutionRequest) -> None:
        self.request = request
        self.outer: "Future[ExecutionOutcome]" = Future()
        #: Reassignments so far (0 on the first dispatch).
        self.attempt = 0
        #: The slot that last tried (and failed) this lease, avoided on
        #: reassignment when any other member is eligible.
        self.last_slot: "_NodeSlot | None" = None


class _Flight:
    """One group dispatched to one member: what is still open, and until when."""

    __slots__ = ("slot", "leases", "open", "futures", "deadline", "abandoned")

    def __init__(self, slot: "_NodeSlot", leases: "list[_Lease]") -> None:
        self.slot = slot
        self.leases = leases
        #: Leases whose reply has not landed yet.
        self.open = set(leases)
        self.futures: list = []
        self.deadline: float | None = None
        #: Set by the watchdog: every reply still to come is a late one.
        self.abandoned = False


class _NodeSlot:
    """Fabric-side bookkeeping for one member."""

    def __init__(self, node, name: str) -> None:
        self.node = node
        self.name = name
        self.occupancy = 0
        self.dispatched = 0
        self.completed = 0
        self.reassigned_in = 0
        self.failures = 0
        self.probation_until: float | None = None
        self.probations = 0

    def on_probation(self, now: float) -> bool:
        return self.probation_until is not None and now < self.probation_until

    def probing(self, now: float) -> bool:
        return self.probation_until is not None and now >= self.probation_until

    def eligible(self, now: float) -> bool:
        if self.on_probation(now) or not self.node.healthy():
            return False
        window = max(1, self.node.capacity())
        if self.probing(now):
            # Half-open: exactly one probe in flight until a success clears it.
            window = 1
        return self.occupancy < window

    def load(self) -> float:
        return self.occupancy / max(1, self.node.capacity())

    def status(self, now: float) -> dict:
        return {
            "name": self.name,
            "live": self.node.healthy(),
            "occupancy": self.occupancy,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "lease_reassignments_received": self.reassigned_in,
            "failures": self.failures,
            "on_probation": self.on_probation(now),
            "probations": self.probations,
            "replacements": getattr(self.node, "replacements", 0),
        }


class FabricBackend:
    """Coordinate plan executions over independent execution members."""

    name = "fabric"

    def __init__(
        self,
        nodes: list,
        *,
        fallback=None,
        max_failures: int = 3,
        probation_seconds: float = 1.0,
        max_lease_attempts: int | None = None,
        request_deadline: float | None = None,
        faults: FaultInjectionConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not nodes:
            raise OptimizationError("fabric needs at least one member")
        if max_failures < 1:
            raise OptimizationError("max_failures must be at least 1")
        if probation_seconds <= 0:
            raise OptimizationError("probation_seconds must be positive")
        if max_lease_attempts is not None and max_lease_attempts < 1:
            raise OptimizationError("max_lease_attempts must be at least 1")
        if request_deadline is not None and request_deadline <= 0:
            raise OptimizationError("request_deadline must be positive")
        # Same-named replicas (``inline``, ``process``) get their index so
        # every slot's name is unique in reports and as the dispatch tie-break.
        names = [getattr(node, "name", f"node[{index}]") for index, node in enumerate(nodes)]
        self._slots = [
            _NodeSlot(node, name if names.count(name) == 1 else f"{name}[{index}]")
            for index, (node, name) in enumerate(zip(nodes, names))
        ]
        self.fallback = fallback
        self._max_failures = max_failures
        self._probation_seconds = probation_seconds
        self._max_lease_attempts = (
            max_lease_attempts if max_lease_attempts is not None else 3 * len(nodes)
        )
        self._request_deadline = request_deadline
        self.faults = faults
        self.fault_counters = FaultCounters()
        #: Seconds each delaying fault kind withholds a lease's result.
        self._fault_delays = {} if faults is None else {
            "hang": faults.hang_seconds,
            "slow": faults.slow_seconds,
        }
        self._clock = clock
        self.counters = FabricCounters()
        # RLock: member doubles settle futures synchronously inside
        # submit(), re-entering the dispatch path.
        self._lock = threading.RLock()
        self._pending: "deque[list[_Lease]]" = deque()
        #: Dispatched groups under the watchdog, in dispatch order.
        self._flights: "dict[_Flight, None]" = {}
        self._fault_attempts: dict[tuple, int] = {}
        #: timer -> (finished future, delayed future) for withheld results.
        self._delayed: "dict[threading.Timer, tuple[Future, Future]]" = {}
        self._pump: threading.Thread | None = None
        self._closed = False

    # ------------------------------------------------------------------ backend protocol
    def capacity(self) -> int:
        # Static by design: a member on probation rejoins, and a stable
        # capacity keeps the scheduler's in-flight target steady.
        return sum(max(1, slot.node.capacity()) for slot in self._slots)

    def healthy(self) -> bool:
        return not self._closed and (
            self.fallback is not None or any(slot.node.healthy() for slot in self._slots)
        )

    def submit(self, request: ExecutionRequest) -> "Future[ExecutionOutcome]":
        return self.submit_batch([request])[0]

    def submit_batch(
        self, requests: "list[ExecutionRequest]"
    ) -> "list[Future[ExecutionOutcome]]":
        """Keep a same-query batch together on one member (one-pass subtrees).

        The group dispatches as a unit; if its member fails mid-flight the
        group disbands and the leases reassign individually — correctness
        first, the batching win only when the fleet is calm.
        """
        leases = [_Lease(request) for request in requests]
        with self._lock:
            # Checked under the lock close() takes: a lease queued after it
            # would never settle.
            if self._closed:
                raise OptimizationError("backend is closed")
            self.counters.submissions += len(leases)
            self._pending.append(leases)
        self._ensure_pump()
        self._dispatch()
        return [lease.outer for lease in leases]

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending)
            self._pending.clear()
            delayed = list(self._delayed.items())
            self._delayed.clear()
        error = OptimizationError("fabric closed with leases queued")
        for group in pending:
            for lease in group:
                _settle(lease.outer, exc=error)
        # Withheld results are delivered now: nobody is left waiting on a
        # closed coordinator.
        for timer, (done, outer) in delayed:
            timer.cancel()
            _copy_completion(done, outer)
        for slot in self._slots:
            slot.node.close()
        if self.fallback is not None:
            self.fallback.close()

    # ------------------------------------------------------------------ dispatch
    def _ensure_pump(self) -> None:
        # A tiny timer thread re-runs dispatch so queued leases make progress
        # on probation expiry even with no completion, and abandons
        # dispatched groups past their request deadline.
        with self._lock:
            if self._pump is None or not self._pump.is_alive():
                self._pump = threading.Thread(
                    target=self._pump_loop, name="fabric-pump", daemon=True
                )
                self._pump.start()

    def _pump_loop(self) -> None:
        while not self._closed:
            time.sleep(0.02)
            if self._flights:
                self._expire_hung()
            if self._pending:
                self._dispatch()

    def _choose(self, now: float, avoid: "_NodeSlot | None") -> "_NodeSlot | None":
        candidates = [slot for slot in self._slots if slot.eligible(now)]
        if avoid is not None and len(candidates) > 1:
            candidates = [slot for slot in candidates if slot is not avoid]
        if not candidates:
            return None
        return min(candidates, key=lambda slot: (slot.load(), slot.name))

    def _dispatch(self) -> None:
        while True:
            with self._lock:
                if self._closed or not self._pending:
                    return
                now = self._clock()
                group = self._pending[0]
                live_group = [lease for lease in group if not lease.outer.cancelled()]
                if not live_group:
                    self._pending.popleft()
                    continue
                slot = self._choose(now, live_group[0].last_slot)
                if slot is None and not self._degraded():
                    return
                self._pending.popleft()
                if slot is not None:
                    slot.occupancy += 1
                    slot.dispatched += len(live_group)
                    if live_group[0].attempt > 0:
                        slot.reassigned_in += len(live_group)
            if slot is None:
                self._run_on_fallback(live_group)
            else:
                self._dispatch_to(slot, live_group)

    def _degraded(self) -> bool:
        """Whether queued leases run on the fallback: no member will ever take them."""
        return self.fallback is not None and not any(
            slot.node.healthy() for slot in self._slots
        )

    def _dispatch_to(self, slot: "_NodeSlot", group: "list[_Lease]") -> None:
        kinds = [self._decide_fault(lease) for lease in group]
        if self.faults is not None:
            with self._lock:
                for kind in kinds:
                    self.fault_counters.count(kind)
        self.counters.dispatched += len(group)
        flight = _Flight(slot, group)
        if self._request_deadline is not None:
            # Counted from dispatch, never from queueing; a group holds its
            # member for the sum of its executions.
            flight.deadline = self._clock() + self._request_deadline * len(group)
        # Injected crashes and transient errors fail their lease here, before
        # the member sees it; the other leases go out together.
        futures = {
            lease: _injected_failure(lease.request, kind)
            for lease, kind in zip(group, kinds)
            if kind in ("crash", "transient")
        }
        clean = [lease for lease in group if lease not in futures]
        try:
            if len(clean) > 1 and hasattr(slot.node, "submit_batch"):
                submitted = slot.node.submit_batch([lease.request for lease in clean])
            else:
                submitted = [slot.node.submit(lease.request) for lease in clean]
        except Exception as exc:  # noqa: BLE001 - classified by the failure path
            with self._lock:
                slot.occupancy -= 1
            if is_infra_failure(exc):
                self._charge(slot)
                self._requeue(slot, group, exc)
            else:
                for lease in group:
                    _settle(lease.outer, exc=exc)
            return
        futures.update(zip(clean, submitted))
        delays = self._fault_delays
        flight.futures = [
            self._delay(futures[lease], delays[kind]) if kind in delays else futures[lease]
            for lease, kind in zip(group, kinds)
        ]
        if flight.deadline is not None:
            with self._lock:
                self._flights[flight] = None
        for lease, inner in zip(group, flight.futures):
            inner.add_done_callback(
                lambda done, lease=lease: self._on_lease_done(flight, lease, done)
            )

    def _on_lease_done(self, flight: _Flight, lease: _Lease, inner: "Future") -> None:
        slot = flight.slot
        with self._lock:
            if flight.abandoned:
                # A late reply: the watchdog already reassigned this lease.
                return
            flight.open.discard(lease)
            if not flight.open:
                slot.occupancy -= 1
                self._flights.pop(flight, None)
        exc = _failure(inner)
        if exc is None:
            with self._lock:
                slot.completed += 1
                slot.failures = 0
                slot.probation_until = None
                slot.probations = 0
            self._deliver(lease, inner.result())
            self._dispatch()
            return
        if is_infra_failure(exc):
            self._charge(slot)
            self._requeue(slot, [lease], exc)
        else:
            # The plan itself failed: propagate untouched, no health charge.
            _settle(lease.outer, exc=exc)
            self._dispatch()

    def _requeue(self, slot: "_NodeSlot", group: "list[_Lease]", exc: BaseException) -> None:
        """Reassign failed leases (front of the queue), bounded per lease."""
        survivors: list[_Lease] = []
        for lease in group:
            lease.attempt += 1
            lease.last_slot = slot
            with self._lock:
                self.counters.lease_reassignments += 1
            if lease.attempt >= self._max_lease_attempts:
                if self.fallback is not None:
                    self._run_on_fallback([lease])
                else:
                    with self._lock:
                        self.counters.give_ups += 1
                    _settle(lease.outer, exc=exc)
                continue
            survivors.append(lease)
        with self._lock:
            closed = self._closed
            if not closed:
                # Disbanded: each lease reassigns individually.
                for lease in reversed(survivors):
                    self._pending.appendleft([lease])
        if closed:
            # Nothing dispatches after close(): the failure is final.
            for lease in survivors:
                _settle(lease.outer, exc=exc)
        self._dispatch()

    def _run_on_fallback(self, group: "list[_Lease]") -> None:
        for lease in group:
            with self._lock:
                self.counters.degraded_executions += 1
            try:
                inner = self.fallback.submit(lease.request)
            except Exception as exc:  # noqa: BLE001 - the end of the line
                _settle(lease.outer, exc=exc)
                continue
            inner.add_done_callback(
                lambda done, lease=lease: self._finish_degraded(lease, done)
            )

    def _finish_degraded(self, lease: _Lease, inner: "Future") -> None:
        exc = _failure(inner)
        if exc is not None:
            _settle(lease.outer, exc=exc)
        else:
            self._deliver(lease, inner.result())

    def _deliver(self, lease: _Lease, outcome) -> None:
        """Settle a lease with its outcome, stamped with the attempts it took."""
        with self._lock:
            self.counters.completed += 1
        if lease.attempt > 0 and isinstance(outcome, ExecutionOutcome):
            outcome = dataclasses.replace(outcome, attempts=lease.attempt + 1)
        _settle(lease.outer, result=outcome)

    def _expire_hung(self) -> None:
        """Abandon every dispatched group past its deadline (the watchdog)."""
        now = self._clock()
        expired = []
        with self._lock:
            for flight in list(self._flights):
                if now >= flight.deadline:
                    del self._flights[flight]
                    flight.abandoned = True
                    flight.slot.occupancy -= 1
                    hung = [lease for lease in flight.leases if lease in flight.open]
                    self.counters.hangs += len(hung)
                    expired.append((flight, hung))
        for flight, hung in expired:
            for future in flight.futures:
                future.cancel()
            exc = HangTimeout(
                f"{len(hung)} execution(s) of query {hung[0].request.query.name!r} "
                f"outlived the {self._request_deadline}s request deadline on "
                f"{flight.slot.name}"
            )
            self._charge(flight.slot)
            self._requeue(flight.slot, hung, exc)

    def _charge(self, slot: "_NodeSlot") -> None:
        """Charge an infrastructure failure to ``slot``."""
        with self._lock:
            slot.failures += 1
            now = self._clock()
            if slot.failures >= self._max_failures or slot.probing(now):
                # Doubling probation per relapse: a flapping member backs off
                # the fleet exponentially.
                slot.probation_until = now + self._probation_seconds * 2.0 ** slot.probations
                slot.probations += 1
                slot.failures = 0

    # ------------------------------------------------------------------ chaos
    def _decide_fault(self, lease: _Lease) -> str | None:
        """Draw ``lease``'s fault for this dispatch (if any)."""
        config = self.faults
        if config is None:
            return None
        request = lease.request
        key = (request.query.name, request.plan.canonical())
        with self._lock:
            attempt = self._fault_attempts.get(key, 0)
            self._fault_attempts[key] = attempt + 1
        return config.decide(request, attempt)

    def _delay(self, inner: "Future", seconds: float) -> "Future":
        """Deliver ``inner``'s completion ``seconds`` after it finishes.

        The delay starts when the execution *finishes*: a hung or slow
        worker has done the work, it just reports back late.
        """
        outer: "Future" = Future()

        def arm(done: "Future") -> None:
            def deliver() -> None:
                with self._lock:
                    self._delayed.pop(timer, None)
                _copy_completion(done, outer)

            timer = threading.Timer(seconds, deliver)
            timer.daemon = True
            with self._lock:
                closed = self._closed
                if not closed:
                    self._delayed[timer] = (done, outer)
            if closed:
                _copy_completion(done, outer)
            else:
                timer.start()

        inner.add_done_callback(arm)
        return outer

    # ------------------------------------------------------------------ introspection
    def members(self) -> list:
        """The coordinated members, in slot order."""
        return [slot.node for slot in self._slots]

    def statuses(self) -> list[dict]:
        now = self._clock()
        with self._lock:
            return [slot.status(now) for slot in self._slots]

    def health_snapshot(self) -> dict:
        """Per-member liveness + fabric counters, for ``backend_health``."""
        nodes = self.statuses()
        report = self.counters.snapshot()
        report["nodes"] = nodes
        report["live_nodes"] = sum(1 for status in nodes if status["live"])
        report["pending_leases"] = len(self._pending)
        return report


def _failure(future: "Future") -> BaseException | None:
    """A finished future's exception, counting cancellation as one."""
    try:
        return future.exception()
    except BaseException as err:  # noqa: BLE001 - CancelledError and friends
        return err


def _injected_failure(request: ExecutionRequest, kind: str) -> "Future":
    """An already-failed future: an injected crash or transient error."""
    error = InjectedWorkerCrash if kind == "crash" else InjectedTransientError
    future: "Future" = Future()
    future.set_exception(error(f"injected {kind} (query {request.query.name!r})"))
    return future


def _copy_completion(source: "Future", target: "Future") -> None:
    """Copy a finished future's completion onto ``target`` (a no-op once settled)."""
    exc = _failure(source)
    _settle(target, result=None if exc is not None else source.result(), exc=exc)


def _settle(future: "Future", result=None, exc=None) -> None:
    try:
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(result)
    except Exception:  # noqa: BLE001 - InvalidStateError on cancelled leases
        pass

