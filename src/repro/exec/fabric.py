"""The lease coordinator: supervised dispatch onto one execution member.

:class:`FabricBackend` implements the
:class:`~repro.exec.backend.ExecutionBackend` protocol in front of one
member, the inline, thread or process backend a supervised session builds
(``supervised=True``, a ``request_deadline`` or ``fault_injection``).
Anything duck-typing ``submit``/``healthy``/``capacity``/``close`` (and
optionally ``submit_batch``) works, which is what the unit tests exploit.
Robustness is the design center:

* **Leases.**  Every request is owned by a lease.  Dispatch hands the lease
  to the member while it has a free slot; an infrastructure failure (a
  worker died, a transient error, the request deadline) returns the lease
  to the *front* of the central queue and the next dispatch reassigns it.
  The scheduler's future resolves exactly once however many attempts the
  lease takes, so the budget is never double-charged; the delivered
  outcome's ``attempts`` field records the reassignment count.
* **Probation / half-open probes.**  A member charged ``max_failures``
  infrastructure failures in a row sits out ``probation_seconds``
  (doubling per relapse) while leases wait, then gets a single half-open
  probe.  A success clears its record.  This is the coordinator's one
  backoff: a reassigned lease never sleeps.
* **Hang watchdog.**  With a ``request_deadline``, a dispatched group that
  has not landed ``request_deadline * len(group)`` seconds after it reached
  the member is abandoned: its futures are cancelled and its leases charged
  and reassigned as a :class:`~repro.exec.backend.HangTimeout`.  A late
  reply from the abandoned attempt is discarded, never observed twice.
  The pump thread checks the deadlines; no request gets a thread.
* **The member heals itself, or not at all.**  The coordinator never
  restarts its member: a :class:`~repro.exec.process_pool.ProcessPoolBackend`
  replaces a dead worker in place and stays healthy (the health report
  shows its ``replacements``), so only the lease that worker held is
  reassigned.  The member gets a lease only while it reports itself healthy.
* **Work conservation.**  The member holds at most ``capacity()`` groups;
  everything else waits in the central queue.  :func:`~repro.core.protocol.drive`
  sees that capacity and keeps that many tasks in flight.
* **Degradation.**  With the member unhealthy (or a lease out of
  ``max_lease_attempts``), leases run on the ``fallback`` backend (inline on
  the coordinator) at once — the run finishes slower instead of dying.
* **Seeded chaos.**  A :class:`~repro.exec.faults.FaultInjectionConfig`
  is drawn once per lease at dispatch, from one ``(seed, query, plan,
  attempt)`` digest schedule whose attempt is this coordinator's dispatch
  count of the ``(query, plan)``: crashes and transient errors fail the
  lease before the member sees it, hangs and slowdowns delay its result.
  A chaos run is a pure function of its config — and because execution
  outcomes are deterministic in ``(query, plan, timeout)``, chaos traces are
  bit-for-bit identical to fault-free inline ones.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import Counter, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from repro.core.protocol import ExecutionOutcome
from repro.exceptions import OptimizationError
from repro.exec.backend import (
    ExecutionRequest,
    HangTimeout,
    is_infra_failure,
    submit_request_batch,
)
from repro.exec.faults import (
    FaultInjectionConfig,
    InjectedTransientError,
    InjectedWorkerCrash,
)


@dataclass
class FabricCounters:
    """What the coordinator did to keep leases alive, and the faults it drew."""

    submissions: int = 0
    dispatched: int = 0
    completed: int = 0
    lease_reassignments: int = 0
    degraded_executions: int = 0
    give_ups: int = 0
    #: Leases the watchdog abandoned past their request deadline.
    hangs: int = 0
    #: Dispatches per drawn fault kind (``None``: drawn clean).
    injected: "Counter[str | None]" = field(default_factory=Counter)

    def snapshot(self) -> dict:
        """The ``"fabric"`` health section: every counter but the fault draws."""
        report = dataclasses.asdict(self)
        del report["injected"]
        return report

    def faults_snapshot(self) -> dict:
        """The ``"faults"`` health section: draws per kind, clean ones, total faults."""
        drawn = self.injected
        report = {
            "crashes": drawn["crash"],
            "hangs": drawn["hang"],
            "transients": drawn["transient"],
            "slowdowns": drawn["slow"],
            "clean": drawn[None],
        }
        report["total_faults"] = sum(report.values()) - report["clean"]
        return report


class _Lease:
    """Ownership record of one in-flight request."""

    __slots__ = ("request", "outer", "attempt")

    def __init__(self, request: ExecutionRequest) -> None:
        self.request = request
        self.outer: "Future[ExecutionOutcome]" = Future()
        #: Reassignments so far (0 on the first dispatch).
        self.attempt = 0


class _Flight:
    """One group dispatched to the member: what is still open, and until when."""

    __slots__ = ("leases", "open", "futures", "deadline", "abandoned")

    def __init__(self, leases: "list[_Lease]") -> None:
        self.leases = leases
        #: Leases whose reply has not landed yet.
        self.open = set(leases)
        self.futures: list = []
        self.deadline: float | None = None
        #: Set by the watchdog: every reply still to come is a late one.
        self.abandoned = False


class FabricBackend:
    """Supervise plan executions on one member: leases, watchdog, fallback."""

    name = "fabric"

    def __init__(
        self,
        member,
        *,
        fallback=None,
        max_failures: int = 3,
        probation_seconds: float = 1.0,
        max_lease_attempts: int = 3,
        request_deadline: float | None = None,
        faults: FaultInjectionConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_failures < 1:
            raise OptimizationError("max_failures must be at least 1")
        if probation_seconds <= 0:
            raise OptimizationError("probation_seconds must be positive")
        if max_lease_attempts < 1:
            raise OptimizationError("max_lease_attempts must be at least 1")
        if request_deadline is not None and request_deadline <= 0:
            raise OptimizationError("request_deadline must be positive")
        self.member = member
        self.fallback = fallback
        self._max_failures = max_failures
        self._probation_seconds = probation_seconds
        self._max_lease_attempts = max_lease_attempts
        self._request_deadline = request_deadline
        self.faults = faults
        #: Seconds each delaying fault kind withholds a lease's result.
        self._fault_delays = {} if faults is None else {
            "hang": faults.hang_seconds,
            "slow": faults.slow_seconds,
        }
        self._clock = clock
        self.counters = FabricCounters()
        #: Groups the member holds, its infrastructure failures since its
        #: last success or probation, and its probation record.
        self._occupancy = 0
        self._failures = 0
        self._probation_until: float | None = None
        self._probations = 0
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
        return max(1, self.member.capacity())

    def healthy(self) -> bool:
        return not self._closed and (self.fallback is not None or self.member.healthy())

    def submit(self, request: ExecutionRequest) -> "Future[ExecutionOutcome]":
        return self.submit_batch([request])[0]

    def submit_batch(
        self, requests: "list[ExecutionRequest]"
    ) -> "list[Future[ExecutionOutcome]]":
        """Keep a same-query batch together on the member (one-pass subtrees).

        The group dispatches as a unit; if it fails mid-flight the group
        disbands and the leases reassign individually — correctness first,
        the batching win only when the member is calm.
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
        self.member.close()
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

    def _eligible(self, now: float) -> bool:
        """Whether the member takes the next group (the caller holds the lock)."""
        if not self.member.healthy():
            return False
        if self._probation_until is None:
            return self._occupancy < self.capacity()
        # Half-open once probation lapses: exactly one probe in flight until
        # a success clears it.
        return now >= self._probation_until and self._occupancy < 1

    def _dispatch(self) -> None:
        while True:
            with self._lock:
                if self._closed or not self._pending:
                    return
                group = [lease for lease in self._pending[0] if not lease.outer.cancelled()]
                if not group:
                    self._pending.popleft()
                    continue
                to_member = self._eligible(self._clock())
                # Leases wait for a member that is busy or on probation, and
                # go to the fallback only once the member is unhealthy.
                if not to_member and (self.fallback is None or self.member.healthy()):
                    return
                self._pending.popleft()
                if to_member:
                    self._occupancy += 1
                    kinds = [self._decide_fault(lease.request) for lease in group]
                    self.counters.dispatched += len(group)
            if to_member:
                self._dispatch_to(group, kinds)
            else:
                self._run_on_fallback(group)

    def _dispatch_to(self, group: "list[_Lease]", kinds: "list[str | None]") -> None:
        flight = _Flight(group)
        if self._request_deadline is not None:
            # Counted from dispatch, never from queueing; a group holds the
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
            submitted = submit_request_batch(self.member, [lease.request for lease in clean])
        except Exception as exc:  # noqa: BLE001 - classified by the failure path
            with self._lock:
                self._occupancy -= 1
            if is_infra_failure(exc):
                self._charge()
                self._requeue(group, exc)
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
        with self._lock:
            if flight.abandoned:
                # A late reply: the watchdog already reassigned this lease.
                return
            flight.open.discard(lease)
            if not flight.open:
                self._occupancy -= 1
                self._flights.pop(flight, None)
        exc = _failure(inner)
        if exc is None:
            with self._lock:
                self._failures = 0
                self._probation_until = None
                self._probations = 0
            self._deliver(lease, inner.result())
            self._dispatch()
            return
        if is_infra_failure(exc):
            self._charge()
            self._requeue([lease], exc)
        else:
            # The plan itself failed: propagate untouched, no health charge.
            _settle(lease.outer, exc=exc)
            self._dispatch()

    def _requeue(self, group: "list[_Lease]", exc: BaseException) -> None:
        """Reassign failed leases (front of the queue), bounded per lease."""
        survivors: list[_Lease] = []
        for lease in group:
            lease.attempt += 1
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
                    self._occupancy -= 1
                    hung = [lease for lease in flight.leases if lease in flight.open]
                    self.counters.hangs += len(hung)
                    expired.append((flight, hung))
        for flight, hung in expired:
            for future in flight.futures:
                future.cancel()
            exc = HangTimeout(
                f"{len(hung)} execution(s) of query {hung[0].request.query.name!r} "
                f"outlived the {self._request_deadline}s request deadline"
            )
            self._charge()
            self._requeue(hung, exc)

    def _charge(self) -> None:
        """Charge an infrastructure failure to the member."""
        with self._lock:
            self._failures += 1
            now = self._clock()
            probing = self._probation_until is not None and now >= self._probation_until
            if self._failures >= self._max_failures or probing:
                # Doubling probation per relapse: a flapping member backs
                # off exponentially.
                self._probation_until = now + self._probation_seconds * 2.0 ** self._probations
                self._probations += 1
                self._failures = 0

    # ------------------------------------------------------------------ chaos
    def _decide_fault(self, request: ExecutionRequest) -> str | None:
        """Draw and count ``request``'s fault for this dispatch (the caller holds the lock)."""
        if self.faults is None:
            return None
        key = (request.query.name, request.plan.canonical())
        attempt = self._fault_attempts.get(key, 0)
        self._fault_attempts[key] = attempt + 1
        kind = self.faults.decide(request, attempt)
        self.counters.injected[kind] += 1
        return kind

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
    def health_snapshot(self) -> dict:
        """The coordinator's counters, its member's state and the queue, for ``backend_health``."""
        with self._lock:
            until = self._probation_until
            report = self.counters.snapshot()
            report["member"] = {
                "live": self.member.healthy(),
                "occupancy": self._occupancy,
                "failures": self._failures,
                "on_probation": until is not None and self._clock() < until,
                "probations": self._probations,
                "replacements": getattr(self.member, "replacements", 0),
            }
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

