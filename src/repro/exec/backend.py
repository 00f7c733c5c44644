"""The execution-backend contract plus the in-process implementations.

A backend turns an :class:`ExecutionRequest` (query + plan + timeout) into a
:class:`~concurrent.futures.Future` resolving to an
:class:`~repro.core.protocol.ExecutionOutcome`.  The scheduler
(:class:`~repro.harness.runner.WorkloadSession`) neither knows nor cares
where the execution happens — on the scheduler thread
(:class:`InlineBackend`), on a thread pool that overlaps DBMS waiting
(:class:`ThreadPoolBackend`), in worker processes holding warm database
replicas (:class:`~repro.exec.process_pool.ProcessPoolBackend`), or leased
out over several independent members by the coordinator
(:class:`~repro.exec.fabric.FabricBackend`).
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.protocol import ExecutionOutcome, proposal_query
from repro.db.query import Query
from repro.exceptions import OptimizationError
from repro.plans.jointree import JoinTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.engine import Database


class TransientBackendError(OptimizationError):
    """A retryable infrastructure failure (network blip, evicted worker, ...).

    Says nothing about the plan that was executing: the same request submitted
    again may well succeed.  The :class:`~repro.exec.fabric.FabricBackend`
    coordinator charges these against the failing member's health budget and
    reassigns the lease — exactly like a
    :class:`~concurrent.futures.BrokenExecutor`.
    """


class HangTimeout(TransientBackendError):
    """A dispatched execution outlived its request deadline.

    Raised by the :class:`~repro.exec.fabric.FabricBackend` watchdog
    (``request_deadline``): the hung attempt is abandoned and its lease
    reassigned like any other infrastructure failure.
    """


def is_infra_failure(exc: BaseException) -> bool:
    """Whether ``exc`` is an infrastructure failure rather than a plan error.

    Infrastructure failures (a worker process died, a transient backend
    error, a request deadline expired) are retryable: the plan itself is
    not implicated.  Everything else — the plan genuinely failing to execute —
    must propagate to the scheduler untouched.
    """
    return isinstance(exc, (BrokenExecutor, TransientBackendError))


@dataclass(frozen=True)
class ExecutionRequest:
    """One plan execution the scheduler wants performed.

    The request is the unit that crosses the backend boundary, so everything
    in it must stay picklable: :class:`~repro.db.query.Query` and
    :class:`~repro.plans.jointree.JoinTree` are plain data, and the outcome
    travels back as the equally plain
    :class:`~repro.core.protocol.ExecutionOutcome`.  Technique-private
    proposal metadata (latent vectors etc.) deliberately does **not** ride
    along — it stays parked in the optimizer state on the scheduler side.
    """

    query: Query
    plan: JoinTree
    timeout: float | None = None
    #: Names the proposal this execution answers (the batched-ask protocol);
    #: stamped into the returned outcome so the scheduler can resolve
    #: proposals out of completion order.  ``None`` for q=1 callers.
    proposal_id: int | None = None


def perform_request(
    database: "Database", request: ExecutionRequest, tracer=None
) -> ExecutionOutcome:
    """Execute one request against ``database`` and shape the outcome.

    Runs wherever the backend lives (scheduler thread, pool thread, worker
    process) against *that* actor's database — so the outcome's ``cache``
    stats describe the executing actor's private execution cache, which is
    how per-worker memoization activity surfaces to the scheduler.

    With a ``tracer`` (:class:`~repro.obs.tracer.Tracer`), the execution is
    wrapped in an ``exec.run`` span annotated with the observed latency,
    censoring and cache hit — recorded into the executing actor's buffer
    (worker-side spans travel back on the outcome, see
    :mod:`repro.exec.process_pool`).
    """
    if tracer is None or not tracer.enabled:
        execution = database.execute(request.query, request.plan, timeout=request.timeout)
        return ExecutionOutcome.from_execution(
            execution, request.timeout, proposal_id=request.proposal_id
        )
    with tracer.span(
        "exec.run",
        category="exec",
        query=request.query.name,
        proposal_id=request.proposal_id,
    ) as span:
        execution = database.execute(request.query, request.plan, timeout=request.timeout)
        cache = getattr(execution, "cache", None)
        span.annotate(
            latency=execution.latency,
            timed_out=execution.timed_out,
            cache_hit=bool(cache is not None and cache.outcome_hit),
        )
    return ExecutionOutcome.from_execution(
        execution, request.timeout, proposal_id=request.proposal_id
    )


def _database_executes_batches(database: "Database") -> bool:
    """Whether ``database``'s own class implements ``execute_batch``.

    Deliberately a *class*-level check: duck-typed wrappers that add
    per-``execute`` behaviour and forward other attributes via
    ``__getattr__`` must not be treated as batch-capable — the delegated
    ``execute_batch`` would bypass their ``execute`` override.  Such
    databases fall back to per-request execution, which produces identical
    outcomes (batching only dedups work, never changes results).
    """
    return hasattr(type(database), "execute_batch")


def perform_batch(
    database: "Database", requests: list[ExecutionRequest], tracer=None
) -> list[ExecutionOutcome]:
    """Execute a same-query request batch in one pass, outcomes in order.

    When the database supports ``execute_batch`` (and the batch really is
    same-query and larger than one), shared join subtrees across the batch
    execute once; otherwise this degrades to per-request
    :func:`perform_request` calls.  Either way the outcomes are bit-for-bit
    what sequential submission would have produced.

    With a tracer, the batch is wrapped in an ``exec.batch`` span annotated
    with the shared-subtree savings, and each plan gets an ``exec.run``
    marker span whose ``follows`` attribute links it to the batch span (the
    wall-clock lives on the batch span; per-plan simulated latencies ride
    as attributes).
    """
    requests = list(requests)
    if not requests:
        return []
    query = requests[0].query
    shareable = (
        len(requests) > 1
        and _database_executes_batches(database)
        and all(request.query.name == query.name for request in requests[1:])
    )
    if not shareable:
        return [perform_request(database, request, tracer=tracer) for request in requests]
    plans = [request.plan for request in requests]
    timeouts = [request.timeout for request in requests]
    if tracer is None or not tracer.enabled:
        executions = database.execute_batch(query, plans, timeouts)
        return [
            ExecutionOutcome.from_execution(
                execution, request.timeout, proposal_id=request.proposal_id
            )
            for execution, request in zip(executions, requests)
        ]
    with tracer.span(
        "exec.batch", category="exec", query=query.name, batch_size=len(requests)
    ) as batch_span:
        executions = database.execute_batch(query, plans, timeouts)
        stats = [execution.cache for execution in executions if execution.cache is not None]
        batch_span.annotate(
            subplan_hits=sum(stat.subplan_hits for stat in stats),
            subplan_misses=sum(stat.subplan_misses for stat in stats),
        )
    outcomes = []
    for execution, request in zip(executions, requests):
        cache = getattr(execution, "cache", None)
        tracer.instant(
            "exec.run",
            category="exec",
            query=request.query.name,
            proposal_id=request.proposal_id,
            latency=execution.latency,
            timed_out=execution.timed_out,
            cache_hit=bool(cache is not None and cache.outcome_hit),
            follows=batch_span.span_id,
        )
        outcomes.append(
            ExecutionOutcome.from_execution(
                execution, request.timeout, proposal_id=request.proposal_id
            )
        )
    return outcomes


def submit_request_batch(backend, requests: list[ExecutionRequest]) -> "list[Future[ExecutionOutcome]]":
    """Submit ``requests`` through ``backend``, batched when it supports it.

    For callers that only want the futures (forwarding wrappers, tests):
    backends exposing ``submit_batch`` (inline, thread, process, fabric)
    receive the whole batch as one submission — one task on one worker — so
    same-query plans share subtree work; a backend without one gets one
    ``submit`` per request.
    Returns one future per request, in request order, either way.  The
    session makes the same choice itself (``WorkloadSession._has_batch_path``)
    because :func:`~repro.core.protocol.drive` must also know how many
    worker slots a round takes.
    """
    if len(requests) > 1:
        submit_batch = getattr(backend, "submit_batch", None)
        if submit_batch is not None:
            return list(submit_batch(list(requests)))
    return [backend.submit(request) for request in requests]


def backend_submit(backend):
    """A ``submit`` for :func:`~repro.core.protocol.drive` on ``backend``.

    A round's proposals become :class:`ExecutionRequest` s and go through
    :func:`submit_request_batch`: one task on one worker where the backend
    has a batch path, one submission per request on wrappers without one.
    """

    def submit(state, proposals) -> "list[Future[ExecutionOutcome]]":
        requests = [
            ExecutionRequest(
                query=proposal_query(state, proposal),
                plan=proposal.plan,
                timeout=proposal.timeout,
                proposal_id=proposal.proposal_id,
            )
            for proposal in proposals
        ]
        return submit_request_batch(backend, requests)

    return submit


def fan_out_batch(task: "Future", futures: "list[Future[ExecutionOutcome]]") -> None:
    """Resolve per-request ``futures`` from one pooled batch task.

    A batch-level failure is delivered to every sibling future — per-plan
    attribution is lost, but the scheduler aborts the run on the first
    failed future regardless, and all siblings belong to the same query.
    Futures the scheduler already cancelled are left alone.
    """

    def _deliver(done: "Future") -> None:
        try:
            error = done.exception()
        except BaseException as exc:  # noqa: BLE001 - CancelledError and friends
            error = exc
        for index, future in enumerate(futures):
            if future.done():
                continue
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(done.result()[index])

    task.add_done_callback(_deliver)


@runtime_checkable
class ExecutionBackend(Protocol):
    """Where plan executions physically run."""

    name: str

    def capacity(self) -> int:
        """How many executions the backend can usefully hold in flight."""

    def submit(self, request: ExecutionRequest) -> "Future[ExecutionOutcome]":
        """Schedule one execution; the future resolves to its outcome."""

    def healthy(self) -> bool:
        """Whether the backend can currently accept work."""

    def close(self) -> None:
        """Release pools/processes.  Idempotent."""


class InlineBackend:
    """Execute on the caller's thread — the pre-subsystem behaviour.

    ``submit`` runs the plan synchronously and returns an already-resolved
    future, so a sequential scheduler drains queries bit-for-bit identically
    to the old private loops: same ``database.execute`` calls, same thread,
    same order.
    """

    name = "inline"

    def __init__(self, database: "Database", tracer=None) -> None:
        self.database = database
        self.tracer = tracer

    def capacity(self) -> int:
        return 1

    def submit(self, request: ExecutionRequest) -> "Future[ExecutionOutcome]":
        future: Future[ExecutionOutcome] = Future()
        try:
            future.set_result(perform_request(self.database, request, tracer=self.tracer))
        except BaseException as exc:  # noqa: BLE001 - delivered via the future
            future.set_exception(exc)
        return future

    def submit_batch(
        self, requests: list[ExecutionRequest]
    ) -> "list[Future[ExecutionOutcome]]":
        """Execute a same-query batch synchronously in one pass (see :func:`perform_batch`)."""
        futures: list[Future[ExecutionOutcome]] = [Future() for _ in requests]
        try:
            outcomes = perform_batch(self.database, requests, tracer=self.tracer)
        except BaseException as exc:  # noqa: BLE001 - delivered via the futures
            for future in futures:
                future.set_exception(exc)
        else:
            for future, outcome in zip(futures, outcomes):
                future.set_result(outcome)
        return futures

    def healthy(self) -> bool:
        return True

    def close(self) -> None:
        pass


class ThreadPoolBackend:
    """Execute on a thread pool — overlaps *waiting* (DBMS round-trips).

    Threads share the GIL, so this backend only helps when executions block
    (network round-trips to a real DBMS); for CPU-bound simulated executions
    use the process backend.  The pool is created lazily on first submit and
    is safe to close and never use.
    """

    name = "thread"

    def __init__(self, database: "Database", max_workers: int = 4, tracer=None) -> None:
        if max_workers < 1:
            raise OptimizationError("max_workers must be at least 1")
        self.database = database
        #: Shared with pool threads — :class:`~repro.obs.tracer.Tracer` id
        #: allocation is lock-protected, so concurrent recording is safe.
        self.tracer = tracer
        self._max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

    def capacity(self) -> int:
        return self._max_workers

    def submit(self, request: ExecutionRequest) -> "Future[ExecutionOutcome]":
        if self._closed:
            raise OptimizationError("backend is closed")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers, thread_name_prefix="repro-exec"
            )
        return self._pool.submit(perform_request, self.database, request, self.tracer)

    def submit_batch(
        self, requests: list[ExecutionRequest]
    ) -> "list[Future[ExecutionOutcome]]":
        """Run a same-query batch as one pool task (one pass over shared subtrees).

        Simulated executions are CPU-bound, so sibling requests would have
        serialized on the GIL anyway — collapsing them into one task trades
        no parallelism and buys the batch dedup.
        """
        requests = list(requests)
        if len(requests) == 1:
            return [self.submit(requests[0])]
        if self._closed:
            raise OptimizationError("backend is closed")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers, thread_name_prefix="repro-exec"
            )
        futures: list[Future[ExecutionOutcome]] = [Future() for _ in requests]
        task = self._pool.submit(perform_batch, self.database, requests, self.tracer)
        fan_out_batch(task, futures)
        return futures

    def healthy(self) -> bool:
        return not self._closed

    def close(self) -> None:
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
