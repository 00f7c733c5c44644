"""Plan execution in worker processes holding warm database replicas.

Thread pools only overlap *waiting*; CPU-bound simulated executions serialize
on the GIL.  :class:`ProcessPoolBackend` sidesteps the GIL entirely: each
worker process holds its own :class:`~repro.db.engine.Database` replica and
serves plan executions for the life of the pool.  How the replica gets there
depends on the start method:

* ``fork`` (preferred where available) — nothing is pickled.  The pool warms
  the *coordinator's* database once (:meth:`Database.warmup`: every
  registered query planned, its default plan executed into the execution
  cache) and then forks; each worker is a copy-on-write image of the
  coordinator, warm outcome cache, subplan memo and kernel caches included,
  and runs no warm-up of its own.  From the fork on the caches diverge —
  workers never share mutable cache structures.
* ``spawn`` / ``forkserver`` — each worker receives one pickled replica
  (rebuilt through ``Database.__setstate__`` — statistics, planner and
  executor freshly constructed, execution cache empty) and warms it itself.

Per task only the small ``(query name | query, plan, timeout)`` payload — or,
for a same-query batch, one ``(plan, timeout, proposal id)`` triple per plan —
crosses the process boundary, and the result travels back as plain
:class:`~repro.core.protocol.ExecutionOutcome` objects.

Determinism: the executor's latency noise and every per-query RNG are seeded
through :func:`repro.utils.seeding.stable_digest`, so a worker process
observes exactly the latencies the parent would have — process-pool traces
are bit-for-bit identical to sequential ones.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from typing import TYPE_CHECKING

from repro.core.protocol import ExecutionOutcome
from repro.db.query import Query
from repro.exceptions import OptimizationError
from repro.exec.backend import ExecutionRequest, fan_out_batch, perform_batch, perform_request
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.engine import Database

#: Per-process replica state, populated once by :func:`_init_worker`.
_WORKER_STATE: dict = {}


class RemoteExecutionError(OptimizationError):
    """A plan execution failed inside a worker process.

    Exceptions that cross the process boundary normally lose their stack: the
    scheduler sees ``KeyError: 'x'`` with a traceback pointing at
    ``Future.result()``.  This wrapper pickles the *worker-side* traceback as
    a string so the original stack rides along to the scheduler (and into the
    run report, tagged with the owning query).  It is a genuine execution
    error — :func:`~repro.exec.backend.is_infra_failure` is false for it, so
    neither the coordinator's health budget nor the supervisor's retries apply.
    """

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback

    def __str__(self) -> str:
        base = super().__str__()
        if self.remote_traceback:
            return f"{base}\n--- remote traceback ---\n{self.remote_traceback}"
        return base

    def __reduce__(self):
        # Default Exception pickling would drop the keyword attribute.
        return (self.__class__, (self.args[0], self.remote_traceback))


def _init_worker(
    database: "Database", queries: tuple[Query, ...], warmup: bool, trace: bool = False
) -> None:
    """Install this worker's replica (runs once per worker process).

    A pickled replica (non-``fork`` start methods) arrives with a *fresh,
    private* execution cache (:class:`~repro.db.engine.Database` pickles only
    its cache *config*, not cached state) and ``warmup`` primes it with each
    query's default plan; a forked worker inherited the coordinator's warm
    database and is started with ``warmup=False``.  Either way workers never
    share mutable cache structures, and the per-execution
    :class:`~repro.db.plan_cache.CacheStats` travel back to the scheduler on
    every :class:`~repro.core.protocol.ExecutionOutcome`.

    With ``trace`` the worker records execution spans into its own private
    :class:`~repro.obs.tracer.Tracer`; each task drains the buffer onto its
    outcome's ``spans`` tuple, so telemetry travels back exactly like
    ``CacheStats`` does and the scheduler re-parents it via ``adopt``.
    """
    _WORKER_STATE["database"] = database
    _WORKER_STATE["queries"] = {query.name: query for query in queries}
    _WORKER_STATE["tracer"] = Tracer(capacity=4096) if trace else None
    if warmup and hasattr(database, "warmup"):
        database.warmup(list(queries))


def _execute_in_worker(
    query_or_name: "Query | str", plan, timeout: float | None, proposal_id: int | None = None
) -> ExecutionOutcome:
    """Execute one plan against this worker's replica.

    Failures are re-raised as :class:`RemoteExecutionError` carrying the
    worker-side traceback string, so the scheduler's report shows where in
    the worker the plan actually died.
    """
    try:
        database = _WORKER_STATE["database"]
        if isinstance(query_or_name, str):
            query = _WORKER_STATE["queries"][query_or_name]
        else:
            query = query_or_name
        tracer = _WORKER_STATE.get("tracer")
        outcome = perform_request(
            database,
            ExecutionRequest(query=query, plan=plan, timeout=timeout, proposal_id=proposal_id),
            tracer=tracer,
        )
        if tracer is not None:
            spans = tracer.drain()
            if spans:
                outcome = dataclasses.replace(outcome, spans=tuple(spans))
        return outcome
    except RemoteExecutionError:
        raise
    except Exception as exc:  # noqa: BLE001 - wrapped with the remote stack
        name = query_or_name if isinstance(query_or_name, str) else query_or_name.name
        raise RemoteExecutionError(
            f"worker execution of query {name!r} failed: {type(exc).__name__}: {exc}",
            remote_traceback=traceback.format_exc(),
        ) from exc


def _execute_batch_in_worker(
    query_or_name: "Query | str", items: list[tuple]
) -> list[ExecutionOutcome]:
    """Execute a same-query plan batch against this worker's replica.

    The whole batch runs as one task so shared join subtrees execute once
    (see :meth:`repro.db.executor.Executor.run_batch`); outcomes return in
    request order.  The worker's span buffer is drained once per batch and
    shipped on the *first* outcome — the scheduler adopts it wholesale, so
    attribution is unaffected.
    """
    try:
        database = _WORKER_STATE["database"]
        if isinstance(query_or_name, str):
            query = _WORKER_STATE["queries"][query_or_name]
        else:
            query = query_or_name
        tracer = _WORKER_STATE.get("tracer")
        requests = [
            ExecutionRequest(query=query, plan=plan, timeout=timeout, proposal_id=proposal_id)
            for plan, timeout, proposal_id in items
        ]
        outcomes = perform_batch(database, requests, tracer=tracer)
        if tracer is not None:
            spans = tracer.drain()
            if spans and outcomes:
                outcomes[0] = dataclasses.replace(outcomes[0], spans=tuple(spans))
        return outcomes
    except RemoteExecutionError:
        raise
    except Exception as exc:  # noqa: BLE001 - wrapped with the remote stack
        name = query_or_name if isinstance(query_or_name, str) else query_or_name.name
        raise RemoteExecutionError(
            f"worker batch execution of query {name!r} failed: {type(exc).__name__}: {exc}",
            remote_traceback=traceback.format_exc(),
        ) from exc


def _pick_context(start_method: str | None) -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (workers inherit the database without pickling it per
    worker); fall back to the platform default elsewhere."""
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else methods[0]
    return multiprocessing.get_context(start_method)


class ProcessPoolBackend:
    """Dispatch plan executions to worker processes with warm replicas.

    Parameters
    ----------
    database:
        The database the workers replicate.  Must be picklable (anything
        duck-typing ``execute`` works; :class:`~repro.db.engine.Database`
        ships only its constructor inputs and rebuilds the rest).
    max_workers:
        Worker process count (defaults to the CPU count).
    queries:
        Queries to register with every worker.  Registered queries are sent
        by *name* per task (and pre-planned during warmup); unregistered
        queries are pickled whole with each request.
    start_method:
        Multiprocessing start method; ``None`` prefers ``fork``.
    warmup:
        Plan every registered query and execute its default plan before the
        pool serves its first request: once, in the coordinator's database,
        when workers are forked from it; in each worker otherwise.
    """

    name = "process"

    def __init__(
        self,
        database: "Database",
        max_workers: int | None = None,
        queries: list[Query] | None = None,
        start_method: str | None = None,
        warmup: bool = True,
        trace: bool = False,
    ) -> None:
        workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        if workers < 1:
            raise OptimizationError("max_workers must be at least 1")
        self.database = database
        self._max_workers = workers
        self._queries = tuple(queries or ())
        self._registered = {query.name for query in self._queries}
        self._start_method = start_method
        self._warmup = warmup
        self._trace = trace
        self._pool: ProcessPoolExecutor | None = None
        #: Set once the coordinator's database has been warmed for forking.
        self._warmed = False
        self._closed = False

    def capacity(self) -> int:
        return self._max_workers

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise OptimizationError("backend is closed")
        if self._pool is None:
            context = _pick_context(self._start_method)
            forks = context.get_start_method() == "fork"
            if self._warmup and forks and not self._warmed:
                # A forked worker is a copy-on-write image of this process:
                # warm here once and every worker starts warm, instead of
                # each planning and executing every default plan again (and
                # paying a page fault for each page it writes doing so).
                self._warmed = True
                if hasattr(self.database, "warmup"):
                    self.database.warmup(list(self._queries))
            self._pool = ProcessPoolExecutor(
                max_workers=self._max_workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(self.database, self._queries, self._warmup and not forks, self._trace),
            )
        return self._pool

    def submit(self, request: ExecutionRequest) -> "Future[ExecutionOutcome]":
        payload: Query | str = (
            request.query.name if request.query.name in self._registered else request.query
        )
        return self._ensure_pool().submit(
            _execute_in_worker, payload, request.plan, request.timeout, request.proposal_id
        )

    def submit_batch(
        self, requests: list[ExecutionRequest]
    ) -> "list[Future[ExecutionOutcome]]":
        """Run a same-query batch as one worker task.

        The batch occupies a single worker — one slot of :meth:`capacity`,
        whatever its size, which is how the scheduler counts it — trading
        fan-out parallelism for one-pass execution over the plans' shared
        subtrees: the right trade for the simulated executor, where the
        shared work dominates.  The per-request futures all resolve when the
        task does.  Callers that want per-plan fan-out instead (e.g. CPU-burn
        benchmarks) submit per request or disable ``batch_execution``.
        """
        requests = list(requests)
        if len(requests) == 1:
            return [self.submit(requests[0])]
        query = requests[0].query
        payload: Query | str = query.name if query.name in self._registered else query
        items = [
            (request.plan, request.timeout, request.proposal_id) for request in requests
        ]
        futures: list[Future[ExecutionOutcome]] = [Future() for _ in requests]
        task = self._ensure_pool().submit(_execute_batch_in_worker, payload, items)
        fan_out_batch(task, futures)
        return futures

    def healthy(self) -> bool:
        if self._closed:
            return False
        # A pool that hasn't been started yet is healthy by definition; a
        # broken pool (worker died mid-task) is unusable until rebuild().
        return self._pool is None or getattr(self._pool, "_broken", False) is False

    def rebuild(self) -> None:
        """Replace a broken process pool with a fresh one.

        ``BrokenProcessPool`` poisons the executor permanently; the
        supervisor calls this to discard it so the next submission lazily
        starts fresh workers from the same database (forked from the
        already-warm coordinator, or rebuilt from its pickle), so determinism
        is unaffected.  In-flight futures of the old pool have already
        failed — nothing is carried over.
        """
        if self._closed:
            return
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
