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

The transport is one duplex pipe per worker (:class:`_PipePool`), not
:class:`~concurrent.futures.ProcessPoolExecutor`: a task is pickled once as
``(function, args)`` and written straight onto an idle worker's pipe (a FIFO
holds the rest), and one reader thread waits on every pipe and process
sentinel and resolves the futures.  There is no call queue, result queue,
feeder thread or manager thread between a submit and the worker.  A worker
that dies fails only its own task, with
:class:`~concurrent.futures.process.BrokenProcessPool`; the reader thread
starts a replacement in its place (forked from the coordinator, or spawned
with the same pickled replica) and hands it the oldest queued task, while the
other workers and the queue carry on.  Each worker slot is replaced at most
:data:`MAX_REBUILDS` times; one more death breaks the pool for good.

Per task only the query (or its name) and one ``(plan, timeout, proposal
id)`` triple per plan cross the process boundary — a lone request is a
one-plan batch — and the result travels back as plain
:class:`~repro.core.protocol.ExecutionOutcome` objects.  A query goes by name
only when the worker holds that very query under it
(:func:`~repro.exec.backend.query_payload`).

Determinism: the executor's latency noise and every per-query RNG are seeded
through :func:`repro.utils.seeding.stable_digest`, so a worker process
observes exactly the latencies the parent would have — process-pool traces
are bit-for-bit identical to sequential ones.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import traceback
import weakref
from collections import deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler
from typing import TYPE_CHECKING, Callable

from repro.core.protocol import ExecutionOutcome
from repro.db.query import Query
from repro.exceptions import OptimizationError
from repro.exec.backend import (
    ExecutionRequest,
    fan_out_batch,
    perform_batch,
    query_payload,
)
from repro.obs.tracer import Tracer
from repro.utils.blas import one_blas_thread

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
    the coordinator neither charges a member's health budget nor reassigns
    the lease.
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


def _execute_batch_in_worker(
    query_or_name: "Query | str", items: list[tuple]
) -> list[ExecutionOutcome]:
    """Execute a same-query plan batch against this worker's replica.

    ``items`` holds one ``(plan, timeout, proposal id)`` triple per plan; a
    lone request is a one-item batch (:func:`perform_batch` of one request
    is :func:`perform_request`).  The whole batch runs as one task so shared
    join subtrees execute once (see
    :meth:`repro.db.executor.Executor.run_batch`); outcomes return in
    request order.  The worker's span buffer is drained once per batch and
    shipped on the *first* outcome — the scheduler adopts it wholesale, so
    attribution is unaffected.  Failures are re-raised as
    :class:`RemoteExecutionError` carrying the worker-side traceback string,
    so the scheduler's report shows where in the worker the plan died.
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
            f"worker execution of query {name!r} failed: {type(exc).__name__}: {exc}",
            remote_traceback=traceback.format_exc(),
        ) from exc


def _serve(conn, inherited: tuple, database, queries, warmup: bool, trace: bool) -> None:
    """A worker process: install the replica, then run tasks off ``conn`` until told to stop.

    A task is a pickled ``(function, args)``; the reply is ``(True, result)``
    or ``(False, exception)``.  ``None`` or a closed pipe ends the loop.  A
    forked worker first closes its copies of the coordinator's ends of the
    pipes forked so far (``inherited``, its own included), so that if the
    coordinator goes away every worker reads end-of-file instead of waiting
    for ever.
    """
    for other in inherited:
        other.close()
    with one_blas_thread():
        _init_worker(database, queries, warmup, trace)
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                return
            if task is None:
                return
            function, args = task
            try:
                reply = (True, function(*args))
            except Exception as exc:  # noqa: BLE001 - shipped to the submitter
                reply = (False, exc)
            try:
                conn.send(reply)
            except OSError:
                return
            except Exception as exc:  # noqa: BLE001 - an unpicklable result or exception
                conn.send((False, RemoteExecutionError(
                    f"worker reply could not be pickled: {type(exc).__name__}: {exc}",
                    remote_traceback=traceback.format_exc(),
                )))


def _pick_context(start_method: str | None) -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (workers inherit the database without pickling it per
    worker); fall back to the platform default elsewhere."""
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else methods[0]
    return multiprocessing.get_context(start_method)


#: How many times the pool replaces the process of one worker slot after it
#: died; one more death breaks the pool for good.
MAX_REBUILDS = 2


class _Worker:
    """One worker process, the coordinator's end of its pipe, and its task in flight."""

    __slots__ = ("process", "conn", "future", "rebuilds")

    def __init__(self, process, conn, rebuilds: int) -> None:
        self.process = process
        self.conn = conn
        self.future: Future | None = None
        #: Processes this worker's slot lost before this one.
        self.rebuilds = rebuilds


class _PipePool:
    """``workers`` processes, one duplex pipe each, and one reader thread.

    ``_lock`` guards the idle list, the FIFO of queued tasks, every worker's
    ``future`` slot and every write to a pipe; a task is written only to an
    idle worker, so writes never interleave.  Only the reader thread reads,
    and only it replaces a dead worker (:meth:`_lost`).  Futures are
    resolved outside the lock: their callbacks may submit again.
    """

    def __init__(self, context, workers: int, initargs: tuple) -> None:
        self.broken = False
        #: Dead workers replaced so far.
        self.replacements = 0
        self._stopping = False
        self._lock = threading.Lock()
        self._queue: deque[tuple[Future, memoryview]] = deque()
        self._workers: list[_Worker] = []
        self._context = context
        self._initargs = initargs
        try:
            for _ in range(workers):
                self._workers.append(self._start(0))
        except BaseException:
            for worker in self._workers:
                worker.process.kill()
                worker.process.join()
                worker.conn.close()
            raise
        self._idle = list(self._workers)
        self._reader = threading.Thread(target=self._read, name="process-pool-reader", daemon=True)
        self._reader.start()

    def _start(self, rebuilds: int) -> _Worker:
        """Start one worker process with a fresh pipe.

        A forked worker closes its copies of the coordinator's ends of every
        pipe of the pool, its own included.
        """
        here, there = self._context.Pipe()
        try:
            forks = self._context.get_start_method() == "fork"
            inherited = (*(worker.conn for worker in self._workers), here) if forks else ()
            process = self._context.Process(
                target=_serve, args=(there, inherited, *self._initargs), daemon=True
            )
            process.start()
        except BaseException:
            here.close()
            raise
        finally:
            there.close()
        return _Worker(process, here, rebuilds)

    # ------------------------------------------------------------------ submission
    def submit(self, function: Callable, *args) -> Future:
        """Run ``function(*args)`` in a worker; the future resolves to its return value."""
        future: Future = Future()
        try:
            task = ForkingPickler.dumps((function, args))
        except Exception as exc:  # noqa: BLE001 - an unpicklable task fails its own future
            future.set_exception(exc)
            return future
        with self._lock:
            if self.broken:
                raise BrokenProcessPool("a worker died past its replacements; the pool is broken")
            if self._stopping:
                raise RuntimeError("cannot schedule new futures after shutdown")
            if self._idle:
                future.set_running_or_notify_cancel()
                self._send(self._idle.pop(), future, task)
            else:
                self._queue.append((future, task))
        return future

    def _send(self, worker: _Worker, future: Future, task) -> None:
        worker.future = future
        try:
            worker.conn.send_bytes(task)
        except OSError:
            pass  # the worker is gone: the reader fails ``future`` when it sees the death

    def _dispatch(self, worker: _Worker) -> None:
        """Give ``worker``, just freed, the oldest live queued task (under the lock)."""
        while self._queue and not self._stopping:
            future, task = self._queue.popleft()
            if future.set_running_or_notify_cancel():
                self._send(worker, future, task)
                return
        if self._stopping:
            self._retire(worker)
        else:
            self._idle.append(worker)

    def _retire(self, worker: _Worker) -> None:
        try:
            worker.conn.send(None)
        except OSError:
            pass

    def _take_queue(self) -> list[Future]:
        """Empty the FIFO, returning the futures that were not cancelled (under the lock)."""
        futures = [future for future, _ in self._queue if future.set_running_or_notify_cancel()]
        self._queue.clear()
        return futures

    # ------------------------------------------------------------------ the reader
    def _read(self) -> None:
        handles: dict = {}
        for worker in self._workers:
            handles[worker.conn] = handles[worker.process.sentinel] = worker
        try:
            while handles:
                for ready in wait(list(handles)):
                    worker = handles.get(ready)
                    if worker is None:
                        continue
                    if ready is worker.conn:
                        if not self._receive(worker):
                            del handles[ready]  # end of file: the sentinel follows
                        continue
                    # Dead: deliver whatever it sent before dying, then fail the rest.
                    while worker.conn in handles and worker.conn.poll():
                        if not self._receive(worker):
                            break
                    handles.pop(worker.conn, None)
                    del handles[ready]
                    successor = self._lost(worker)
                    if successor is not None:
                        handles[successor.conn] = handles[successor.process.sentinel] = successor
        except BaseException:  # noqa: BLE001 - a dead reader would strand every future
            self.terminate()
            for worker in self._workers:
                worker.process.join()
            raise
        finally:
            for worker in self._workers:
                worker.conn.close()

    def _receive(self, worker: _Worker) -> bool:
        """Resolve ``worker``'s task from its reply; ``False`` at end of file."""
        try:
            ok, value = worker.conn.recv()
        except (EOFError, OSError):
            return False
        except Exception as exc:  # noqa: BLE001 - a reply that cannot be unpickled
            ok, value = False, exc
        with self._lock:
            future, worker.future = worker.future, None
            self._dispatch(worker)
        if future is not None:
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)
        return True

    def _lost(self, worker: _Worker) -> "_Worker | None":
        """A worker exited: fail its task and replace it; return the replacement.

        Unless the pool is stopping, a fresh process takes the dead one's
        slot and the oldest queued task; the other workers and the queue are
        untouched.  A slot out of :data:`MAX_REBUILDS`, or a replacement
        that cannot start, breaks the pool for good and fails every queued
        task too.
        """
        worker.process.join()
        error = BrokenProcessPool(
            f"worker process {worker.process.pid} exited with code {worker.process.exitcode}"
        )
        successor = None
        if not self._stopping and worker.rebuilds < MAX_REBUILDS:
            try:
                successor = self._start(worker.rebuilds + 1)
            except Exception as exc:  # noqa: BLE001 - the reader must go on; the pool breaks below
                error.__cause__ = exc
        with self._lock:
            failed = [worker.future] if worker.future is not None else []
            worker.future = None
            if worker in self._idle:
                self._idle.remove(worker)
            if successor is not None:
                self._workers[self._workers.index(worker)] = successor
                self.replacements += 1
                if self._stopping:
                    successor.process.kill()  # a shutdown raced the replacement
                else:
                    self._dispatch(successor)
            elif not self._stopping:
                self.broken = True
                failed += self._take_queue()
        worker.conn.close()
        for future in failed:
            future.set_exception(error)
        return successor

    # ------------------------------------------------------------------ shutdown
    def terminate(self) -> None:
        """Kill every worker now; tasks in flight and queued fail with ``BrokenProcessPool``."""
        with self._lock:
            self._stopping = True
            failed = [worker.future for worker in self._workers if worker.future is not None]
            for worker in self._workers:
                worker.future = None
            failed += self._take_queue()
            self._idle.clear()
        for worker in self._workers:
            worker.process.kill()
        error = BrokenProcessPool("the process pool was terminated")
        for future in failed:
            future.set_exception(error)

    def join(self) -> None:
        """Wait until every worker has been reaped (a no-op on the reader thread itself)."""
        if threading.current_thread() is not self._reader:
            self._reader.join()

    def shutdown(self, grace: float) -> None:
        """Cancel queued tasks, give tasks in flight ``grace`` seconds, then kill what is left."""
        with self._lock:
            self._stopping = True
            queued = [future for future, _ in self._queue]
            self._queue.clear()
            idle, self._idle = self._idle, []
            for worker in idle:
                self._retire(worker)
        for future in queued:
            future.cancel()
        if threading.current_thread() is not self._reader:
            self._reader.join(grace)
        if self._reader.is_alive():
            self.terminate()
            self.join()


#: How long :meth:`ProcessPoolBackend.close` lets tasks in flight finish
#: before it kills their workers.
CLOSE_GRACE_S = 5.0


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
        Queries to register with every worker.  A request whose query is a
        registered one (same name, same content) is sent by *name* (and the
        query is pre-planned during warmup); any other query is pickled whole
        with each request.
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
        self._registered = {query.name: query for query in self._queries}
        self._start_method = start_method
        self._warmup = warmup
        self._trace = trace
        self._pool: _PipePool | None = None
        self._closed = False

    def capacity(self) -> int:
        return self._max_workers

    def _ensure_pool(self) -> _PipePool:
        if self._closed:
            raise OptimizationError("backend is closed")
        if self._pool is None:
            context = _pick_context(self._start_method)
            forks = context.get_start_method() == "fork"
            if self._warmup and forks:
                # A forked worker is a copy-on-write image of this process:
                # warm here once and every worker (a replacement included)
                # starts warm, instead of each planning and executing every
                # default plan again (and paying a page fault for each page
                # it writes doing so).
                if hasattr(self.database, "warmup"):
                    self.database.warmup(list(self._queries))
            self._pool = _PipePool(
                context,
                self._max_workers,
                (self.database, self._queries, self._warmup and not forks, self._trace),
            )
            # A backend dropped without close() takes its workers with it.
            weakref.finalize(self, self._pool.terminate)
        return self._pool

    def submit(self, request: ExecutionRequest) -> "Future[ExecutionOutcome]":
        return self.submit_batch([request])[0]

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
        items = [
            (request.plan, request.timeout, request.proposal_id) for request in requests
        ]
        futures: list[Future[ExecutionOutcome]] = [Future() for _ in requests]
        task = self._ensure_pool().submit(
            _execute_batch_in_worker, query_payload(requests[0].query, self._registered), items
        )
        fan_out_batch(task, futures)
        return futures

    def healthy(self) -> bool:
        # A pool that hasn't been started yet is healthy by definition; a
        # dead worker is replaced in place, so only a worker slot that died
        # past MAX_REBUILDS makes the pool unusable, for good.
        return not self._closed and (self._pool is None or not self._pool.broken)

    @property
    def replacements(self) -> int:
        """Dead workers the pool has replaced (the coordinator's member table shows it)."""
        return 0 if self._pool is None else self._pool.replacements

    def close(self) -> None:
        """Stop the workers: queued tasks are cancelled, tasks in flight get
        :data:`CLOSE_GRACE_S` to finish before their workers are killed."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(CLOSE_GRACE_S)
