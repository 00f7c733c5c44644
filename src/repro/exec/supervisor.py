"""Worker supervision: hang watchdogs, retry with backoff, pool recovery.

A three-hour offline tuning session must not discard its run because one
worker crashed or one execution hung.  :class:`SupervisedBackend` wraps any
:class:`~repro.exec.backend.ExecutionBackend` with the recovery policy the
rest of the stack assumes:

* **Hang watchdog** — every request gets a wall-clock deadline
  (``request_deadline``); a request that has not completed by then is treated
  as an infrastructure failure (:class:`HangTimeout`) and retried.  A late
  result from the abandoned attempt is discarded, never double-observed.
* **Retry with exponential backoff + jitter** — infrastructure failures
  (:class:`~concurrent.futures.BrokenExecutor`, worker death;
  :class:`~repro.exec.backend.TransientBackendError`, network blips; hangs)
  are retried up to ``max_retries`` times, with delay
  ``min(backoff_max, backoff_base * 2**attempt)`` plus a deterministic jitter
  derived from :func:`~repro.utils.seeding.stable_digest` of the request —
  reproducible, yet decorrelated across requests.  Genuine execution errors
  (the plan itself failing) are **never** retried: they propagate untouched.
* **Pool rebuild** — when the wrapped backend reports itself unhealthy after
  a :class:`BrokenExecutor` (e.g. ``BrokenProcessPool``) and offers a
  ``rebuild()`` method (:class:`~repro.exec.process_pool.ProcessPoolBackend`
  does), the supervisor rebuilds it up to ``max_rebuilds`` times before
  giving up on it.
* **Graceful degradation** — with all pooled capacity lost (unhealthy, no
  rebuilds left), the supervisor routes every subsequent attempt to the
  ``fallback`` backend (typically an
  :class:`~repro.exec.backend.InlineBackend` on the scheduler thread): the
  session finishes slower instead of dying.

Budget semantics: the scheduler charges budget per *completed outcome*, and a
supervised request yields exactly one outcome no matter how many attempts it
took — retries cost wall-clock, never optimization budget.  The delivered
:class:`~repro.core.protocol.ExecutionOutcome` carries the attempt count in
its ``attempts`` field for observability.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import BrokenExecutor, Future, InvalidStateError
from dataclasses import dataclass

from repro.core.protocol import ExecutionOutcome
from repro.exceptions import OptimizationError
from repro.exec.backend import (
    ExecutionBackend,
    ExecutionRequest,
    TransientBackendError,
    is_infra_failure,
)
from repro.utils.seeding import stable_digest


class HangTimeout(TransientBackendError):
    """A request exceeded its supervision deadline (treated as infrastructure)."""


@dataclass
class SupervisorCounters:
    """What one :class:`SupervisedBackend` had to do to keep requests alive."""

    submissions: int = 0
    attempts: int = 0
    retries: int = 0
    hangs: int = 0
    crashes: int = 0
    transients: int = 0
    rebuilds: int = 0
    fallback_attempts: int = 0
    give_ups: int = 0

    def snapshot(self) -> dict:
        return {
            "submissions": self.submissions,
            "attempts": self.attempts,
            "retries": self.retries,
            "hangs": self.hangs,
            "crashes": self.crashes,
            "transients": self.transients,
            "rebuilds": self.rebuilds,
            "fallback_attempts": self.fallback_attempts,
            "give_ups": self.give_ups,
        }


class SupervisedBackend:
    """Add hang watchdogs, bounded retry and degradation to any backend.

    Parameters
    ----------
    inner:
        The supervised backend.
    request_deadline:
        Wall-clock seconds one attempt may run before it is declared hung and
        retried.  ``None`` disables the watchdog (crashes/transients are
        still retried).
    max_retries:
        Retries per request beyond the first attempt.  ``0`` still classifies
        failures and rebuilds pools, but never re-submits.
    backoff_base / backoff_max / backoff_jitter:
        Exponential backoff: attempt ``k`` waits
        ``min(backoff_max, backoff_base * 2**k) * (1 + backoff_jitter * u)``
        where ``u`` is a stable per-request uniform deviate.
    max_rebuilds:
        How many times an unhealthy inner backend offering ``rebuild()`` is
        rebuilt before the supervisor degrades to the fallback.
    fallback:
        Backend used once the inner backend is considered lost; ``None``
        keeps submitting to the inner backend (its errors then propagate
        after ``max_retries``).
    """

    name = "supervised"

    def __init__(
        self,
        inner: ExecutionBackend,
        *,
        request_deadline: float | None = None,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        backoff_jitter: float = 0.25,
        max_rebuilds: int = 2,
        fallback: ExecutionBackend | None = None,
    ) -> None:
        if request_deadline is not None and request_deadline <= 0:
            raise OptimizationError("request_deadline must be positive")
        if max_retries < 0:
            raise OptimizationError("max_retries must be non-negative")
        if backoff_base <= 0:
            raise OptimizationError("backoff_base must be positive")
        if backoff_max < backoff_base:
            raise OptimizationError("backoff_max must be at least backoff_base")
        if backoff_jitter < 0:
            raise OptimizationError("backoff_jitter must be non-negative")
        if max_rebuilds < 0:
            raise OptimizationError("max_rebuilds must be non-negative")
        self.inner = inner
        self.fallback = fallback
        self.request_deadline = request_deadline
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.backoff_jitter = backoff_jitter
        self.max_rebuilds = max_rebuilds
        self.counters = SupervisorCounters()
        # RLock: inline backends complete futures synchronously inside
        # submit(), so completion callbacks can re-enter while _attempt holds
        # the lock.
        self._lock = threading.RLock()
        self._timers: set[threading.Timer] = set()
        self._rebuilds_done = 0
        self._degraded = False
        self._closed = False

    # ------------------------------------------------------------------ backend protocol
    def capacity(self) -> int:
        return self._current_backend().capacity()

    def healthy(self) -> bool:
        if self._closed:
            return False
        return self.inner.healthy() or self.fallback is not None

    def submit(self, request: ExecutionRequest) -> "Future[ExecutionOutcome]":
        if self._closed:
            raise OptimizationError("backend is closed")
        outer: Future[ExecutionOutcome] = Future()
        self.counters.submissions += 1
        self._attempt(request, outer, attempt=0)
        return outer

    def close(self) -> None:
        with self._lock:
            self._closed = True
            timers = list(self._timers)
            self._timers.clear()
        for timer in timers:
            timer.cancel()
        self.inner.close()
        if self.fallback is not None:
            self.fallback.close()

    # ------------------------------------------------------------------ observability
    @property
    def degraded(self) -> bool:
        """Whether the supervisor has abandoned the inner backend."""
        return self._degraded

    def report(self) -> dict:
        """Counters plus degradation state, for session health reports."""
        report = self.counters.snapshot()
        report["degraded"] = self._degraded
        report["pool_rebuilds_done"] = self._rebuilds_done
        return report

    # ------------------------------------------------------------------ supervision
    def _current_backend(self) -> ExecutionBackend:
        if self._degraded and self.fallback is not None:
            return self.fallback
        return self.inner

    def _attempt(self, request: ExecutionRequest, outer: Future, attempt: int) -> None:
        if outer.cancelled():
            return
        with self._lock:
            if self._closed:
                _resolve(outer, exc=OptimizationError("supervisor closed with request in flight"))
                return
            backend = self._current_backend()
            self.counters.attempts += 1
            if backend is self.fallback:
                self.counters.fallback_attempts += 1
        try:
            inner_future = backend.submit(request)
        except Exception as exc:  # noqa: BLE001 - classified below
            self._on_failure(request, outer, attempt, exc)
            return

        # One of {completion callback, watchdog} settles the attempt; the
        # loser finds `settled` set and discards its event (a late result
        # from a hung attempt must never be observed twice).
        settled = [False]
        timer: threading.Timer | None = None

        def on_done(done: Future) -> None:
            with self._lock:
                if settled[0]:
                    return
                settled[0] = True
                if timer is not None:
                    timer.cancel()
                    self._timers.discard(timer)
            exc = done.exception()
            if exc is None:
                outcome = done.result()
                if isinstance(outcome, ExecutionOutcome):
                    outcome = dataclasses.replace(outcome, attempts=attempt + 1)
                _resolve(outer, result=outcome)
            else:
                self._on_failure(request, outer, attempt, exc)

        if self.request_deadline is not None:

            def on_deadline() -> None:
                with self._lock:
                    if settled[0]:
                        return
                    settled[0] = True
                    if timer is not None:
                        self._timers.discard(timer)
                self.counters.hangs += 1
                inner_future.cancel()
                self._on_failure(
                    request,
                    outer,
                    attempt,
                    HangTimeout(
                        f"execution of query {request.query.name!r} exceeded the "
                        f"{self.request_deadline}s supervision deadline "
                        f"(attempt {attempt + 1})"
                    ),
                    counted=True,
                )

            timer = threading.Timer(self.request_deadline, on_deadline)
            timer.daemon = True
            with self._lock:
                if not self._closed:
                    self._timers.add(timer)
                    timer.start()
        inner_future.add_done_callback(on_done)

    def _on_failure(
        self,
        request: ExecutionRequest,
        outer: Future,
        attempt: int,
        exc: BaseException,
        counted: bool = False,
    ) -> None:
        if not is_infra_failure(exc):
            # The plan itself failed: propagate untouched, never retry.
            _resolve(outer, exc=exc)
            return
        if not counted:
            if isinstance(exc, BrokenExecutor):
                self.counters.crashes += 1
            else:
                self.counters.transients += 1
        self._maybe_recover(exc)
        if attempt >= self.max_retries:
            self.counters.give_ups += 1
            _resolve(outer, exc=exc)
            return
        self.counters.retries += 1
        delay = self._backoff_delay(request, attempt)
        retry = threading.Timer(delay, self._attempt, args=(request, outer, attempt + 1))
        retry.daemon = True
        with self._lock:
            if self._closed:
                _resolve(outer, exc=exc)
                return
            self._timers.add(retry)
        retry.start()

    def _maybe_recover(self, exc: BaseException) -> None:
        """After a worker death: rebuild the pool, or degrade to the fallback."""
        if not isinstance(exc, BrokenExecutor):
            return
        with self._lock:
            if self._degraded or self.inner.healthy():
                # Injected crashes (or a coordinator with surviving members
                # or a fallback) leave the backend healthy — nothing to
                # recover.
                return
            rebuild = getattr(self.inner, "rebuild", None)
            if callable(rebuild) and self._rebuilds_done < self.max_rebuilds:
                self._rebuilds_done += 1
                self.counters.rebuilds += 1
            else:
                rebuild = None
                if self.fallback is not None:
                    self._degraded = True
        if rebuild is not None:
            rebuild()

    def _backoff_delay(self, request: ExecutionRequest, attempt: int) -> float:
        base = min(self.backoff_max, self.backoff_base * (2.0 ** attempt))
        deviate = stable_digest(
            "backoff", request.query.name, request.plan.canonical(), attempt, bits=32
        ) / float(1 << 32)
        return base * (1.0 + self.backoff_jitter * deviate)


def _resolve(outer: Future, result=None, exc=None) -> None:
    """Complete the outer future, tolerating a scheduler-side cancel."""
    try:
        if exc is not None:
            outer.set_exception(exc)
        else:
            outer.set_result(result)
    except InvalidStateError:  # pragma: no cover - cancelled mid-flight
        pass
