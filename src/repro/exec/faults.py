"""Deterministic fault injection: reproducible chaos for execution backends.

Offline planning spends hours of machine time on plan executions, so the
execution service has to survive unreliable infrastructure — and the only way
to *test* that it survives is to make the infrastructure unreliable on
purpose.  :class:`FaultInjectionBackend` wraps any
:class:`~repro.exec.backend.ExecutionBackend` and injects four fault kinds:

* **crash** — the submission fails with a :class:`BrokenExecutor` subclass,
  modelling a worker process dying mid-task,
* **transient** — the submission fails with a
  :class:`~repro.exec.backend.TransientBackendError`, modelling a network
  blip or an evicted worker,
* **hang** — the execution runs, but its result is withheld for
  ``hang_seconds`` after completion, modelling a stuck worker; a supervision
  deadline (:class:`~repro.exec.supervisor.SupervisedBackend`) must fire
  first for the request to make progress,
* **slow** — like a hang but short (``slow_seconds``), modelling a straggler
  replica; a well-tuned deadline must *not* fire on these.

Every decision comes from a :func:`~repro.utils.seeding.stable_digest`-seeded
schedule keyed by ``(seed, query, plan, attempt)``, so a chaos scenario is a
pure function of its config and the submitted requests — the same run injects
the same faults in every process, on every machine, regardless of thread
timing.  Retrying a request advances its per-request attempt counter, which
is how a retried execution can deterministically succeed where the first
attempt crashed.
"""

from __future__ import annotations

import threading
from concurrent.futures import BrokenExecutor, Future, InvalidStateError
from dataclasses import dataclass, field

from repro.core.protocol import ExecutionOutcome
from repro.exceptions import OptimizationError
from repro.exec.backend import ExecutionBackend, ExecutionRequest, TransientBackendError
from repro.utils.seeding import stable_digest

#: The injectable fault kinds, in the order the schedule's rate intervals
#: partition ``[0, 1)``.
FAULT_KINDS = ("crash", "hang", "transient", "slow")

#: Network-level fault kinds the fabric coordinator injects against node
#: links (see :mod:`repro.exec.fabric`), in rate-interval order.
NETWORK_FAULT_KINDS = ("drop", "partition", "slow_link", "kill")


def _check_rates(config, kinds: tuple[str, ...], what: str) -> None:
    """Validate a schedule's ``<kind>_rate`` fields and its fault cap."""
    total = 0.0
    for kind in kinds:
        rate = getattr(config, f"{kind}_rate")
        if not 0.0 <= rate <= 1.0:
            raise OptimizationError(f"{kind}_rate must be in [0, 1], got {rate!r}")
        total += rate
    if total > 1.0:
        raise OptimizationError(f"{what} rates must sum to at most 1, got {total}")
    if config.max_faults_per_request is not None and config.max_faults_per_request < 0:
        raise OptimizationError("max_faults_per_request must be non-negative")


def _draw(
    config, salt: str, kinds: tuple[str, ...], request: ExecutionRequest, attempt: int
) -> str | None:
    """The fault kind (if any) for ``attempt`` of ``request`` — a pure function.

    Deterministic in every process and under any submission interleaving:
    one stable uniform deviate of ``(salt, seed, query, plan, attempt)``
    lands in the ``<kind>_rate`` intervals, taken in ``kinds`` order.
    """
    if config.max_faults_per_request is not None and attempt >= config.max_faults_per_request:
        return None
    deviate = stable_digest(
        salt, config.seed, request.query.name, request.plan.canonical(), attempt, bits=53
    ) / float(1 << 53)
    edge = 0.0
    for kind in kinds:
        edge += getattr(config, f"{kind}_rate")
        if deviate < edge:
            return kind
    return None


class InjectedWorkerCrash(BrokenExecutor):
    """An injected worker-process death (classified as infrastructure)."""


class InjectedTransientError(TransientBackendError):
    """An injected transient infrastructure failure (retryable)."""


@dataclass(frozen=True)
class FaultInjectionConfig:
    """A reproducible chaos scenario: fault rates, durations and the seed.

    The four rates partition ``[0, 1)``; each submission draws a stable
    uniform deviate from ``(seed, query, plan, attempt)`` and the interval it
    lands in decides the fault (or none).  ``max_faults_per_request`` bounds
    how many *attempts* of one ``(query, plan)`` request may fault — with a
    supervisor whose ``max_retries`` exceeds it, every request is guaranteed
    to eventually complete, which is what lets a chaos benchmark assert full
    completion while still exercising every failure path.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    transient_rate: float = 0.0
    slow_rate: float = 0.0
    #: How long a hung execution withholds its (already computed) result.
    hang_seconds: float = 30.0
    #: How long a slow replica delays its result.
    slow_seconds: float = 0.05
    #: Attempts of one request eligible for faults; ``None`` = every attempt.
    max_faults_per_request: int | None = None

    def __post_init__(self) -> None:
        _check_rates(self, FAULT_KINDS, "fault")
        if self.hang_seconds <= 0:
            raise OptimizationError("hang_seconds must be positive")
        if self.slow_seconds < 0:
            raise OptimizationError("slow_seconds must be non-negative")

    def decide(self, request: ExecutionRequest, attempt: int) -> str | None:
        """The fault (if any) for ``attempt`` of ``request`` — a pure function."""
        return _draw(self, "fault", FAULT_KINDS, request, attempt)


@dataclass(frozen=True)
class NetworkFaultConfig:
    """A reproducible network-chaos scenario for the execution fabric.

    Same digest schedule as :class:`FaultInjectionConfig` (salted
    differently), decided at lease-dispatch time by the fabric coordinator:

    * **drop** — the node link is severed with the lease in flight; every
      pending request on that node fails over and the link reconnects
      immediately,
    * **partition** — both directions blackhole for ``partition_seconds``
      without closing the socket, so only the heartbeat deadline reclaims
      the in-flight leases; reconnection stays blocked until the heal,
    * **slow_link** — the reply is delivered ``slow_link_seconds`` late
      (a straggler link; must *not* trip a well-tuned liveness deadline),
    * **kill** — the node process dies (``os._exit``) before seeing the
      lease; the link's restarter respawns and re-ships the replica.

    ``max_faults_per_request`` bounds faulted attempts per ``(query, plan)``
    so every lease eventually dispatches clean; ``max_kills`` caps process
    kills fleet-wide.  Fault *decisions* are a pure function of
    ``(seed, query, plan, attempt)``; execution outcomes are deterministic in
    ``(query, plan, timeout)``, so chaos traces are bit-for-bit identical to
    fault-free ones no matter where each lease finally runs.
    """

    seed: int = 0
    drop_rate: float = 0.0
    partition_rate: float = 0.0
    slow_link_rate: float = 0.0
    kill_rate: float = 0.0
    #: How long a partition blackholes the link (should exceed the fabric's
    #: heartbeat timeout so detection genuinely goes through the deadline).
    partition_seconds: float = 0.5
    #: How long a slow link delays reply delivery.
    slow_link_seconds: float = 0.05
    #: Attempts of one request eligible for faults; ``None`` = every attempt.
    max_faults_per_request: int | None = 1
    #: Fleet-wide cap on injected node kills; ``None`` = unbounded.
    max_kills: int | None = None

    def __post_init__(self) -> None:
        _check_rates(self, NETWORK_FAULT_KINDS, "network fault")
        if self.partition_seconds <= 0:
            raise OptimizationError("partition_seconds must be positive")
        if self.slow_link_seconds < 0:
            raise OptimizationError("slow_link_seconds must be non-negative")
        if self.max_kills is not None and self.max_kills < 0:
            raise OptimizationError("max_kills must be non-negative")

    def decide(self, request: ExecutionRequest, attempt: int) -> str | None:
        """The network fault (if any) for ``attempt`` of ``request``."""
        return _draw(self, "netfault", NETWORK_FAULT_KINDS, request, attempt)


@dataclass
class NetworkFaultCounters:
    """What a fabric's network-chaos schedule actually injected."""

    drops: int = 0
    partitions: int = 0
    slow_links: int = 0
    kills: int = 0
    clean: int = 0

    @property
    def total_faults(self) -> int:
        return self.drops + self.partitions + self.slow_links + self.kills

    def snapshot(self) -> dict:
        return {
            "drops": self.drops,
            "partitions": self.partitions,
            "slow_links": self.slow_links,
            "kills": self.kills,
            "clean": self.clean,
            "total_faults": self.total_faults,
        }


@dataclass
class FaultCounters:
    """What one :class:`FaultInjectionBackend` actually injected."""

    crashes: int = 0
    hangs: int = 0
    transients: int = 0
    slowdowns: int = 0
    clean: int = 0

    @property
    def total_faults(self) -> int:
        return self.crashes + self.hangs + self.transients + self.slowdowns

    def snapshot(self) -> dict:
        return {
            "crashes": self.crashes,
            "hangs": self.hangs,
            "transients": self.transients,
            "slowdowns": self.slowdowns,
            "clean": self.clean,
            "total_faults": self.total_faults,
        }


class FaultInjectionBackend:
    """Wrap a backend so a seeded schedule injects faults into its requests.

    Crashes and transient errors short-circuit (the inner backend never sees
    the request — the submission itself "dies"); hangs and slowdowns run the
    request for real and only delay delivery of its result, which is exactly
    what a stuck or straggling worker looks like from the scheduler.  The
    delay timers are daemonic and cancelled on :meth:`close`, with any
    withheld results flushed so no caller is left waiting on a closed
    backend.
    """

    name = "faults"

    def __init__(self, inner: ExecutionBackend, config: FaultInjectionConfig) -> None:
        self.inner = inner
        self.config = config
        self.counters = FaultCounters()
        self._attempts: dict[tuple, int] = {}
        self._lock = threading.Lock()
        #: timer -> (inner future, outer future) for in-flight delayed deliveries.
        self._delayed: dict[threading.Timer, tuple[Future, Future]] = {}
        self._closed = False

    # ------------------------------------------------------------------ backend protocol
    def capacity(self) -> int:
        return self.inner.capacity()

    def healthy(self) -> bool:
        return not self._closed and self.inner.healthy()

    def submit(self, request: ExecutionRequest) -> "Future[ExecutionOutcome]":
        if self._closed:
            raise OptimizationError("backend is closed")
        attempt = self._next_attempt(request)
        kind = self.config.decide(request, attempt)
        if kind == "crash":
            self.counters.crashes += 1
            return self._failed(
                InjectedWorkerCrash(
                    f"injected worker crash (query {request.query.name!r}, attempt {attempt})"
                )
            )
        if kind == "transient":
            self.counters.transients += 1
            return self._failed(
                InjectedTransientError(
                    f"injected transient infra error (query {request.query.name!r}, "
                    f"attempt {attempt})"
                )
            )
        if kind == "hang":
            self.counters.hangs += 1
            return self._delayed_submit(request, self.config.hang_seconds)
        if kind == "slow":
            self.counters.slowdowns += 1
            return self._delayed_submit(request, self.config.slow_seconds)
        self.counters.clean += 1
        return self.inner.submit(request)

    def close(self) -> None:
        """Cancel pending delay timers, flush withheld results, close inner."""
        with self._lock:
            self._closed = True
            delayed = list(self._delayed.items())
            self._delayed.clear()
        for timer, (inner_future, outer) in delayed:
            timer.cancel()
            if inner_future.done():
                _copy_completion(inner_future, outer)
        self.inner.close()

    # ------------------------------------------------------------------ internals
    def _next_attempt(self, request: ExecutionRequest) -> int:
        key = (request.query.name, request.plan.canonical())
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
        return attempt

    @staticmethod
    def _failed(exc: Exception) -> "Future[ExecutionOutcome]":
        future: Future[ExecutionOutcome] = Future()
        future.set_exception(exc)
        return future

    def _delayed_submit(self, request: ExecutionRequest, delay: float) -> "Future[ExecutionOutcome]":
        """Run the request now, withhold its completion for ``delay`` seconds."""
        outer: Future[ExecutionOutcome] = Future()
        inner_future = self.inner.submit(request)

        # The delay starts when the execution *finishes*: a hung worker has
        # done the work, it just never reports back in time.
        def arm(done: Future) -> None:
            def deliver() -> None:
                with self._lock:
                    self._delayed.pop(timer, None)
                _copy_completion(done, outer)

            timer = threading.Timer(delay, deliver)
            timer.daemon = True
            with self._lock:
                if self._closed:
                    _copy_completion(done, outer)
                    return
                self._delayed[timer] = (done, outer)
            timer.start()

        inner_future.add_done_callback(arm)
        return outer


def _copy_completion(source: Future, target: Future) -> None:
    """Copy a finished future's completion onto ``target``, tolerating races."""
    try:
        exc = source.exception()
        if exc is not None:
            target.set_exception(exc)
        else:
            target.set_result(source.result())
    except InvalidStateError:  # pragma: no cover - duplicate delivery race
        pass
