"""Deterministic fault injection: one seeded schedule for the lease coordinator.

Offline planning spends hours of machine time on plan executions, so the
execution service has to survive unreliable infrastructure — and the only way
to *test* that it survives is to make the infrastructure unreliable on
purpose.  A :class:`FaultInjectionConfig` is handed to the lease coordinator
(:class:`~repro.exec.fabric.FabricBackend`), which draws one decision per
lease at dispatch, from four kinds of what a worker does to one execution:

* **crash** — the lease fails with a :class:`BrokenExecutor` subclass before
  the member sees it, modelling a worker process dying mid-task,
* **transient** — the lease fails with a
  :class:`~repro.exec.backend.TransientBackendError`, modelling a network
  blip or an evicted worker,
* **hang** — the execution runs, but its result is withheld for
  ``hang_seconds`` after completion, modelling a stuck worker; the
  coordinator's request deadline must fire first for the request to make
  progress,
* **slow** — like a hang but short (``slow_seconds``), modelling a straggler
  worker; a well-tuned deadline must *not* fire on these.

Every decision comes from a :func:`~repro.utils.seeding.stable_digest`-seeded
schedule keyed by ``(seed, query, plan, attempt)``, so a chaos scenario is a
pure function of its config and the submitted requests — the same run injects
the same faults in every process, on every machine, regardless of thread
timing.  The attempt is the coordinator's count of dispatches of that
``(query, plan)``, which is how a retried execution can deterministically
succeed where the first attempt crashed.  The coordinator counts what it
drew in its :class:`~repro.exec.fabric.FabricCounters`.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

from repro.exceptions import OptimizationError
from repro.exec.backend import ExecutionRequest, TransientBackendError
from repro.utils.seeding import stable_digest

#: Fault kinds, in the order their rate intervals partition ``[0, 1)``.
FAULT_KINDS = ("crash", "hang", "transient", "slow")


class InjectedWorkerCrash(BrokenExecutor):
    """An injected worker-process death (classified as infrastructure)."""


class InjectedTransientError(TransientBackendError):
    """An injected transient infrastructure failure (retryable)."""


@dataclass(frozen=True)
class FaultInjectionConfig:
    """A reproducible chaos scenario: fault rates, durations and the seed.

    The four rates partition ``[0, 1)``; each dispatch draws one stable
    uniform deviate from ``(seed, query, plan, attempt)``.
    ``max_faults_per_request`` bounds how many *attempts* of one
    ``(query, plan)`` request may fault — with a coordinator whose
    ``max_retries`` exceeds it, every request is guaranteed to eventually
    complete, which is what lets a chaos benchmark assert full completion
    while still exercising every failure path.  The attempt count is the
    coordinator's count of dispatches of that request.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    transient_rate: float = 0.0
    slow_rate: float = 0.0
    #: How long a hung execution withholds its (already computed) result.
    hang_seconds: float = 30.0
    #: How long a slow execution delays its result.
    slow_seconds: float = 0.05
    #: Attempts of one request eligible for faults; ``None`` = every attempt.
    max_faults_per_request: int | None = None

    def __post_init__(self) -> None:
        total = 0.0
        for kind in FAULT_KINDS:
            rate = getattr(self, f"{kind}_rate")
            if not 0.0 <= rate <= 1.0:
                raise OptimizationError(f"{kind}_rate must be in [0, 1], got {rate!r}")
            total += rate
        if total > 1.0:
            raise OptimizationError(f"fault rates must sum to at most 1, got {total}")
        if self.max_faults_per_request is not None and self.max_faults_per_request < 0:
            raise OptimizationError("max_faults_per_request must be non-negative")
        if self.hang_seconds <= 0:
            raise OptimizationError("hang_seconds must be positive")
        if self.slow_seconds < 0:
            raise OptimizationError("slow_seconds must be non-negative")

    def decide(self, request: ExecutionRequest, attempt: int) -> str | None:
        """The fault (if any) for ``attempt`` of ``request`` — a pure function.

        Deterministic in every process and under any submission
        interleaving: one stable uniform deviate of ``(seed, query, plan,
        attempt)`` lands in the ``<kind>_rate`` intervals, taken in
        :data:`FAULT_KINDS` order.
        """
        if self.max_faults_per_request is not None and attempt >= self.max_faults_per_request:
            return None
        deviate = stable_digest(
            "fault", self.seed, request.query.name, request.plan.canonical(), attempt, bits=53
        ) / float(1 << 53)
        edge = 0.0
        for kind in FAULT_KINDS:
            edge += getattr(self, f"{kind}_rate")
            if deviate < edge:
                return kind
        return None

