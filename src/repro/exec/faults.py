"""Deterministic fault injection: one seeded schedule for the lease coordinator.

Offline planning spends hours of machine time on plan executions, so the
execution service has to survive unreliable infrastructure — and the only way
to *test* that it survives is to make the infrastructure unreliable on
purpose.  A :class:`FaultInjectionConfig` is handed to the lease coordinator
(:class:`~repro.exec.fabric.FabricBackend`), which draws one decision per
lease at dispatch, from eight fault kinds in two families.

Member faults (what a worker does to one execution):

* **crash** — the lease fails with a :class:`BrokenExecutor` subclass before
  its member sees it, modelling a worker process dying mid-task,
* **transient** — the lease fails with a
  :class:`~repro.exec.backend.TransientBackendError`, modelling a network
  blip or an evicted worker,
* **hang** — the execution runs, but its result is withheld for
  ``hang_seconds`` after completion, modelling a stuck worker; the
  coordinator's request deadline must fire first for the request to make
  progress,
* **slow** — like a hang but short (``slow_seconds``), modelling a straggler
  replica; a well-tuned deadline must *not* fire on these.

Link faults (what the network does to a node link; drops, partitions and
kills need a link with ``inject_*`` hooks,
:class:`~repro.exec.remote.RemoteNodeBackend`, and run clean against any
other member):

* **drop** — the node link is severed with the lease in flight; every
  pending request on that node fails over and the link reconnects
  immediately,
* **partition** — both directions blackhole for ``partition_seconds``
  without closing the socket, so only the heartbeat deadline reclaims the
  in-flight leases; reconnection stays blocked until the heal,
* **slow_link** — the reply is delivered ``slow_link_seconds`` late (a
  straggler link; must *not* trip a well-tuned liveness deadline),
* **kill** — the node process dies (``os._exit``) before seeing the lease;
  the link's restarter respawns and re-ships the replica.

Every decision comes from a :func:`~repro.utils.seeding.stable_digest`-seeded
schedule keyed by ``(seed, query, plan, attempt)``, so a chaos scenario is a
pure function of its config and the submitted requests — the same run injects
the same faults in every process, on every machine, regardless of thread
timing.  The attempt is the coordinator's count of dispatches of that
``(query, plan)``, which is how a retried execution can deterministically
succeed where the first attempt crashed.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
from dataclasses import asdict, dataclass, fields

from repro.exceptions import OptimizationError
from repro.exec.backend import ExecutionRequest, TransientBackendError
from repro.utils.seeding import stable_digest

#: Member fault kinds, in the order their rate intervals partition ``[0, 1)``.
FAULT_KINDS = ("crash", "hang", "transient", "slow")

#: Link fault kinds, in rate-interval order; drawn from a second deviate
#: (salted differently) when the member draw is clean.
LINK_FAULT_KINDS = ("drop", "partition", "slow_link", "kill")


def _check_rates(config, kinds: tuple[str, ...], what: str) -> None:
    """Validate one family's ``<kind>_rate`` fields."""
    total = 0.0
    for kind in kinds:
        rate = getattr(config, f"{kind}_rate")
        if not 0.0 <= rate <= 1.0:
            raise OptimizationError(f"{kind}_rate must be in [0, 1], got {rate!r}")
        total += rate
    if total > 1.0:
        raise OptimizationError(f"{what} rates must sum to at most 1, got {total}")


def _draw(
    config, salt: str, kinds: tuple[str, ...], request: ExecutionRequest, attempt: int
) -> str | None:
    """One family's fault kind (if any) for ``attempt`` of ``request``.

    Deterministic in every process and under any submission interleaving:
    one stable uniform deviate of ``(salt, seed, query, plan, attempt)``
    lands in the ``<kind>_rate`` intervals, taken in ``kinds`` order.
    """
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

    Each family's four rates partition ``[0, 1)``; each dispatch draws a
    stable uniform deviate from ``(seed, query, plan, attempt)`` for the
    member kinds and, when that draw is clean, a second one for the link
    kinds.  ``max_faults_per_request`` bounds how many *attempts* of one
    ``(query, plan)`` request may fault — with a coordinator whose
    ``max_retries`` exceeds it, every request is guaranteed to eventually
    complete, which is what lets a chaos benchmark assert full completion
    while still exercising every failure path.  The attempt count is the
    coordinator's, over all its members, so the bound holds however many
    members a request visits.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    transient_rate: float = 0.0
    slow_rate: float = 0.0
    drop_rate: float = 0.0
    partition_rate: float = 0.0
    slow_link_rate: float = 0.0
    kill_rate: float = 0.0
    #: How long a hung execution withholds its (already computed) result.
    hang_seconds: float = 30.0
    #: How long a slow replica delays its result.
    slow_seconds: float = 0.05
    #: How long a partition blackholes the link (should exceed the fabric's
    #: heartbeat timeout so detection genuinely goes through the deadline).
    partition_seconds: float = 0.5
    #: How long a slow link delays reply delivery.
    slow_link_seconds: float = 0.05
    #: Attempts of one request eligible for faults; ``None`` = every attempt.
    max_faults_per_request: int | None = None
    #: Fleet-wide cap on injected node kills; ``None`` = unbounded.
    max_kills: int | None = None

    def __post_init__(self) -> None:
        _check_rates(self, FAULT_KINDS, "fault")
        _check_rates(self, LINK_FAULT_KINDS, "link fault")
        if self.max_faults_per_request is not None and self.max_faults_per_request < 0:
            raise OptimizationError("max_faults_per_request must be non-negative")
        if self.hang_seconds <= 0:
            raise OptimizationError("hang_seconds must be positive")
        if self.slow_seconds < 0:
            raise OptimizationError("slow_seconds must be non-negative")
        if self.partition_seconds <= 0:
            raise OptimizationError("partition_seconds must be positive")
        if self.slow_link_seconds < 0:
            raise OptimizationError("slow_link_seconds must be non-negative")
        if self.max_kills is not None and self.max_kills < 0:
            raise OptimizationError("max_kills must be non-negative")

    def decide(self, request: ExecutionRequest, attempt: int) -> str | None:
        """The fault (if any) for ``attempt`` of ``request`` — a pure function."""
        if self.max_faults_per_request is not None and attempt >= self.max_faults_per_request:
            return None
        return _draw(self, "fault", FAULT_KINDS, request, attempt) or _draw(
            self, "netfault", LINK_FAULT_KINDS, request, attempt
        )


#: The counter each fault kind bumps (``None`` is a clean dispatch).
_COUNTER_OF = {
    "crash": "crashes",
    "hang": "hangs",
    "transient": "transients",
    "slow": "slowdowns",
    "drop": "drops",
    "partition": "partitions",
    "slow_link": "slow_links",
    "kill": "kills",
    None: "clean",
}


@dataclass
class FaultCounters:
    """What a coordinator's fault schedule actually injected, per kind."""

    crashes: int = 0
    hangs: int = 0
    transients: int = 0
    slowdowns: int = 0
    drops: int = 0
    partitions: int = 0
    slow_links: int = 0
    kills: int = 0
    clean: int = 0

    def count(self, kind: str | None) -> None:
        name = _COUNTER_OF[kind]
        setattr(self, name, getattr(self, name) + 1)

    @property
    def total_faults(self) -> int:
        return sum(getattr(self, field.name) for field in fields(self)) - self.clean

    def snapshot(self) -> dict:
        report = asdict(self)
        report["total_faults"] = self.total_faults
        return report
