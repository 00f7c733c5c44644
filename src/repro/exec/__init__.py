"""The execution service: pluggable backends + cross-query scheduling policies.

The paper's offline tuner is throughput-bound on plan *executions*: every
technique's budget is time spent executing proposed plans, so how fast and
how concurrently those executions run determines wall-clock end to end.  This
subsystem separates **where executions run** from **which query runs next**,
behind two small contracts the :class:`~repro.harness.runner.WorkloadSession`
scheduler drives:

**Backends** (:class:`ExecutionBackend`) — turn an :class:`ExecutionRequest`
(query + plan + timeout) into a future :class:`ExecutionOutcome`:

* :class:`InlineBackend` — on the scheduler thread; sequential runs are
  bit-for-bit the pre-subsystem behaviour.
* :class:`ThreadPoolBackend` — a thread pool; overlaps *waiting* (DBMS
  round-trips), the PR 2 interleaved mode.
* :class:`ProcessPoolBackend` — worker processes, each holding a warm
  :class:`~repro.db.engine.Database` replica (forked from the coordinator's
  database, warmed once; or shipped by pickle and warmed per worker); scales
  *CPU-bound* simulated executions past the GIL.  Determinism rests on the
  sha256-based stable seeding of every latency/RNG digest
  (:mod:`repro.utils.seeding`).
* :class:`MultiBackendRouter` — fans executions over several independent
  backends with per-member occupancy and health tracking; infrastructure
  failures are retried on the surviving members.
* :class:`FabricBackend` — lease-based dispatch over shared-nothing node
  *processes* speaking the socket protocol of :mod:`repro.exec.remote`:
  heartbeat liveness, deterministic lease reassignment on node loss,
  probation/half-open rejoin, cross-node outcome-cache replication and
  graceful degradation to inline execution.

**Policies** (:class:`SchedulingPolicy`) — pick which ready query state gets
the next free slot (a slot holds one worker task: a lone request, or a
same-query batch submitted through ``submit_batch``):

* :class:`RoundRobin` — FIFO; reproduces the PR 2 schedule exactly.
* :class:`BudgetAwarePriority` — spends remaining budget on the queries whose
  surrogate posterior predicts the largest expected improvement (techniques
  advertising ``predicts_improvement`` in the registry), falling back to
  worst-incumbent-first for model-free techniques.

Policies reorder work *across* queries only; each query's own plan sequence
is unchanged, so final traces are identical under every backend/policy pair
at q=1, and at any fixed q on backends with a batch path — verified by the
determinism tests (``tests/test_exec.py``, ``tests/test_batch_ask.py``) and
the ``benchmarks/bench_exec_backends.py`` gate.

Configuration: either hand a ``WorkloadSession`` backend/policy instances, or
describe them with :class:`~repro.core.config.ExecutionServiceConfig` —
``backend`` ("inline" / "thread" / "process" / "fabric"), ``max_workers``, ``policy``
("round_robin" / "budget_aware"), ``replicas`` (> 1 puts a router in front),
``start_method`` and ``warmup`` — and let :func:`make_backend` /
:func:`make_policy` build them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import ExecutionServiceConfig
from repro.core.protocol import ExecutionOutcome
from repro.db.plan_cache import CacheStats, ExecutionCache, ExecutionCacheConfig
from repro.db.query import Query
from repro.exceptions import OptimizationError
from repro.exec.backend import (
    ExecutionBackend,
    ExecutionRequest,
    InlineBackend,
    ThreadPoolBackend,
    TransientBackendError,
    is_infra_failure,
    perform_batch,
    perform_request,
    submit_request_batch,
)
from repro.exec.fabric import FabricBackend, FabricCounters, start_local_fabric
from repro.exec.faults import (
    FaultCounters,
    FaultInjectionBackend,
    FaultInjectionConfig,
    InjectedTransientError,
    InjectedWorkerCrash,
    NetworkFaultConfig,
    NetworkFaultCounters,
)
from repro.exec.policy import BudgetAwarePriority, RoundRobin, SchedulingPolicy
from repro.exec.process_pool import ProcessPoolBackend, RemoteExecutionError
from repro.exec.remote import NodeLostError, RemoteNodeBackend
from repro.exec.router import BackendStatus, BackendUnavailableError, MultiBackendRouter
from repro.exec.supervisor import HangTimeout, SupervisedBackend, SupervisorCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.engine import Database

__all__ = [
    "BackendStatus",
    "BackendUnavailableError",
    "BudgetAwarePriority",
    "CacheStats",
    "ExecutionBackend",
    "ExecutionCache",
    "ExecutionCacheConfig",
    "ExecutionOutcome",
    "ExecutionRequest",
    "ExecutionServiceConfig",
    "FabricBackend",
    "FabricCounters",
    "FaultCounters",
    "FaultInjectionBackend",
    "FaultInjectionConfig",
    "HangTimeout",
    "InjectedTransientError",
    "InjectedWorkerCrash",
    "InlineBackend",
    "MultiBackendRouter",
    "NetworkFaultConfig",
    "NetworkFaultCounters",
    "NodeLostError",
    "ProcessPoolBackend",
    "RemoteExecutionError",
    "RemoteNodeBackend",
    "RoundRobin",
    "SchedulingPolicy",
    "SupervisedBackend",
    "SupervisorCounters",
    "ThreadPoolBackend",
    "TransientBackendError",
    "apply_cache_overrides",
    "backend_health",
    "is_infra_failure",
    "make_backend",
    "make_policy",
    "perform_batch",
    "perform_request",
    "start_local_fabric",
    "submit_request_batch",
]


def backend_health(backend: "ExecutionBackend | None") -> dict:
    """Health snapshot of a backend stack's wrapper layers.

    Walks supervisor -> fault harness -> router/pool by the ``inner``
    convention, so any holder of a composed backend (the scheduler's
    :class:`~repro.harness.runner.WorkloadSession`, the serving layer's
    :class:`~repro.serve.server.PlanServer`) reports degradation — retries
    burned, replicas on probation, injected faults — the same way.
    """
    report: dict = {}
    layer = backend
    seen: set[int] = set()
    while layer is not None and id(layer) not in seen:
        seen.add(id(layer))
        if isinstance(layer, SupervisedBackend):
            report["supervisor"] = layer.report()
        elif isinstance(layer, FaultInjectionBackend):
            report["faults"] = layer.counters.snapshot()
        elif isinstance(layer, MultiBackendRouter):
            report["router"] = [status.snapshot() for status in layer.statuses()]
        elif isinstance(layer, FabricBackend):
            # Per-node liveness, lease reassignments, reconnect/backoff
            # counters and shipped-log cache hits — one section, shared by
            # WorkloadSession.health_report() and PlanServer health.
            report["fabric"] = layer.health_snapshot()
        layer = getattr(layer, "inner", None)
    return report


def apply_cache_overrides(config: ExecutionServiceConfig, database: "Database") -> "Database":
    """The database the service config's cache knobs describe.

    Returns ``database`` untouched when both knobs are ``None`` (the
    defaults — the database's own ``exec_cache`` choice stands) or when the
    database does not expose the cache API (duck-typed wrappers).  With an
    explicit override, a snapshot sharing the same relations carries the
    merged config, so the caller's database is never silently reconfigured
    and its warm cache state is never dropped.
    """
    if config.plan_cache is None and config.plan_cache_bytes is None:
        return database
    if not hasattr(database, "with_execution_cache"):
        return database
    current = database.exec_cache_config
    return database.with_execution_cache(
        ExecutionCacheConfig(
            enabled=config.plan_cache if config.plan_cache is not None else current.enabled,
            max_bytes=(
                config.plan_cache_bytes
                if config.plan_cache_bytes is not None
                else current.max_bytes
            ),
            max_entry_bytes=current.max_entry_bytes,
        )
    )


def make_backend(
    config: ExecutionServiceConfig,
    database: "Database",
    queries: "list[Query] | None" = None,
    tracer=None,
) -> ExecutionBackend:
    """Build the backend an :class:`ExecutionServiceConfig` describes.

    With ``replicas > 1`` every replica is an independent backend instance
    (process backends get their own worker pools) behind one
    :class:`MultiBackendRouter`.

    The config's execution-memoization knobs (``plan_cache`` /
    ``plan_cache_bytes``) are applied through
    :func:`apply_cache_overrides` first, so they govern inline/thread
    execution directly and reach every process-pool worker with the
    database (inherited on fork, or riding the pickled constructor inputs;
    either way each worker's cache is private from its start on).  Knobs left at ``None`` keep whatever ``exec_cache``
    configuration the database was built with, and overrides never mutate
    the caller's database — a snapshot sharing the same relations carries
    them instead.
    """
    database = apply_cache_overrides(config, database)
    tracing = tracer is not None and getattr(tracer, "enabled", False)

    def one_backend() -> ExecutionBackend:
        if config.backend == "inline":
            return InlineBackend(database, tracer=tracer if tracing else None)
        if config.backend == "thread":
            return ThreadPoolBackend(
                database,
                max_workers=config.max_workers,
                tracer=tracer if tracing else None,
            )
        if config.backend == "process":
            # Workers record into private tracers and ship drained spans back
            # on outcomes; the parent-side tracer object itself never crosses.
            return ProcessPoolBackend(
                database,
                max_workers=config.max_workers,
                queries=queries,
                start_method=config.start_method,
                warmup=config.warmup,
                trace=tracing,
            )
        if config.backend == "fabric":
            # Localhost node processes behind the fabric coordinator; node
            # tracers ship spans back on outcomes like the process pool.
            network_faults = config.fabric_network_faults
            if network_faults is not None and not isinstance(network_faults, NetworkFaultConfig):
                network_faults = NetworkFaultConfig(**dict(network_faults))  # type: ignore[arg-type]
            return start_local_fabric(
                database,
                queries=queries,
                num_nodes=config.fabric_nodes,
                warmup=config.warmup,
                trace=tracing,
                heartbeat_interval=config.fabric_heartbeat_interval,
                heartbeat_timeout=config.fabric_heartbeat_timeout,
                start_method=config.start_method,
                max_failures=config.max_failures,
                network_faults=network_faults,
            )
        raise OptimizationError(f"unknown execution backend {config.backend!r}")

    if config.replicas == 1:
        backend = one_backend()
    else:
        backend = MultiBackendRouter(
            [one_backend() for _ in range(config.replicas)],
            max_failures=config.max_failures,
            probation_seconds=config.probation_seconds,
        )

    # Fault injection sits *inside* supervision so injected faults exercise
    # the real recovery paths (watchdog, retry, rebuild, degradation).
    if config.fault_injection is not None:
        fault_config = config.fault_injection
        if not isinstance(fault_config, FaultInjectionConfig):
            fault_config = FaultInjectionConfig(**dict(fault_config))  # type: ignore[arg-type]
        backend = FaultInjectionBackend(backend, fault_config)

    if config.supervised or config.request_deadline is not None:
        # The fallback gives the session somewhere to run when all pooled
        # capacity is lost; pointless when the primary already *is* inline.
        fallback: ExecutionBackend | None = None
        if not (config.backend == "inline" and config.replicas == 1):
            fallback = InlineBackend(database)
        backend = SupervisedBackend(
            backend,
            request_deadline=config.request_deadline,
            max_retries=config.max_retries,
            backoff_base=config.backoff_base,
            backoff_max=config.backoff_max,
            backoff_jitter=config.backoff_jitter,
            max_rebuilds=config.pool_rebuilds,
            fallback=fallback,
        )
    return backend


def make_policy(name: str) -> SchedulingPolicy:
    """Build the scheduling policy ``name`` refers to."""
    if name == "round_robin":
        return RoundRobin()
    if name == "budget_aware":
        return BudgetAwarePriority()
    raise OptimizationError(f"unknown scheduling policy {name!r}")
