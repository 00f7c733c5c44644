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
* :class:`FabricBackend` — the one lease coordinator over several
  members: shared-nothing node *processes* speaking the socket protocol of
  :mod:`repro.exec.remote` (heartbeat liveness, cross-node outcome-cache
  replication), or in-process replicas of the backends above.  Either way
  it gives least-loaded dispatch, deterministic lease reassignment on an
  infrastructure failure, probation/half-open rejoin, a per-dispatch hang
  watchdog, in-place rebuild of a broken process pool and graceful
  degradation to inline execution.  It is the service's one retry path:
  supervision (``supervised=True`` or a ``request_deadline``) puts it in
  front of a single backend too.  It is also the one fault injector: a
  :class:`FaultInjectionConfig` is drawn per lease at its dispatch, so every
  injected fault — member or link — meets the real recovery path.

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
("round_robin" / "budget_aware"), ``replicas`` (> 1 puts the lease coordinator in front),
``supervised`` / ``request_deadline`` / ``max_retries`` (the coordinator's
watchdog and lease attempts), ``fault_injection`` (the coordinator's chaos
schedule), ``start_method`` and ``warmup`` — and let :func:`make_backend` /
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
    HangTimeout,
    InlineBackend,
    ThreadPoolBackend,
    TransientBackendError,
    backend_submit,
    is_infra_failure,
    perform_batch,
    perform_request,
    submit_request_batch,
)
from repro.exec.fabric import FabricBackend, FabricCounters, start_local_fabric
from repro.exec.faults import (
    FaultCounters,
    FaultInjectionConfig,
    InjectedTransientError,
    InjectedWorkerCrash,
)
from repro.exec.policy import BudgetAwarePriority, RoundRobin, SchedulingPolicy
from repro.exec.process_pool import ProcessPoolBackend, RemoteExecutionError
from repro.exec.remote import NodeLostError, RemoteNodeBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.engine import Database

__all__ = [
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
    "FaultInjectionConfig",
    "HangTimeout",
    "InjectedTransientError",
    "InjectedWorkerCrash",
    "InlineBackend",
    "NodeLostError",
    "ProcessPoolBackend",
    "RemoteExecutionError",
    "RemoteNodeBackend",
    "RoundRobin",
    "SchedulingPolicy",
    "ThreadPoolBackend",
    "TransientBackendError",
    "apply_cache_overrides",
    "backend_health",
    "backend_submit",
    "is_infra_failure",
    "make_backend",
    "make_policy",
    "perform_batch",
    "perform_request",
    "start_local_fabric",
    "submit_request_batch",
]


def backend_health(backend: "ExecutionBackend | None") -> dict:
    """Health snapshot of a backend stack: the coordinator and its faults.

    Walks wrapper layers by the ``inner`` convention, so any holder of a
    composed backend (the scheduler's
    :class:`~repro.harness.runner.WorkloadSession`, the serving layer's
    :class:`~repro.serve.server.PlanServer`) reports degradation — leases
    reassigned, hangs, replicas on probation, injected faults — the same
    way.  The ``"fabric"`` section is the coordinator's; ``"faults"``, the
    faults its schedule injected, appears whenever it has one.
    """
    report: dict = {}
    layer = backend
    seen: set[int] = set()
    while layer is not None and id(layer) not in seen:
        seen.add(id(layer))
        if isinstance(layer, FabricBackend):
            # Per-node (or per-replica) liveness, lease reassignments, hangs,
            # rebuilds, reconnect/backoff counters and shipped-log cache hits.
            report["fabric"] = layer.health_snapshot()
            if layer.faults is not None:
                report["faults"] = layer.fault_counters.snapshot()
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

    A stack holds at most one :class:`FabricBackend`, the only layer that
    retries: over ``fabric_nodes * replicas`` localhost node processes for
    ``backend="fabric"`` (:func:`start_local_fabric`), over ``replicas``
    independent instances of the other backends (process backends get their
    own worker pools), or over a single one when supervised
    (``supervised=True``, a ``request_deadline`` or ``fault_injection``).
    Every such coordinator gets ``max_lease_attempts = max_retries + 1``,
    the ``request_deadline`` watchdog, the ``fault_injection`` schedule
    (drawn per lease at dispatch, so injected faults exercise the real
    recovery path) and one inline fallback (none when its lone member is
    inline); a single backend with none of the three is returned bare.

    The cache knobs are applied through :func:`apply_cache_overrides` first,
    so they reach every member, and every worker's private cache, with the
    database; the caller's database is never reconfigured.
    """
    database = apply_cache_overrides(config, database)
    tracing = tracer is not None and getattr(tracer, "enabled", False)
    local_tracer = tracer if tracing else None
    faults = config.fault_injection
    if faults is not None and not isinstance(faults, FaultInjectionConfig):
        faults = FaultInjectionConfig(**dict(faults))  # type: ignore[arg-type]
    coordinator_options = dict(
        max_failures=config.max_failures,
        max_lease_attempts=config.max_retries + 1,
        request_deadline=config.request_deadline,
        faults=faults,
    )

    if config.backend == "fabric":
        # Localhost node processes behind the fabric coordinator; node
        # tracers ship spans back on outcomes like the process pool.
        return start_local_fabric(
            database,
            queries=queries,
            num_nodes=config.fabric_nodes * config.replicas,
            warmup=config.warmup,
            trace=tracing,
            start_method=config.start_method,
            **coordinator_options,
        )

    def one_backend() -> ExecutionBackend:
        if config.backend == "inline":
            return InlineBackend(database, tracer=local_tracer)
        if config.backend == "thread":
            return ThreadPoolBackend(database, max_workers=config.max_workers, tracer=local_tracer)
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
        raise OptimizationError(f"unknown execution backend {config.backend!r}")

    members = [one_backend() for _ in range(config.replicas)]
    coordinated = (
        config.supervised or config.request_deadline is not None or faults is not None
    )
    if len(members) == 1 and not coordinated:
        return members[0]
    # The fallback gives the run somewhere to go when every member is lost:
    # pointless when the lone member already is inline.
    lone_inline = len(members) == 1 and config.backend == "inline"
    return FabricBackend(
        members,
        database=database,
        fallback=None if lone_inline else InlineBackend(database),
        **coordinator_options,
    )


def make_policy(name: str) -> SchedulingPolicy:
    """Build the scheduling policy ``name`` refers to."""
    if name == "round_robin":
        return RoundRobin()
    if name == "budget_aware":
        return BudgetAwarePriority()
    raise OptimizationError(f"unknown scheduling policy {name!r}")
