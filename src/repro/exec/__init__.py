"""The execution service: pluggable backends behind one FIFO scheduler.

The paper's offline tuner is throughput-bound on plan *executions*: every
technique's budget is time spent executing proposed plans, so how fast and
how concurrently those executions run determines wall-clock end to end.  This
subsystem decides **where executions run**, behind one small contract the
:class:`~repro.harness.runner.WorkloadSession` scheduler drives:

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
  (:mod:`repro.utils.seeding`).  A worker that dies costs only the task it
  ran: the pool starts a replacement in its place (at most twice per worker).
* :class:`FabricBackend` — the lease coordinator in front of one of the
  backends above (``supervised=True``, a ``request_deadline`` or
  ``fault_injection``).  It gives deterministic lease reassignment on an
  infrastructure failure, probation/half-open rejoin, a per-dispatch hang
  watchdog and, once its member is unhealthy, degradation to inline
  execution.  It restarts no member.  It is the service's one retry path
  and its one fault injector: a :class:`FaultInjectionConfig` is drawn per
  lease at its dispatch, so every injected fault meets the real recovery
  path.

**Scheduling** — :func:`repro.core.protocol.drive` hands free slots (a slot
holds one worker task: a lone request, or a same-query batch submitted
through ``submit_batch``) to ready query states in FIFO order.  Budgets are
per state, so the claim order reaches no trace: final traces are identical
under every backend at q=1, and at any fixed q on backends with a batch path
— verified by the determinism tests (``tests/test_exec.py``,
``tests/test_batch_ask.py``) and the ``benchmarks/bench_exec_backends.py``
gate.

Configuration: either hand a ``WorkloadSession`` a backend instance, or
describe it with :class:`~repro.core.config.ExecutionServiceConfig` —
``backend`` ("inline" / "thread" / "process"), ``max_workers``,
``supervised`` / ``request_deadline`` / ``max_retries`` (the coordinator's
watchdog and lease attempts), ``fault_injection`` (the coordinator's chaos
schedule), ``start_method`` and ``warmup`` — and let :func:`make_backend`
build it.
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
from repro.exec.fabric import FabricBackend, FabricCounters
from repro.exec.faults import (
    FaultInjectionConfig,
    InjectedTransientError,
    InjectedWorkerCrash,
)
from repro.exec.process_pool import ProcessPoolBackend, RemoteExecutionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.engine import Database

__all__ = [
    "CacheStats",
    "ExecutionBackend",
    "ExecutionCache",
    "ExecutionCacheConfig",
    "ExecutionOutcome",
    "ExecutionRequest",
    "ExecutionServiceConfig",
    "FabricBackend",
    "FabricCounters",
    "FaultInjectionConfig",
    "HangTimeout",
    "InjectedTransientError",
    "InjectedWorkerCrash",
    "InlineBackend",
    "ProcessPoolBackend",
    "RemoteExecutionError",
    "ThreadPoolBackend",
    "TransientBackendError",
    "apply_cache_overrides",
    "backend_health",
    "backend_submit",
    "is_infra_failure",
    "make_backend",
    "perform_batch",
    "perform_request",
    "submit_request_batch",
]


def backend_health(backend: "ExecutionBackend | None") -> dict:
    """Health snapshot of a backend stack: the coordinator and its faults.

    Walks wrapper layers by the ``inner`` convention, so any holder of a
    composed backend (the scheduler's
    :class:`~repro.harness.runner.WorkloadSession`, the serving layer's
    :class:`~repro.serve.server.PlanServer`) reports degradation — leases
    reassigned, hangs, a member on probation, injected faults — the same
    way.  The ``"fabric"`` section is the coordinator's; ``"faults"``, the
    faults its schedule injected, appears whenever it has one.
    """
    report: dict = {}
    layer = backend
    seen: set[int] = set()
    while layer is not None and id(layer) not in seen:
        seen.add(id(layer))
        if isinstance(layer, FabricBackend):
            # The member's liveness and worker replacements, lease
            # reassignments and hangs.
            report["fabric"] = layer.health_snapshot()
            if layer.faults is not None:
                report["faults"] = layer.counters.faults_snapshot()
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

    A supervised config (``supervised=True``, a ``request_deadline`` or
    ``fault_injection``) puts the backend behind one :class:`FabricBackend`,
    the only layer that retries, with ``max_lease_attempts = max_retries +
    1``, the ``request_deadline`` watchdog, the ``fault_injection`` schedule
    (drawn per lease at dispatch, so injected faults exercise the real
    recovery path) and an inline fallback (none when the member is inline
    itself); otherwise the backend is returned bare.

    The cache knobs are applied through :func:`apply_cache_overrides` first,
    so they reach the backend, and every worker's private cache, with the
    database; the caller's database is never reconfigured.
    """
    database = apply_cache_overrides(config, database)
    tracing = tracer is not None and getattr(tracer, "enabled", False)
    local_tracer = tracer if tracing else None
    faults = config.fault_injection
    if faults is not None and not isinstance(faults, FaultInjectionConfig):
        faults = FaultInjectionConfig(**dict(faults))  # type: ignore[arg-type]

    backend: ExecutionBackend
    if config.backend == "inline":
        backend = InlineBackend(database, tracer=local_tracer)
    elif config.backend == "thread":
        backend = ThreadPoolBackend(database, max_workers=config.max_workers, tracer=local_tracer)
    elif config.backend == "process":
        # Workers record into private tracers and ship drained spans back
        # on outcomes; the parent-side tracer object itself never crosses.
        backend = ProcessPoolBackend(
            database,
            max_workers=config.max_workers,
            queries=queries,
            start_method=config.start_method,
            warmup=config.warmup,
            trace=tracing,
        )
    else:
        raise OptimizationError(f"unknown execution backend {config.backend!r}")
    if not (config.supervised or config.request_deadline is not None or faults is not None):
        return backend
    # The fallback gives the run somewhere to go when the member is lost:
    # pointless when the member already is inline.
    return FabricBackend(
        backend,
        fallback=None if config.backend == "inline" else InlineBackend(database),
        max_failures=config.max_failures,
        max_lease_attempts=config.max_retries + 1,
        request_deadline=config.request_deadline,
        faults=faults,
    )

