"""The workload scheduler: drive ask/tell optimizers over whole workloads.

:class:`WorkloadSession` owns the optimization loop that each technique used
to hide behind a blocking ``optimize()`` call.  Techniques implement the
ask/tell protocol of :mod:`repro.core.protocol` and are looked up in the
registry (:mod:`repro.core.registry`); the session

* resolves per-query budgets from one shared :class:`BudgetSpec` (the paper's
  Section 5.2 model: budget is time spent *executing* proposed plans,
  technique overhead excluded),
* charges workload-level techniques (LimeQO) against the identical pool
  ``budget.scaled(len(queries))`` so every technique pays the same,
* trains the per-schema :class:`SchemaModel` once and shares it,
* routes every plan execution through one **execution backend**
  (:mod:`repro.exec`): inline on the scheduler thread, a thread pool that
  overlaps DBMS waiting, worker processes holding warm database replicas for
  CPU-bound executions, or the lease coordinator over several replicas,
* schedules the per-query steppers either **sequentially** (one query drained
  at a time — bit-for-bit the behaviour of the old private loops) or
  **interleaved** (every query's state at once, the backend holding up to
  ``capacity`` worker *tasks* in flight and a
  :class:`~repro.exec.SchedulingPolicy` picking which ready query asks
  next).  Both are :func:`~repro.core.protocol.drive`.  A task is a lone
  request or a same-query q-batch that ``submit_batch`` runs on one worker,
  and its outcomes are observed in submission order once all have landed.
  At q=1, and at a fixed q > 1 on every backend with a batch path (inline,
  thread, process, fabric), every query's trace is the one it gets when
  driven alone, under every backend and policy.  What stays
  timing-dependent: ``batch_size="auto"`` (q follows wall-clock signals)
  and q > 1 submitted per request (``batch_execution=False``, or a
  backend without a batch path), where a state tops up as slots free and
  outcomes are observed as they complete,
* memoizes per-technique results, so a comparison that needs Bao both as the
  improvement baseline and as a contender executes it once.

Comparisons across techniques follow the paper's methodology (Section 5.2):
every technique gets the same per-query budget, counted only as time spent
executing proposed plans against the database.  :func:`run_comparison` is a
thin wrapper over a session.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

# Importing the technique modules registers them with the registry.
from repro.baselines import balsa, bao, limeqo, random_search  # noqa: F401
from repro.core import optimizer as _bayesqo_module  # noqa: F401
from repro.core.config import (
    BayesQOConfig,
    ExecutionServiceConfig,
    VAETrainingConfig,
    validate_batch_size,
)
from repro.core.optimizer import SchemaModel, train_schema_model
from repro.core.protocol import BudgetSpec, ExecutionOutcome, drive, drive_query
from repro.core.registry import TechniqueContext, get_technique
from repro.core.result import OptimizationResult
from repro.db.plan_cache import CacheStats
from repro.db.query import Query
from repro.exceptions import OptimizationError
from repro.harness.batching import BatchSizeController
from repro.harness.checkpoint import CheckpointManager, SessionCheckpoint
from repro.exec import (
    ExecutionBackend,
    SchedulingPolicy,
    apply_cache_overrides,
    backend_health,
    backend_submit,
    make_backend,
    make_policy,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_report
from repro.obs.tracer import NULL_TRACER
from repro.workloads.base import Workload

#: Latency reported for a query whose Bao runs were all censored —
#: BaoOptimizer's own fallback of "default plan at the initial timeout".
_BAO_FALLBACK_LATENCY = bao.BAO_INITIAL_TIMEOUT


@dataclass
class ComparisonRun:
    """Results of running several techniques over the same queries."""

    workload_name: str
    results: dict[str, dict[str, OptimizationResult]] = field(default_factory=dict)
    bao_latencies: dict[str, float] = field(default_factory=dict)
    default_latencies: dict[str, float] = field(default_factory=dict)
    #: Execution-memoization totals of the session that produced the run
    #: (see :class:`ExecutionCacheReport`).
    cache_summary: dict = field(default_factory=dict)
    #: Backend-health snapshot of the session (coordinator counters and
    #: per-member statuses, fault-injection totals) — degraded runs are
    #: visible in the report instead of silent.
    backend_health: dict = field(default_factory=dict)
    #: The session's observability report (:func:`repro.obs.report.render_report`):
    #: top spans by self-time, per-layer latency percentiles, subsystem
    #: tables.  A short "(no spans...)" stub when tracing was off.
    obs_report: str = ""

    def techniques(self) -> list[str]:
        return sorted(self.results)


@dataclass
class ExecutionCacheReport:
    """Session-wide aggregation of per-execution cache stats.

    Every :class:`~repro.core.protocol.ExecutionOutcome` the session observes
    carries the :class:`~repro.db.plan_cache.CacheStats` of the run that
    produced it — wherever it ran (inline, thread pool, or a process-pool
    worker's private cache).  The report sums them so a workload run can
    answer "how much execution work did memoization absorb?".
    """

    executions: int = 0
    #: Executions that carried cache stats (caching enabled on their executor).
    cached_executions: int = 0
    #: Whole executions replayed from the outcome cache.
    outcome_hits: int = 0
    subplan_hits: int = 0
    subplan_misses: int = 0
    #: Largest subplan-memo footprint any executor reported (bytes).
    peak_bytes: int = 0
    #: Executions that ran inside a one-pass plan batch (``Executor.run_batch``)
    #: rather than as an individual submission.
    batched_executions: int = 0

    def note(self, stats: "CacheStats | None") -> None:
        self.executions += 1
        if stats is None:
            return
        if getattr(stats, "batched", False):
            self.batched_executions += 1
        self.cached_executions += 1
        if stats.outcome_hit:
            self.outcome_hits += 1
        self.subplan_hits += stats.subplan_hits
        self.subplan_misses += stats.subplan_misses
        self.peak_bytes = max(self.peak_bytes, stats.bytes_cached)

    @property
    def outcome_hit_rate(self) -> float:
        return self.outcome_hits / self.cached_executions if self.cached_executions else 0.0

    @property
    def subplan_hit_rate(self) -> float:
        total = self.subplan_hits + self.subplan_misses
        return self.subplan_hits / total if total else 0.0

    def summary(self) -> dict:
        return {
            "executions": self.executions,
            "cached_executions": self.cached_executions,
            "outcome_hits": self.outcome_hits,
            "outcome_hit_rate": self.outcome_hit_rate,
            "subplan_hits": self.subplan_hits,
            "subplan_misses": self.subplan_misses,
            "subplan_hit_rate": self.subplan_hit_rate,
            "peak_bytes": self.peak_bytes,
            "batched_executions": self.batched_executions,
        }

    def __str__(self) -> str:
        return (
            f"{self.executions} executions, {self.outcome_hits} replayed "
            f"({self.outcome_hit_rate:.0%}), subplan hit rate "
            f"{self.subplan_hit_rate:.0%}, peak {self.peak_bytes / 1e6:.1f} MB cached"
        )


def prepare_schema_model(
    workload: Workload, vae_config: VAETrainingConfig | None = None
) -> SchemaModel:
    """Train the per-schema VAE once so every technique and query can share it."""
    return train_schema_model(
        workload.database, workload.queries, vae_config, max_aliases=workload.max_aliases
    )


class WorkloadSession:
    """Drives registered techniques over one workload under a shared budget.

    Parameters
    ----------
    workload:
        The workload (database + queries) to optimize.
    queries:
        Subset of queries to run (defaults to every workload query).
    budget:
        Per-query budget.  Workload-level techniques are charged against
        ``budget.scaled(len(queries))`` — the same total pool.
    schema_model:
        Pre-trained per-schema artifacts; trained lazily (once) when a
        technique needs them and none was given.
    bayes_config / vae_config:
        Configuration forwarded to BayesQO / the lazy schema-model training.
    seed:
        Base seed forwarded to every technique factory.
    backend:
        Where plan executions run: an :class:`~repro.exec.ExecutionBackend`
        instance, a backend name (``"inline"``, ``"thread"``, ``"process"``),
        or ``None`` to derive one from ``exec_config``/``max_workers``.
    policy:
        Which ready query gets the next free worker slot: a
        :class:`~repro.exec.SchedulingPolicy` instance, a policy name
        (``"round_robin"``, ``"budget_aware"``), or ``None`` for round-robin.
    exec_config:
        Declarative backend/policy selection
        (:class:`~repro.core.config.ExecutionServiceConfig`); explicit
        ``backend``/``policy`` arguments take precedence over it.
    max_workers:
        Worker slots — tasks executing concurrently.  With no explicit backend,
        ``max_workers > 1`` selects the thread backend (the PR 2 behaviour);
        ``max_workers == 1`` selects inline execution.
    batch_size:
        Proposals held in flight *per query* (the batched-ask q knob).
        Techniques advertising ``supports_batch`` in the registry keep up to
        q plans in flight for one query; others fall back to q=1
        transparently.  With ``batch_execution`` the q plans are one worker
        task (q widens the task, other queries fill the other workers);
        submitted per request they fan out over q workers.  ``"auto"``
        delegates the knob to a
        :class:`~repro.harness.batching.BatchSizeController` (widen while
        workers idle, narrow when improvement stalls).  Defaults to
        ``exec_config.batch_size`` (1).
    batch_execution:
        Submit a query's in-flight q proposals as *one* backend batch so the
        executor runs their shared join subtrees once
        (:meth:`~repro.db.executor.Executor.run_batch`).  The batch is one
        worker task and occupies one scheduler slot.  Every execution's
        result is bit-for-bit what per-request submission produces.  At q=1
        there is nothing to group and submission transparently stays
        per-request.
        Defaults to ``exec_config.batch_execution`` (True).
    interleave:
        Force interleaving on/off; defaults to backend capacity > 1.
    checkpoint_path / checkpoint_every:
        Periodic checkpoint/resume (see :mod:`repro.harness.checkpoint`):
        the session persists optimizer state, completed results and the
        execution cache's outcome logs every ``checkpoint_every``
        observations, and a session restarted with the same technique, seed
        and query list resumes from the checkpoint and finishes with traces
        bit-for-bit identical to an uninterrupted run.  Checkpointed runs
        are pinned to the sequential scheduler.  Defaults come from
        ``exec_config``; ``None`` disables checkpointing.

    Sessions own their backend's pools: call :meth:`close` (or use the
    session as a context manager) when done with non-inline backends.
    """

    def __init__(
        self,
        workload: Workload,
        queries: list[Query] | None = None,
        budget: BudgetSpec | None = None,
        *,
        schema_model: SchemaModel | None = None,
        bayes_config: BayesQOConfig | None = None,
        vae_config: VAETrainingConfig | None = None,
        seed: int = 0,
        backend: "ExecutionBackend | str | None" = None,
        policy: "SchedulingPolicy | str | None" = None,
        exec_config: ExecutionServiceConfig | None = None,
        max_workers: int = 1,
        batch_size: int | str | None = None,
        batch_execution: bool | None = None,
        interleave: bool | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int | None = None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_workers < 1:
            raise OptimizationError("max_workers must be at least 1")
        if batch_size is None:
            batch_size = exec_config.batch_size if exec_config is not None else 1
        validate_batch_size(batch_size)
        if checkpoint_path is None and exec_config is not None:
            checkpoint_path = exec_config.checkpoint_path
        if checkpoint_every is None:
            checkpoint_every = exec_config.checkpoint_every if exec_config is not None else 25
        self.workload = workload
        self.database = workload.database
        self.queries = list(queries) if queries is not None else list(workload.queries)
        self.budget = budget or BudgetSpec()
        self.bayes_config = bayes_config
        self.vae_config = vae_config
        self.seed = seed
        self.max_workers = max_workers
        self.batch_size = batch_size
        if batch_execution is None:
            batch_execution = (
                exec_config.batch_execution if exec_config is not None else True
            )
        self.batch_execution = batch_execution
        self.exec_config = exec_config
        # Telemetry is opt-in: the defaults (a no-op tracer, a private
        # registry) keep every pre-existing call site byte-identical.  Set
        # before backend resolution so traced sessions thread the tracer all
        # the way down into the execution service.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._backend = self._resolve_backend(backend)
        self.policy = self._resolve_policy(policy)
        if interleave is not None:
            self.interleave = interleave
        else:
            self.interleave = self._backend.capacity() > 1
        self._checkpoint: CheckpointManager | None = (
            CheckpointManager(checkpoint_path, every=checkpoint_every)
            if checkpoint_path is not None
            else None
        )
        self._schema_model = schema_model
        self._results: dict[str, dict[str, OptimizationResult]] = {}
        #: Session-wide execution-memoization totals, updated on every
        #: outcome the session observes (any backend, any scheduler mode).
        self.cache_report = ExecutionCacheReport()
        # Providers unify the read side of counters that live in subsystem
        # dataclasses; registry snapshots pull them live, pickling drops them.
        self.metrics.register_provider("execution_cache", self.cache_report.summary)
        self.metrics.register_provider("backend_health", self.health_report)

    # ------------------------------------------------------------------ execution service
    def _resolve_backend(self, backend) -> ExecutionBackend:
        if backend is not None and not isinstance(backend, str):
            return backend
        config = self.exec_config
        if isinstance(backend, str):
            if config is None:
                config = ExecutionServiceConfig(backend=backend, max_workers=self.max_workers)
            else:
                # The explicit backend name wins; every other exec_config knob
                # (workers, replicas, start method, warmup) still applies.
                config = dataclasses.replace(config, backend=backend)
        elif config is None:
            # Legacy selection: max_workers alone decides, exactly as PR 2 did.
            config = ExecutionServiceConfig(
                backend="inline" if self.max_workers == 1 else "thread",
                max_workers=self.max_workers,
            )
        # Cache-knob overrides swap in a snapshot rather than mutating the
        # workload's database; the session works against the effective one.
        self.database = apply_cache_overrides(config, self.database)
        return make_backend(config, self.database, self.queries, tracer=self.tracer)

    def _resolve_policy(self, policy) -> SchedulingPolicy:
        if policy is not None and not isinstance(policy, str):
            return policy
        if isinstance(policy, str):
            return make_policy(policy)
        if self.exec_config is not None:
            return make_policy(self.exec_config.policy)
        return make_policy("round_robin")

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend this session submits plan executions to."""
        return self._backend

    def close(self) -> None:
        """Shut down the backend's pools/processes.  Idempotent."""
        self._backend.close()

    def __enter__(self) -> "WorkloadSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ shared artifacts
    def ensure_schema_model(self) -> SchemaModel:
        """The shared per-schema VAE/latent space, trained on first use."""
        if self._schema_model is None:
            self._schema_model = prepare_schema_model(self.workload, self.vae_config)
        return self._schema_model

    def _context(self, needs_schema_model: bool) -> TechniqueContext:
        return TechniqueContext(
            database=self.database,
            workload=self.workload,
            schema_model=self.ensure_schema_model() if needs_schema_model else self._schema_model,
            bayes_config=self.bayes_config,
            seed=self.seed,
        )

    # ------------------------------------------------------------------ public API
    def run(self, technique: str, *, refresh: bool = False) -> dict[str, OptimizationResult]:
        """Run one technique over the session's queries; results are memoized.

        The memo is what lets :func:`run_comparison` use Bao both as the
        improvement baseline and as a contender without executing it twice.
        Pass ``refresh=True`` to force a fresh run.
        """
        if not refresh and technique in self._results:
            return self._results[technique]
        spec = get_technique(technique)
        optimizer = spec.factory(self._context(spec.needs_schema_model))
        if hasattr(optimizer, "tracer"):
            # Techniques that emit telemetry (BayesQO -> BOEngine refit /
            # acquisition spans) record into the session's tracer.
            optimizer.tracer = self.tracer
        # Techniques with a naturally bounded search space (Bao's 49 hint
        # sets) are charged on the time axis only.
        budget = self.budget.without_execution_cap() if spec.ignores_execution_cap else self.budget
        # The per-query in-flight cap: only techniques advertising the
        # batched ask get q > 1; everyone else falls back to one proposal
        # outstanding per state, transparently.  "auto" hands the knob to a
        # fresh controller per run (q starts at 1 and adapts).
        controller: BatchSizeController | None = None
        if not spec.supports_batch:
            q = 1
        elif self.batch_size == "auto":
            controller = BatchSizeController(max_q=max(1, self._backend.capacity()))
            q = controller.max_q
        else:
            q = self.batch_size
        interleave = (
            self.interleave
            and self._backend.capacity() > 1
            # A single-query workload still benefits from interleaving when
            # the technique can keep q > 1 of its own plans in flight.
            and (len(self.queries) > 1 or q > 1)
            # Order-sensitive techniques share mutable state across queries
            # (Balsa's RNG and value network); interleaving them would make
            # results depend on thread-completion timing.
            and not spec.order_sensitive
        )
        if spec.workload_level:
            results = self._run_workload_level(optimizer, budget, technique=technique)
        elif interleave and self._checkpoint is None:
            # Checkpointing pins the run to the sequential scheduler: its
            # quiescent points are well-defined there, and sequential traces
            # are the reference every other mode must match anyway.
            scored = optimizer if spec.predicts_improvement else None
            results = self._run_interleaved(optimizer, budget, q, scored, controller)
        else:
            results = self._run_sequential(optimizer, budget, technique=technique)
        self._results[technique] = results
        return results

    def bao_latencies(self) -> dict[str, float]:
        """Best Bao hint-set latency per query (the improvement baseline).

        The baseline must reflect the best plan Bao could *ever* produce, so
        it is never truncated by the comparison's time budget; when no time
        budget is set this is the same run as ``run("bao")`` and is shared.
        """
        if self.budget.time_budget is None:
            results = self.run("bao")
        elif "bao:baseline" in self._results:
            results = self._results["bao:baseline"]
        else:
            spec = get_technique("bao")
            optimizer = spec.factory(self._context(spec.needs_schema_model))
            unbounded = BudgetSpec(max_executions=None, time_budget=None)
            results = {
                query.name: drive_query(optimizer, self.database, query, unbounded)
                for query in self.queries
            }
            self._results["bao:baseline"] = results
        return {
            name: result.best_latency_or(_BAO_FALLBACK_LATENCY)
            for name, result in results.items()
        }

    def default_latencies(self, timeout: float = 600.0) -> dict[str, float]:
        """Default-optimizer plan latency per query."""
        return {
            query.name: self.database.execute(query, timeout=timeout).latency
            for query in self.queries
        }

    # ------------------------------------------------------------------ execution
    def _drive(self, optimizer, states: list, q=1, **options) -> None:
        """:func:`~repro.core.protocol.drive` ``states`` on the session's backend.

        A round of several proposals is one task when ``batch_execution`` is
        on and the backend has a batch path (inline, thread, process,
        fabric); otherwise — batching disabled, or a caller's backend
        without ``submit_batch`` — every request is a task of its own
        (``fan_out``), so no more requests are in flight than the backend
        has slots.
        """
        options.setdefault("on_outcome", self._note_outcome)
        drive(
            optimizer, states, backend_submit(self._backend), q,
            capacity=self._backend.capacity(), fan_out=not self._has_batch_path(),
            tracer=self.tracer, **options,
        )

    def _has_batch_path(self) -> bool:
        """Whether a round of several requests reaches the backend as one task."""
        return self.batch_execution and hasattr(self._backend, "submit_batch")

    def _note_outcome(self, state, outcome: ExecutionOutcome) -> None:
        """The ``on_outcome`` hook: session-wide cache and latency totals."""
        self.cache_report.note(outcome.cache)
        self.metrics.histogram("optimize.exec_latency").observe(outcome.latency)

    # ------------------------------------------------------------------ checkpointing
    def _cache_events(self) -> list:
        cache = getattr(self.database, "execution_cache", None)
        return cache.export_outcomes() if cache is not None else []

    def _restore_cache_events(self, events: list) -> None:
        cache = getattr(self.database, "execution_cache", None)
        if cache is not None and events:
            cache.import_outcomes(events)

    def _save_checkpoint(
        self, technique: str, optimizer, completed: dict, state=None
    ) -> None:
        assert self._checkpoint is not None
        self._checkpoint.save(
            SessionCheckpoint(
                technique=technique,
                seed=self.seed,
                query_names=[query.name for query in self.queries],
                completed=dict(completed),
                optimizer=optimizer,
                state=state,
                cache_events=self._cache_events(),
            )
        )

    def _resume(self, technique: str, optimizer) -> tuple:
        """``(optimizer, completed results, in-progress state)`` to run from.

        A matching checkpoint supplies all three (and restores the execution
        cache's outcome logs); otherwise the fresh ``optimizer``, nothing
        completed and no state.
        """
        checkpoint = self._checkpoint.load() if self._checkpoint is not None else None
        if checkpoint is None or not checkpoint.matches(
            technique, self.seed, [query.name for query in self.queries]
        ):
            return optimizer, {}, None
        self._restore_cache_events(checkpoint.cache_events)
        if checkpoint.optimizer is not None:
            # The pickled optimizer carries the mid-run model/RNG state the
            # freshly built one lacks.  Its tracer was nulled on pickle;
            # re-attach the live one.
            optimizer = checkpoint.optimizer
            if hasattr(optimizer, "tracer"):
                optimizer.tracer = self.tracer
        return optimizer, dict(checkpoint.completed), checkpoint.state

    def _checkpoint_if_due(self, technique: str, optimizer, completed: dict):
        """The ``after_observe`` hook of a checkpointed run (``None`` if off)."""
        if self._checkpoint is None:
            return None

        def save_if_due(state) -> None:
            if self._checkpoint.due():
                self._save_checkpoint(technique, optimizer, completed, state=state)

        return save_if_due

    # ------------------------------------------------------------------ reporting
    def health_report(self) -> dict:
        """Backend-health snapshot: coordinator and fault injection.

        See :func:`~repro.exec.backend_health`: a degraded run — leases
        reassigned, hangs, replicas on probation, execution running on the
        inline fallback — is visible in reports next to
        :attr:`cache_report` instead of silent.
        """
        return backend_health(self._backend)

    def obs_report(self) -> str:
        """Text snapshot of the session's telemetry (spans + metrics)."""
        return render_report(self.tracer.spans(), self.metrics.snapshot())

    # ------------------------------------------------------------------ schedulers
    def _run_sequential(
        self, optimizer, budget: BudgetSpec, technique: str = ""
    ) -> dict[str, OptimizationResult]:
        """Drain one query at a time: :func:`drive` on each query's state at q = 1.

        With checkpointing enabled the loop periodically persists the
        optimizer (and current state) at quiescent points — after an
        ``observe``, nothing outstanding — plus at every query boundary, and
        on start resumes from a matching checkpoint: completed queries are
        restored verbatim, the in-progress query continues from its exact
        suggest/observe position.
        """
        optimizer, results, resumed_state = self._resume(technique, optimizer)
        after_observe = self._checkpoint_if_due(technique, optimizer, results)
        for query in self.queries:
            if query.name in results:
                continue
            if resumed_state is not None and resumed_state.query.name == query.name:
                state, resumed_state = resumed_state, None
            else:
                state = optimizer.start(query, budget=budget)
            self._drive(optimizer, [state], after_observe=after_observe)
            results[query.name] = optimizer.finish(state)
            if self._checkpoint is not None:
                self._save_checkpoint(technique, optimizer, results)
        if self._checkpoint is not None:
            self._checkpoint.clear()
        return results

    def _run_workload_level(
        self, optimizer, budget: BudgetSpec, technique: str = ""
    ) -> dict[str, OptimizationResult]:
        """Drive a workload-level optimizer against the shared budget pool."""
        optimizer, _, state = self._resume(technique, optimizer)
        if state is None:
            state = optimizer.start_workload(
                self.queries, budget=budget.scaled(len(self.queries))
            )
        self._drive(
            optimizer, [state], after_observe=self._checkpoint_if_due(technique, optimizer, {})
        )
        results = optimizer.finish_workload(state)
        if self._checkpoint is not None:
            self._checkpoint.clear()
        return results

    def _run_interleaved(
        self,
        optimizer,
        budget: BudgetSpec,
        q: int,
        scored=None,
        controller: BatchSizeController | None = None,
    ) -> dict[str, OptimizationResult]:
        """Step every query's state at once: :func:`drive` over all of them.

        ``suggest``/``observe`` always run on this (scheduler) thread, so
        technique internals need no locking; only plan execution — pure over
        immutable relations — runs concurrently, wherever the backend puts
        it.  Up to ``capacity()`` tasks are in flight, and the policy picks
        which ready query claims a free slot (``scored`` is the optimizer
        when its registry entry advertises ``predicts_improvement``).  On a
        batch path a query asks for its full allowance each round and asks
        again only once the round has landed, so each query's trace is the
        one it gets when driven alone at ``q``, whatever the timing.

        With a :class:`~repro.harness.batching.BatchSizeController`
        (``batch_size="auto"``) the per-round q follows ``controller.q``,
        widened when passes leave slots idle with no state ready and
        narrowed when a window of observations stops improving any query's
        best latency.
        """
        self.policy.reset()
        states = [optimizer.start(query, budget=budget) for query in self.queries]
        options = {"select": lambda ready: self.policy.select(ready, scored)}
        if controller is not None:
            best_seen: dict[str, float] = {}

            def note_improvement(state, outcome: ExecutionOutcome) -> None:
                self._note_outcome(state, outcome)
                name = state.query.name
                improved = not outcome.timed_out and outcome.latency < best_seen.get(
                    name, float("inf")
                )
                if improved:
                    best_seen[name] = outcome.latency
                controller.record_outcome(improved)

            options.update(on_outcome=note_improvement, after_fill=controller.record_round)
        # drive reads a callable q once per scheduling pass.
        self._drive(
            optimizer, states, q if controller is None else (lambda: controller.q), **options
        )
        return {state.query.name: optimizer.finish(state) for state in states}


# ---------------------------------------------------------------------- wrappers
def run_comparison(
    workload: Workload,
    queries: list[Query],
    budget: BudgetSpec,
    techniques: list[str] = ("bayesqo", "random", "balsa"),
    schema_model: SchemaModel | None = None,
    bayes_config: BayesQOConfig | None = None,
    seed: int = 0,
    max_workers: int = 1,
    exec_config: ExecutionServiceConfig | None = None,
    tracer=None,
    metrics: MetricsRegistry | None = None,
) -> ComparisonRun:
    """Run the Figure 3 style comparison: every technique, same queries, same budget.

    Bao (the improvement baseline) is executed once through the session and
    reused when ``"bao"`` is also in ``techniques``.  Pass a
    :class:`~repro.obs.tracer.Tracer` to get the telemetry snapshot on
    :attr:`ComparisonRun.obs_report`.
    """
    with WorkloadSession(
        workload,
        queries=queries,
        budget=budget,
        schema_model=schema_model,
        bayes_config=bayes_config,
        seed=seed,
        max_workers=max_workers,
        exec_config=exec_config,
        tracer=tracer,
        metrics=metrics,
    ) as session:
        run = ComparisonRun(workload_name=workload.name)
        run.bao_latencies = session.bao_latencies()
        run.default_latencies = session.default_latencies()
        for technique in techniques:
            run.results[technique] = session.run(technique)
        run.cache_summary = session.cache_report.summary()
        run.backend_health = session.health_report()
        run.obs_report = session.obs_report()
        return run
