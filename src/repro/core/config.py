"""Configuration of the BayesQO offline optimizer."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bo.loop import BATCH_STRATEGIES, SURROGATES
from repro.exceptions import OptimizationError

#: Supported timeout strategies (Figure 5a's ablation arms).
TIMEOUT_STRATEGIES = ("uncertainty", "none", "percentile", "best_seen", "multiplier")
#: Supported initialization strategies (Section 4.4).
INITIALIZATION_STRATEGIES = ("bao", "default", "random", "llm", "provided")
#: Execution backends resolvable by name (see :mod:`repro.exec`).
EXECUTION_BACKENDS = ("inline", "thread", "process")


@dataclass
class BayesQOConfig:
    """All knobs of a BayesQO run.

    The defaults correspond to the configuration used for the headline
    experiments: Bao-hint initialization, the censored GP surrogate, trust
    region local BO and uncertainty-based timeouts.
    """

    # Budget -----------------------------------------------------------------
    #: Maximum number of plan executions (the paper uses 4000 per query).
    max_executions: int = 100
    #: Optional cap on the total simulated execution time (seconds).
    time_budget: float | None = None

    # Surrogate / acquisition --------------------------------------------------
    surrogate: str = "censored_gp"
    use_trust_region: bool = True
    num_candidates: int = 256
    #: Full hyper-parameter refit cadence of the surrogate; between refits new
    #: observations are absorbed with O(n^2) warm updates (1 = always refit).
    refit_every: int = 5
    #: How ``suggest_batch`` spreads q concurrent picks: ``"fantasize"``
    #: (constant-liar conditioning) or ``"thompson"`` (independent draws).
    #: Only consulted when the harness asks for more than one plan in flight.
    batch_strategy: str = "fantasize"

    # Timeouts -----------------------------------------------------------------
    timeout_strategy: str = "uncertainty"
    #: Multiplier used by the "multiplier" strategy (Balsa uses 1.5).
    timeout_multiplier: float = 1.5
    #: Whether censored observations are fed back to the surrogate (ablation).
    learn_from_timeouts: bool = True

    # Initialization -----------------------------------------------------------
    initialization: str = "bao"
    #: Number of random/LLM initialization plans when those strategies are used.
    num_initial_plans: int = 50

    # Reproducibility ----------------------------------------------------------
    seed: int = 0

    #: Free-form metadata recorded in results (used by the harness).
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_executions < 1:
            raise OptimizationError("max_executions must be at least 1")
        if self.refit_every < 1:
            raise OptimizationError("refit_every must be at least 1")
        if self.surrogate not in SURROGATES:
            raise OptimizationError(f"unknown surrogate {self.surrogate!r}")
        if self.batch_strategy not in BATCH_STRATEGIES:
            raise OptimizationError(
                f"unknown batch strategy {self.batch_strategy!r}; pick one of {BATCH_STRATEGIES}"
            )
        if self.timeout_strategy not in TIMEOUT_STRATEGIES:
            raise OptimizationError(
                f"unknown timeout strategy {self.timeout_strategy!r}; pick one of {TIMEOUT_STRATEGIES}"
            )
        if self.initialization not in INITIALIZATION_STRATEGIES:
            raise OptimizationError(
                f"unknown initialization {self.initialization!r}; pick one of {INITIALIZATION_STRATEGIES}"
            )


def validate_batch_size(batch_size: int) -> None:
    """Shared validation of the q knob: a positive int."""
    if not isinstance(batch_size, int):
        raise OptimizationError(f"batch_size must be a positive int, got {batch_size!r}")
    if batch_size < 1:
        raise OptimizationError("batch_size must be at least 1")


@dataclass
class ExecutionServiceConfig:
    """How a :class:`~repro.harness.runner.WorkloadSession` executes plans.

    Selects one of the :mod:`repro.exec` backends.  Ready queries claim its
    free slots in FIFO order; budgets are per query, so at a fixed q that
    order reaches no trace.  The defaults reproduce the pre-subsystem
    behaviour exactly: inline execution on the scheduler thread.
    """

    #: ``"inline"`` (scheduler thread), ``"thread"`` (overlap DBMS waiting),
    #: or ``"process"`` (worker processes with warm database replicas, for
    #: CPU-bound executions).
    backend: str = "inline"
    #: Worker slots of the thread or process backend: tasks (a lone
    #: request, or a same-query batch) executing concurrently.
    max_workers: int = 1
    #: Proposals held in flight *per query* (the batched-ask q knob).  With
    #: ``q > 1`` techniques advertising ``supports_batch`` in the registry
    #: keep up to q plans in flight for one query; other techniques fall
    #: back to q=1 transparently.  With ``batch_execution`` the q plans are
    #: one worker task (q widens the task, other queries fill the pool, and
    #: a fixed q reproduces ``drive`` on each query alone at that q
    #: bit-for-bit); submitted per request they fan out over q workers and
    #: traces depend on completion timing.  ``1`` reproduces
    #: single-proposal behaviour bit-for-bit.
    batch_size: int = 1
    #: One-pass batch execution of a query's in-flight q proposals: when a
    #: state issues more than one proposal in a scheduling round, they are
    #: submitted as a single backend batch — one task on one worker, one
    #: scheduler slot — and shared join subtrees execute once
    #: (``Executor.run_batch``).  Each execution's result is bit-for-bit
    #: what per-request submission produces — batching only dedups work.
    #: At q=1 (one proposal per round) there is nothing to group and the
    #: scheduler transparently falls back to per-request submission.
    batch_execution: bool = True
    #: Execution memoization (see :mod:`repro.db.plan_cache`): replay
    #: repeated ``(query, plan)`` executions and reuse join-subtree
    #: intermediates across overlapping plans of the same query.  Results
    #: are bit-for-bit identical either way; ``False`` only forgoes the
    #: speedup.  ``None`` (the default) leaves the database's own
    #: ``exec_cache`` configuration untouched — the database enables
    #: caching by default; setting ``True``/``False`` here overrides it for
    #: the session's database and with it for every process-pool worker
    #: replica (each worker holds its own private cache).
    plan_cache: bool | None = None
    #: Byte budget for memoized subplan intermediates, per cache instance;
    #: ``None`` keeps the database's configured budget.
    plan_cache_bytes: int | None = None
    #: Infrastructure failures in a row the coordinator tolerates before it
    #: puts its member on probation: the member sits out a doubling period
    #: while leases wait, then gets one half-open probe.  Probation is the
    #: only backoff.
    max_failures: int = 3
    #: Multiprocessing start method for the process backend (``None`` prefers
    #: ``fork`` where available — worker replicas inherit the database without
    #: a per-worker pickle round-trip).
    start_method: str | None = None
    #: Whether the process backend plans every query and executes its default
    #: plan before the first real execution: once in the coordinator when
    #: workers are forked from it (they inherit the warm caches), in each
    #: worker under other start methods.
    warmup: bool = True

    # Fault tolerance ---------------------------------------------------------
    #: Put the backend behind the lease coordinator
    #: (:class:`~repro.exec.FabricBackend`: lease reassignment, hang
    #: watchdog, degradation to inline execution).  Implied by
    #: setting ``request_deadline`` or ``fault_injection``.
    supervised: bool = False
    #: Wall-clock seconds one execution may hold its member before the
    #: coordinator declares it hung and reassigns it (a dispatched q-round
    #: gets ``q`` times this).  ``None`` disables the watchdog.
    request_deadline: float | None = None
    #: Reassignments per lease beyond its first dispatch, on every
    #: coordinator (only infrastructure failures are retried; genuine plan
    #: errors propagate).
    max_retries: int = 3
    #: A :class:`~repro.exec.FaultInjectionConfig` (kept duck-typed here to
    #: avoid a config -> exec import cycle); ``None`` disables injection.
    #: When set, the coordinator (implied, as by ``request_deadline``) draws
    #: one fault per lease at dispatch — crashes, transient errors, hangs and
    #: slow members, on any backend — so injected faults exercise the real
    #: recovery path.
    fault_injection: object | None = None

    # Checkpoint / resume -----------------------------------------------------
    #: Where the session persists its checkpoint (optimizer states, budget
    #: ledgers, plan-cache outcome logs).  ``None`` disables checkpointing.
    #: Checkpointed runs are pinned to the sequential scheduler so a resumed
    #: session replays bit-for-bit.
    checkpoint_path: str | None = None
    #: Persist a checkpoint every N observations (and at query boundaries).
    checkpoint_every: int = 25

    def __post_init__(self) -> None:
        if self.backend not in EXECUTION_BACKENDS:
            raise OptimizationError(
                f"unknown execution backend {self.backend!r}; pick one of {EXECUTION_BACKENDS}"
            )
        if self.max_workers < 1:
            raise OptimizationError("max_workers must be at least 1")
        validate_batch_size(self.batch_size)
        if self.plan_cache_bytes is not None and self.plan_cache_bytes < 0:
            raise OptimizationError("plan_cache_bytes must be non-negative")
        if self.max_failures < 1:
            raise OptimizationError("max_failures must be at least 1")
        if self.request_deadline is not None and self.request_deadline <= 0:
            raise OptimizationError("request_deadline must be positive")
        if self.max_retries < 0:
            raise OptimizationError("max_retries must be non-negative")
        if self.checkpoint_every < 1:
            raise OptimizationError("checkpoint_every must be at least 1")


@dataclass
class VAETrainingConfig:
    """How the per-schema latent space is built (shared across queries)."""

    latent_dim: int = 24
    embed_dim: int = 16
    hidden_dim: int = 256
    training_steps: int = 2500
    corpus_queries: int = 250
    max_tables: int = 10
    beta: float = 0.02
    seed: int = 0
