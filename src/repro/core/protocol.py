"""The ask/tell optimizer protocol shared by every technique.

Classic SMBO frameworks expose the optimizer as a steppable object so that a
harness can own the loop; this module defines that contract for the offline
query-planning setting.  Every technique (BayesQO, Bao, Random, Balsa, LimeQO)
implements the same four-phase protocol:

1. ``start(query, budget=...)`` builds a resumable :class:`OptimizerState`,
2. ``suggest(state)`` proposes the next plan to execute (a
   :class:`PlanProposal`, with its per-plan timeout already chosen), or
   ``None`` when the technique has nothing left to try,
3. ``observe(state, outcome)`` feeds the :class:`ExecutionOutcome` of a
   pending proposal back into the technique's model,
4. ``finish(state)`` returns the completed
   :class:`~repro.core.result.OptimizationResult` trace.

The caller — usually :class:`repro.harness.runner.WorkloadSession` — executes
plans against the database and enforces the :class:`BudgetSpec`.  Inverting the
loops this way is what lets the harness interleave many per-query optimizers
under one shared budget and run their plan executions concurrently.

Batched proposals
-----------------

Techniques that can keep several plans in flight for *one* query implement
the :class:`BatchOptimizer` extension: ``suggest_batch(state, q)`` returns up
to ``q`` proposals, each carrying a unique ``proposal_id``, and ``observe``
resolves them individually and **out of order** (the outcome names the
proposal it answers via ``ExecutionOutcome.proposal_id``; an outcome without
an id resolves the sole outstanding proposal, which is the q=1 case).  The
registry advertises the capability with its ``supports_batch`` flag; callers
fall back to plain ``suggest`` — exactly one proposal outstanding at a time —
for everything else, so ``q=1`` behaviour is bit-for-bit what it always was.

Workload-level techniques (LimeQO decides *which query* to spend budget on
next) implement the :class:`WorkloadOptimizer` variant: ``start_workload``
over all queries at once, with each :class:`PlanProposal` naming the query it
belongs to, and a shared workload-level budget.

:func:`drive` is the one suggest/execute/observe loop: the session's
sequential, workload-level and interleaved schedulers, the plan server's
re-optimisation and :func:`drive_query` / :func:`drive_workload` (inline
execution on a :class:`~repro.db.engine.Database`) all run through it.
"""

from __future__ import annotations

import dataclasses
import pickle
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.result import OptimizationResult, TraceRecord
from repro.db.plan_cache import CacheStats
from repro.db.query import Query
from repro.exceptions import OptimizationError
from repro.obs.tracer import NULL_TRACER
from repro.plans.jointree import JoinTree
from repro.utils.blas import one_blas_thread

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.engine import Database
    from repro.db.executor import ExecutionResult


# --------------------------------------------------------------------- budget
@dataclass(frozen=True)
class BudgetSpec:
    """The Section 5.2 budget model: execution count and/or simulated time.

    For per-query techniques the spec is charged per query; workload-level
    techniques are charged against :meth:`scaled` (the same per-query budget
    multiplied by the number of queries), so every technique pays for plan
    executions on identical terms.  ``max_executions=None`` leaves the count
    axis unbounded (Bao's fixed 49-plan space is naturally bounded instead).
    """

    max_executions: int | None = 60
    time_budget: float | None = None

    def exhausted(self, progress) -> bool:
        """Whether ``progress`` (anything with ``num_executions`` and
        ``total_cost``) has consumed this budget."""
        if self.max_executions is not None and progress.num_executions >= self.max_executions:
            return True
        if self.time_budget is not None and progress.total_cost >= self.time_budget:
            return True
        return False

    def remaining_executions(self, progress) -> float:
        """Executions left for ``progress`` (``inf`` when the axis is unbounded)."""
        if self.max_executions is None:
            return float("inf")
        return max(0.0, float(self.max_executions - progress.num_executions))

    def remaining_time(self, progress) -> float:
        """Time budget left for ``progress`` (``inf`` when the axis is unbounded)."""
        if self.time_budget is None:
            return float("inf")
        return max(0.0, float(self.time_budget - progress.total_cost))

    def scaled(self, factor: int) -> "BudgetSpec":
        """The workload-level pool: both axes multiplied by ``factor`` queries."""
        return BudgetSpec(
            max_executions=None if self.max_executions is None else self.max_executions * factor,
            time_budget=None if self.time_budget is None else self.time_budget * factor,
        )

    def without_execution_cap(self) -> "BudgetSpec":
        """The same budget with the execution-count axis removed."""
        return replace(self, max_executions=None)


# ----------------------------------------------------------------- vocabulary
@dataclass(frozen=True)
class PlanProposal:
    """One plan the optimizer wants executed, with its chosen timeout.

    ``query`` names the query the plan belongs to — always the state's query
    for per-query optimizers, but meaningful for workload-level techniques
    that pick which query to spend budget on.  ``metadata`` carries
    technique-private context (e.g. the latent vector a plan was decoded
    from) back to ``observe``.  ``proposal_id`` is assigned when the proposal
    is parked in its state (unique per state), and is what lets batched
    callers resolve outcomes out of order.
    """

    plan: JoinTree
    timeout: float | None = None
    source: str = "bo"
    query: Query | None = None
    metadata: dict = field(default_factory=dict)
    proposal_id: int | None = None


@dataclass(frozen=True)
class ExecutionOutcome:
    """What happened when the harness executed a proposal's plan.

    ``proposal_id`` names the proposal this outcome answers; ``None`` (the
    q=1 default) resolves the sole outstanding proposal of the state.
    ``cache`` carries the execution-memoization stats of the run that
    produced this outcome (``None`` when caching is off or the executing
    database predates the cache layer); it crosses process boundaries as a
    plain frozen dataclass, which is how per-worker cache activity surfaces
    to the scheduler.
    """

    latency: float
    timed_out: bool = False
    timeout: float | None = None
    proposal_id: int | None = None
    cache: CacheStats | None = None
    #: How many execution attempts it took to produce this outcome (1 =
    #: first try).  Stamped by the lease coordinator
    #: (:class:`~repro.exec.fabric.FabricBackend`) when it reassigns a
    #: lease to its member again or to its fallback; purely observational —
    #: traces and budget charging ignore it.
    attempts: int = 1
    #: Spans recorded by the executing actor's own tracer
    #: (:class:`~repro.obs.tracer.SpanRecord` tuple) — how a process-pool
    #: worker's telemetry rides back to the scheduler, exactly like ``cache``.
    #: Empty unless tracing is enabled on the executing side; purely
    #: observational.
    spans: tuple = ()

    @classmethod
    def from_execution(
        cls,
        execution: "ExecutionResult",
        timeout: float | None = None,
        proposal_id: int | None = None,
    ) -> "ExecutionOutcome":
        return cls(
            latency=execution.latency,
            timed_out=execution.timed_out,
            timeout=timeout if timeout is not None else execution.timeout,
            proposal_id=proposal_id,
            # getattr: duck-typed ExecutionResults (test fakes, wrappers) may
            # predate the cache field.
            cache=getattr(execution, "cache", None),
        )


# ---------------------------------------------------------------------- state
class _ProposalLedger:
    """Multi-proposal bookkeeping shared by both state shapes.

    ``suggest``/``suggest_batch`` park proposals in ``outstanding`` (a dict
    keyed by per-state proposal id) and ``observe`` consumes them — by id, in
    any order, or implicitly when exactly one is outstanding.  Single-proposal
    techniques issue through :meth:`park`, which refuses to issue while
    anything is outstanding.  Subclasses provide ``_describe()`` (for error
    messages), ``_validate_proposal`` and ``_result_for`` (which trace the
    outcome lands in).
    """

    outstanding: dict[int, PlanProposal]
    proposal_counter: int

    @property
    def outstanding_count(self) -> int:
        return len(self.outstanding)

    def require_idle(self) -> None:
        """Reject a single-proposal ``suggest`` while a proposal is outstanding.

        Called at the *top* of every ``suggest`` implementation, before any
        state mutation, so a protocol violation leaves the state untouched
        (no hint skipped, no RNG draw burned) and the pending proposal can
        still be observed.
        """
        if self.outstanding:
            raise OptimizationError(
                f"{self._describe()} already has a pending proposal; "
                "observe() its outcome before suggesting again"
            )

    def park(self, proposal: PlanProposal) -> PlanProposal:
        """Record ``proposal`` as the *sole* outstanding one and return it."""
        self.require_idle()
        return self.enqueue(proposal)

    def enqueue(self, proposal: PlanProposal) -> PlanProposal:
        """Record one more outstanding proposal (the batched parking path).

        Assigns the proposal its per-state id and returns the stored (id-
        stamped) proposal — callers must hand *that* object to the executor
        so the outcome can name it.
        """
        self._validate_proposal(proposal)
        proposal = dataclasses.replace(proposal, proposal_id=self.proposal_counter)
        self.proposal_counter += 1
        self.outstanding[proposal.proposal_id] = proposal
        return proposal

    def resolve(self, outcome: ExecutionOutcome) -> tuple[PlanProposal, TraceRecord]:
        """Consume the proposal ``outcome`` answers, appending it to the trace.

        Resolution is by ``outcome.proposal_id`` when set; otherwise the sole
        outstanding proposal is taken (the q=1 path).  Returns the consumed
        proposal together with the trace record, so ``observe``
        implementations can read technique-private metadata.
        """
        proposal = self.take_pending(outcome.proposal_id)
        record = self._result_for(proposal).record(
            proposal.plan, outcome.latency, outcome.timed_out, proposal.timeout, proposal.source
        )
        return proposal, record

    def take_pending(self, proposal_id: int | None = None) -> PlanProposal:
        if not self.outstanding:
            raise OptimizationError(
                f"no pending proposal for {self._describe()}; call suggest() first"
            )
        if proposal_id is None:
            if len(self.outstanding) > 1:
                raise OptimizationError(
                    f"{self._describe()} has {len(self.outstanding)} proposals outstanding; "
                    "the outcome must name its proposal_id"
                )
            proposal_id = next(iter(self.outstanding))
        try:
            return self.outstanding.pop(proposal_id)
        except KeyError:
            raise OptimizationError(
                f"no outstanding proposal {proposal_id!r} for {self._describe()}"
            ) from None

    def __setstate__(self, state: dict) -> None:
        """Refuse a pickle taken before this state class's fields changed.

        A checkpoint written by an older layout would otherwise resume into
        an ``AttributeError`` mid-run; raised as an unpickling error, the
        checkpoint reader logs it and discards the file like a corrupt one.
        """
        missing = sorted({f.name for f in dataclasses.fields(self)} - state.keys())
        if missing:
            raise pickle.UnpicklingError(
                f"pickled {type(self).__name__} predates its fields {missing}"
            )
        self.__dict__.update(state)

    def _validate_proposal(self, proposal: PlanProposal) -> None:
        pass

    def _result_for(self, proposal: PlanProposal) -> OptimizationResult:
        raise NotImplementedError

    def _describe(self) -> str:
        raise NotImplementedError


@dataclass
class OptimizerState(_ProposalLedger):
    """Resumable per-query optimizer state.

    Techniques subclass this with their private fields (surrogate engines,
    RNGs, plan caches).
    """

    query: Query
    result: OptimizationResult
    budget: BudgetSpec = field(default_factory=BudgetSpec)
    outstanding: dict = field(default_factory=dict)
    proposal_counter: int = 0
    #: Set when the optimizer has nothing left to suggest (hint space drained,
    #: reachable plan space exhausted) independent of the budget.
    exhausted: bool = False

    @property
    def progress(self):
        """What the budget is charged against (``num_executions``/``total_cost``)."""
        return self.result

    def budget_left(self) -> bool:
        return not self.exhausted and not self.budget.exhausted(self.progress)

    def _result_for(self, proposal: PlanProposal) -> OptimizationResult:
        return self.result

    def _describe(self) -> str:
        return f"state for {self.query.name!r}"


@dataclass
class WorkloadOptimizerState(_ProposalLedger):
    """Resumable state of a workload-level optimizer (e.g. LimeQO).

    One state spans every query; the budget is the workload-level pool
    (:meth:`BudgetSpec.scaled`), and executions for any query charge it.
    """

    queries: list[Query]
    results: dict[str, OptimizationResult]
    budget: BudgetSpec = field(default_factory=lambda: BudgetSpec(max_executions=None))
    outstanding: dict = field(default_factory=dict)
    proposal_counter: int = 0
    exhausted: bool = False

    @property
    def num_executions(self) -> int:
        return sum(result.num_executions for result in self.results.values())

    @property
    def total_cost(self) -> float:
        return sum(result.total_cost for result in self.results.values())

    @property
    def progress(self):
        """The budget is charged against the whole-workload totals."""
        return self

    def budget_left(self) -> bool:
        return not self.exhausted and not self.budget.exhausted(self.progress)

    def _validate_proposal(self, proposal: PlanProposal) -> None:
        if proposal.query is None:
            raise OptimizationError("workload-level proposals must name their query")

    def _result_for(self, proposal: PlanProposal) -> OptimizationResult:
        return self.results[proposal.query.name]

    def _describe(self) -> str:
        return "workload state"


# ------------------------------------------------------------------ protocols
@runtime_checkable
class Optimizer(Protocol):
    """A per-query steppable optimizer."""

    def start(self, query: Query, budget: BudgetSpec | None = None) -> OptimizerState:
        """Build a resumable state for one query."""

    def suggest(self, state: OptimizerState) -> PlanProposal | None:
        """Propose the next plan, or ``None`` when nothing is left to try.

        The proposal is parked in the state's ledger (via ``state.park``);
        the matching ``observe`` call consumes it.
        """

    def observe(self, state: OptimizerState, outcome: ExecutionOutcome) -> None:
        """Feed a pending proposal's execution outcome back to the model."""

    def finish(self, state: OptimizerState) -> OptimizationResult:
        """Close the state and return its trace."""


@runtime_checkable
class BatchOptimizer(Optimizer, Protocol):
    """An optimizer that can keep several proposals in flight per state.

    Advertised through the registry's ``supports_batch`` flag; callers that
    find the flag unset (or ``q == 1``) use plain :meth:`Optimizer.suggest`,
    which keeps q=1 behaviour bit-for-bit identical to the single-proposal
    protocol.
    """

    def suggest_batch(self, state: OptimizerState, q: int) -> list[PlanProposal]:
        """Propose up to ``q`` *additional* plans, each with a unique
        ``proposal_id``.  An empty list means nothing is left to try (the
        batched analogue of ``suggest`` returning ``None``)."""


@runtime_checkable
class WorkloadOptimizer(Protocol):
    """A workload-level steppable optimizer (decides which query to spend on)."""

    def start_workload(
        self, queries: list[Query], budget: BudgetSpec | None = None
    ) -> WorkloadOptimizerState:
        """Build one resumable state covering every query."""

    def suggest(self, state: WorkloadOptimizerState) -> PlanProposal | None: ...

    def observe(self, state: WorkloadOptimizerState, outcome: ExecutionOutcome) -> None: ...

    def finish_workload(self, state: WorkloadOptimizerState) -> dict[str, OptimizationResult]:
        """Close the state and return per-query traces."""


# -------------------------------------------------------------------- drivers
def issue_allowance(state, q: int) -> int:
    """How many more proposals ``state`` may put in flight right now.

    Batched issue is gated so the execution-count budget can never be
    overshot: budget is charged per *completed* outcome, so a state with
    ``k`` proposals already outstanding may only issue up to
    ``remaining_executions - k`` more (and never more than ``q`` total in
    flight).  With ``q=1`` this reduces to the historical
    ``1 if state.budget_left() else 0``.  Works for both per-query and
    workload-level states (each charges a different ``progress`` object).

    The *time* axis cannot be pre-charged — execution durations are unknown
    at issue time — so a time-budgeted run may complete up to ``q - 1``
    in-flight executions past the deadline, exactly as any parallel executor
    overshoots a wall-clock cutoff.  Comparisons that must be overshoot-free
    across techniques should budget on the execution-count axis.
    """
    if not state.budget_left():
        return 0
    in_flight = state.outstanding_count
    slots = q - in_flight
    remaining = state.budget.remaining_executions(state.progress) - in_flight
    return max(0, int(min(slots, remaining)))


def suggest_proposals(optimizer, state, count: int) -> list[PlanProposal]:
    """Ask ``optimizer`` for up to ``count`` proposals for ``state``.

    Uses ``suggest_batch`` when the optimizer implements it and more than one
    proposal is wanted; otherwise the plain single-proposal ``suggest`` (the
    bit-for-bit q=1 path).
    """
    if count <= 0:
        return []
    # Topping up a partially filled batch (proposals already outstanding)
    # must also go through suggest_batch: plain suggest requires an idle
    # state, which is exactly the invariant batching relaxes.
    if hasattr(optimizer, "suggest_batch") and (count > 1 or state.outstanding_count > 0):
        return list(optimizer.suggest_batch(state, count))
    proposal = optimizer.suggest(state)
    return [] if proposal is None else [proposal]


def proposal_query(state, proposal: PlanProposal) -> Query:
    """The query ``proposal`` runs against: its own, else its state's."""
    return proposal.query if proposal.query is not None else state.query


def inline_submit(database: "Database"):
    """A ``submit`` for :func:`drive` that runs each plan on ``database``.

    The plans run before ``submit`` returns, so its futures are resolved; an
    execution that raises propagates out of ``submit`` itself.
    """

    def submit(state, proposals: list[PlanProposal]) -> "list[Future[ExecutionOutcome]]":
        futures = []
        for proposal in proposals:
            execution = database.execute(
                proposal_query(state, proposal), proposal.plan, timeout=proposal.timeout
            )
            future: Future[ExecutionOutcome] = Future()
            future.set_result(
                ExecutionOutcome.from_execution(
                    execution, proposal.timeout, proposal_id=proposal.proposal_id
                )
            )
            futures.append(future)
        return futures

    return submit


@one_blas_thread()
def drive(
    optimizer,
    states: list,
    submit,
    q: int = 1,
    *,
    capacity: int = 1,
    fan_out: bool = False,
    tracer=NULL_TRACER,
    on_outcome=None,
    after_observe=None,
) -> None:
    """Run the suggest/execute/observe loop of ``states`` until each is spent.

    A *round* asks one state for its :func:`issue_allowance` —
    ``min(q, remaining budget)`` proposals less those it has in flight,
    through ``suggest_batch`` when the optimizer has it and more than one is
    wanted, plain ``suggest`` otherwise — and hands them to
    ``submit(state, proposals)``, which returns one future per proposal, in
    order (:func:`inline_submit`, or a backend submission).  What a round
    occupies is a *task*: at most ``capacity`` tasks (worker slots) are in
    flight, and the longest-waiting ready state claims a free one.  A task's
    outcomes are observed in submission order once all of them have landed,
    and only then does its state re-enter the ready list.

    By default a round is one task, so no state has proposals outstanding
    when it is asked and each state's trace is what driving it alone at
    ``q`` produces, whatever ``capacity``, the order of ``states`` or the
    completion timing.  With ``fan_out`` every proposal is a task of its own
    (submitted alone): the ask is capped by the free slots, a state whose ask
    that cap cut short stays ready to top up, and its outcomes are observed
    as they land — at ``q > 1`` the trace then depends on completion timing,
    but no more than ``capacity`` executions are ever submitted at once.  An
    ask that comes back empty marks its state ``exhausted``.

    ``on_outcome(state, outcome)`` runs as each outcome is collected and
    ``after_observe(state)`` after it is observed (a quiescent point when
    one state runs at ``q = 1``).  With ``tracer`` enabled every ask records
    an ``optimize.suggest`` span, every observation an ``optimize.observe``
    span, and every outcome an ``exec.request`` span from submission to
    collection, under which spans that rode back on the outcome (a pool
    worker's) are adopted.  A failed future aborts the run with an
    :class:`~repro.exceptions.OptimizationError` naming its query; futures
    still in flight are cancelled.  The loop runs with OpenBLAS on one
    thread (:func:`~repro.utils.blas.one_blas_thread`; an explicit
    ``OPENBLAS_NUM_THREADS`` wins): the surrogate's matrices are small.
    """
    if q < 1:
        raise OptimizationError("q must be at least 1")
    capacity = max(1, capacity)
    ready = list(states)
    #: ``(state, proposals, futures, submitted_at)`` per task in flight, in
    #: submission order.
    tasks: list[tuple] = []
    #: The unresolved futures of ``tasks`` — what ``wait`` sleeps on.
    waiting: set[Future] = set()
    try:
        while ready or tasks:
            while ready and len(tasks) < capacity:
                state = ready.pop(0)
                count = issue_allowance(state, q)
                if fan_out:
                    count = min(count, capacity - len(tasks))
                if not count:
                    # Spent, or parked with proposals in flight: it re-enters
                    # the ready list when one of its tasks lands.
                    continue
                attrs = {"query": state.query.name} if isinstance(state, OptimizerState) else {}
                with tracer.span(
                    "optimize.suggest", category="optimize", in_flight=len(tasks), **attrs
                ):
                    proposals = suggest_proposals(optimizer, state, count)
                if not proposals:
                    # Whatever the technique can reach has been tried;
                    # outcomes still in flight cannot undo that.
                    state.exhausted = True
                    continue
                groups = [[proposal] for proposal in proposals] if fan_out else [proposals]
                for group in groups:
                    submitted = tracer.now()
                    futures = submit(state, group)
                    tasks.append((state, group, futures, submitted))
                    waiting.update(futures)
                if fan_out and len(proposals) == count and issue_allowance(state, q):
                    # Cut short by the free slots, not by the technique.
                    ready.append(state)
            if not tasks:
                continue
            _, waiting = wait(waiting, return_when=FIRST_COMPLETED)
            landed = [task for task in tasks if waiting.isdisjoint(task[2])]
            tasks = [task for task in tasks if not waiting.isdisjoint(task[2])]
            for state, proposals, futures, submitted in landed:
                for proposal, future in zip(proposals, futures):
                    name = proposal_query(state, proposal).name
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        raise OptimizationError(
                            f"plan execution failed for query {name!r}: {exc}"
                        ) from exc
                    if tracer.enabled:
                        record = tracer.record(
                            "exec.request", submitted, category="exec", query=name,
                            proposal_id=proposal.proposal_id, latency=outcome.latency,
                            timed_out=outcome.timed_out, attempts=outcome.attempts,
                            cache_hit=bool(outcome.cache is not None and outcome.cache.outcome_hit),
                        )
                        if outcome.spans:
                            # Worker-recorded spans (process pool) re-parent
                            # under the request, so the causal chain crosses
                            # the pool.
                            tracer.adopt(outcome.spans, parent=record)
                    if on_outcome is not None:
                        on_outcome(state, outcome)
                    with tracer.span("optimize.observe", category="optimize", query=name):
                        optimizer.observe(state, outcome)
                    if after_observe is not None:
                        after_observe(state)
                if all(other is not state for other in ready):
                    ready.append(state)
    finally:
        for future in waiting:
            future.cancel()


def drive_query(
    optimizer,
    database: "Database",
    query: Query,
    budget: BudgetSpec | None = None,
    **start_kwargs,
) -> OptimizationResult:
    """Start, drive and finish one per-query optimizer run on ``database``."""
    state = optimizer.start(query, budget=budget, **start_kwargs)
    drive(optimizer, [state], inline_submit(database))
    return optimizer.finish(state)


def drive_workload(
    optimizer,
    database: "Database",
    queries: list[Query],
    budget: BudgetSpec | None = None,
) -> dict[str, OptimizationResult]:
    """Start, drive and finish one workload-level optimizer run on ``database``."""
    state = optimizer.start_workload(queries, budget=budget)
    drive(optimizer, [state], inline_submit(database))
    return optimizer.finish_workload(state)
