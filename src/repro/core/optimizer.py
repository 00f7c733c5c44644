"""BayesQO: the offline query optimizer (Sections 3 and 4 of the paper).

The optimizer ties every substrate together.  It implements the ask/tell
:class:`~repro.core.protocol.Optimizer` protocol; for a given query it:

1. proposes initialization plans (Bao hint sets by default) for execution,
2. embeds executed plans into the VAE latent space and feeds their (log)
   latencies — censored for timed-out plans — to the BO engine,
3. repeatedly asks the engine for the best-ranked latent point of an
   acquisition round whose decoded plan has neither run nor is in flight
   (the engine walks its ranking, this module decodes and answers), and
   chooses a per-plan timeout with the uncertainty rule; the caller executes
   the plan against the read snapshot and tells the outcome back.  Every
   proposal spends budget and every outcome is one surrogate observation,
4. reports the full trace when the caller's budget is exhausted — or when no
   candidate pool holds an unexecuted plan any more (``suggest`` returns
   ``None``: the reachable plan space is exhausted).

The loop itself is owned by the caller — usually a
:class:`~repro.harness.runner.WorkloadSession` that interleaves many queries,
or :func:`~repro.core.protocol.drive_query` for one query on a database.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.bo.loop import BOEngine, BOEngineConfig
from repro.core.config import BayesQOConfig, VAETrainingConfig
from repro.core.initialization import InitialPlan, PlanGenerator, build_initial_plans
from repro.core.protocol import (
    BudgetSpec,
    ExecutionOutcome,
    OptimizerState,
    PlanProposal,
)
from repro.core.registry import TechniqueContext, register_technique
from repro.core.result import OptimizationResult
from repro.core.timeout import MAX_TIMEOUT_MULTIPLIER, TimeoutPolicy, build_timeout_policy
from repro.db.engine import Database
from repro.db.query import Query
from repro.exceptions import OptimizationError
from repro.obs.tracer import NULL_TRACER
from repro.plans.encoding import PlanCodec
from repro.utils.blas import one_blas_thread
from repro.plans.jointree import JoinTree
from repro.plans.vocabulary import PlanVocabulary, vocabulary_for_workload
from repro.vae.dataset import build_plan_corpus
from repro.vae.latent import LatentSpace
from repro.vae.training import train_vae
from repro.workloads.base import Workload

#: Floor applied before taking logs of latencies.
_MIN_LATENCY = 1e-6


@dataclass
class OverheadBreakdown:
    """Wall-clock seconds spent in each part of the BO loop (Figure 9).

    ``iterations`` counts acquisition rounds — candidate pools drawn: one per
    BO ask, two when the trust-region pool held no unexecuted plan and the
    global pool was drawn after it.  A round yields one proposal at ``q = 1``
    and up to ``q`` in a batched ask.
    """

    surrogate_update: float = 0.0
    calculate_timeout: float = 0.0
    vae_sampling: float = 0.0
    generate_candidates: float = 0.0
    iterations: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "surrogate_update": self.surrogate_update,
            "calculate_timeout": self.calculate_timeout,
            "vae_sampling": self.vae_sampling,
            "generate_candidates": self.generate_candidates,
        }

    def per_iteration(self) -> dict[str, float]:
        count = max(self.iterations, 1)
        return {name: value / count for name, value in self.as_dict().items()}


@dataclass
class SchemaModel:
    """The per-schema artifacts shared by every query: vocabulary, codec, latent space."""

    vocabulary: PlanVocabulary
    codec: PlanCodec
    latent_space: LatentSpace
    vae_report: object | None = None


@one_blas_thread()
def train_schema_model(
    database: Database,
    workload_queries: list[Query] | None = None,
    vae_config: VAETrainingConfig | None = None,
    max_aliases: int | None = None,
) -> SchemaModel:
    """Build the vocabulary, plan corpus and VAE for one schema (done once per schema).

    Runs with OpenBLAS on one thread (:func:`~repro.utils.blas.one_blas_thread`).
    """
    from repro.plans.vocabulary import build_vocabulary, max_aliases_in_workload

    vae_config = vae_config or VAETrainingConfig()
    if workload_queries:
        aliases = max(max_aliases or 1, max_aliases_in_workload(workload_queries))
        max_tables = max(
            vae_config.max_tables, max(query.num_tables for query in workload_queries)
        )
    else:
        aliases = max_aliases or 1
        max_tables = vae_config.max_tables
    vocabulary = build_vocabulary(database.schema, aliases)
    corpus = build_plan_corpus(
        database,
        vocabulary,
        max_aliases=aliases,
        num_queries=vae_config.corpus_queries,
        max_tables=max_tables,
        seed=vae_config.seed,
    )
    model, report = train_vae(
        corpus,
        latent_dim=vae_config.latent_dim,
        embed_dim=vae_config.embed_dim,
        hidden_dim=vae_config.hidden_dim,
        beta=vae_config.beta,
        steps=vae_config.training_steps,
        seed=vae_config.seed,
    )
    codec = PlanCodec(vocabulary)
    latent_space = LatentSpace.from_corpus(model, codec, corpus.sequences)
    return SchemaModel(vocabulary=vocabulary, codec=codec, latent_space=latent_space, vae_report=report)


@dataclass
class BayesQOState(OptimizerState):
    """Resumable BayesQO state: engine, timeout policy and execution caches.

    The engine holds one observation per execution that reached the surrogate
    (``executed`` additionally keeps censored ones dropped under
    ``learn_from_timeouts=False``); nothing here counts loop steps, because
    an ask is at most two acquisition rounds and cannot spin.
    """

    engine: BOEngine | None = None
    policy: TimeoutPolicy | None = None
    #: Remaining initialization plans (executed before the BO phase starts).
    init_queue: deque = field(default_factory=deque)
    #: Best uncensored latency among initialization executions (drives the
    #: initialization-phase timeout rule).
    init_best: float | None = None
    #: plan canonical -> (latency, censored, timeout): the plans that ran, so
    #: that no latent point decoding to one of them is proposed again.
    executed: dict = field(default_factory=dict)
    #: Uncensored latencies in observation order (for percentile timeouts).
    observed_latencies: list = field(default_factory=list)

    def decode_memo(self) -> dict:
        """Token sequence -> (canonical key, merge list) of this query's decodes.

        A cache, not a field: never pickled, so a checkpoint keeps the layout
        (and size) of the state without it and a resumed state rebuilds it on
        its first ask.  ``BayesQO.finish`` drops it.
        """
        memo = self.__dict__.get("_decode_memo")
        if memo is None:
            memo = self.__dict__["_decode_memo"] = {}
        return memo

    def clear_decode_memo(self) -> None:
        self.__dict__.pop("_decode_memo", None)

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_decode_memo", None)
        return state


class BayesQO:
    """The offline query optimizer."""

    def __init__(
        self,
        database: Database,
        schema_model: SchemaModel,
        config: BayesQOConfig | None = None,
        plan_generator: PlanGenerator | None = None,
    ) -> None:
        self.database = database
        self.schema_model = schema_model
        self.config = config or BayesQOConfig()
        self.plan_generator = plan_generator
        self.overhead = OverheadBreakdown()
        #: Observability hook (:mod:`repro.obs`): set by the scheduler/server
        #: driving this optimizer; forwarded to each per-query engine in
        #: :meth:`start` so surrogate refits and acquisition rounds appear in
        #: the trace.  Never pickled (checkpoints and plan stores persist
        #: optimizers; a live span buffer must not ride along).
        self.tracer = NULL_TRACER

    def __getstate__(self):
        state = self.__dict__.copy()
        state["tracer"] = NULL_TRACER
        return state

    # ------------------------------------------------------------------ construction helpers
    @classmethod
    def for_workload(
        cls,
        workload: Workload,
        config: BayesQOConfig | None = None,
        vae_config: VAETrainingConfig | None = None,
        plan_generator: PlanGenerator | None = None,
        schema_model: SchemaModel | None = None,
    ) -> "BayesQO":
        """Build a BayesQO instance (training the per-schema VAE if needed)."""
        schema_model = schema_model or train_schema_model(
            workload.database, workload.queries, vae_config, max_aliases=workload.max_aliases
        )
        return cls(workload.database, schema_model, config=config, plan_generator=plan_generator)

    # ------------------------------------------------------------------ ask/tell protocol
    def start(
        self,
        query: Query,
        budget: BudgetSpec | None = None,
        initial_plans: list[InitialPlan] | None = None,
    ) -> BayesQOState:
        """Build a resumable per-query state (engine, timeout policy, init plans)."""
        config = self.config
        # Unset budget axes (or no budget) fall back to the configuration's
        # own budget.
        budget = BudgetSpec(
            max_executions=(
                budget.max_executions
                if budget is not None and budget.max_executions is not None
                else config.max_executions
            ),
            time_budget=(
                budget.time_budget
                if budget is not None and budget.time_budget is not None
                else config.time_budget
            ),
        )
        latent = self.schema_model.latent_space
        engine = BOEngine(
            *latent.bounds(),
            config=BOEngineConfig(
                surrogate=config.surrogate,
                use_trust_region=config.use_trust_region,
                num_candidates=config.num_candidates,
                refit_every=config.refit_every,
                batch_strategy=config.batch_strategy,
            ),
            seed=config.seed,
        )
        engine.tracer = self.tracer
        policy = build_timeout_policy(
            config.timeout_strategy, multiplier=config.timeout_multiplier
        )
        if initial_plans is None:
            plans = build_initial_plans(
                config.initialization,
                self.database,
                query,
                count=config.num_initial_plans,
                seed=config.seed,
                generator=self.plan_generator,
            )
        else:
            plans = initial_plans
        if not plans:
            raise OptimizationError(f"no initialization plans produced for query {query.name!r}")
        return BayesQOState(
            query=query,
            result=OptimizationResult(query_name=query.name, technique="BayesQO"),
            budget=budget,
            engine=engine,
            policy=policy,
            init_queue=deque(plans),
        )

    def _next_init_proposal(self, state: BayesQOState) -> PlanProposal:
        """Build and enqueue the next initialization-phase proposal.

        Shared by the single and batched ask so the init timeout rule (600s
        before the first uncensored latency, ``init_best *
        MAX_TIMEOUT_MULTIPLIER`` after) cannot drift between them.
        """
        plan, source = state.init_queue.popleft()
        timeout = (
            600.0 if state.init_best is None else state.init_best * MAX_TIMEOUT_MULTIPLIER
        )
        # The phase marker (not the caller-chosen source label) is what
        # observe() keys on: initial_plans may carry any source string.
        return state.enqueue(
            PlanProposal(
                plan=plan, timeout=timeout, source=source, query=state.query,
                metadata={"phase": "init"},
            )
        )

    def _bo_proposals(self, state: BayesQOState, q: int) -> list[PlanProposal]:
        """Up to ``q`` BO-phase proposals from one ask of the engine.

        The engine ranks a candidate pool and asks, best-ranked first, which
        latent points it may return; a point is admissible when it decodes to
        a plan that has neither been executed nor is in flight.  An aliasing
        latent is skipped, not replayed — its outcome is known and already in
        the surrogate under the latent that ran.  Fewer than ``q`` proposals
        (none: ``suggest`` returns ``None``) mean no pool held another
        unexecuted plan: the reachable plan space is exhausted.
        """
        engine, query = state.engine, state.query
        latent_space = self.schema_model.latent_space
        tables = latent_space.codec.tables(query)
        memo = state.decode_memo()
        taken = {proposal.plan.canonical() for proposal in state.outstanding.values()}
        plans: list[JoinTree] = []
        decode_seconds = 0.0

        def admissible(points: np.ndarray) -> np.ndarray:
            # A point's plan is known by its key; a latent whose token
            # sequence was decoded before costs one memo probe, and only the
            # accepted point's tree is built.
            nonlocal decode_seconds
            start = time.perf_counter()
            decoded = []
            for row in latent_space.token_rows(points):
                walked = memo.get(row)
                if walked is None:
                    walked = memo[row] = tables.walk(row)
                decoded.append(walked)
            mask = np.array(
                [key not in state.executed and key not in taken for key, _ in decoded]
            )
            if mask.any():  # the engine takes the first point accepted
                key, merges = decoded[int(mask.argmax())]
                taken.add(key)
                plans.append(tables.build(merges))
            decode_seconds += time.perf_counter() - start
            return mask

        # A top-up ask may arrive before any init outcome was observed; the
        # engine proposes uniform latent points until it has data, and
        # fitting an empty surrogate would raise.
        if engine.num_observations:
            start = time.perf_counter()
            engine.fit()
            self.overhead.surrogate_update += time.perf_counter() - start

        rounds = engine.acquisition_rounds
        start = time.perf_counter()
        candidates = engine.suggest_batch(q, admissible)
        self.overhead.generate_candidates += time.perf_counter() - start - decode_seconds
        self.overhead.vae_sampling += decode_seconds
        self.overhead.iterations += engine.acquisition_rounds - rounds

        best_latency = self._best_latency(state.result)
        proposals = []
        for candidate, plan in zip(candidates, plans, strict=True):
            start = time.perf_counter()
            timeout = state.policy.select(engine, candidate, best_latency, state.observed_latencies)
            self.overhead.calculate_timeout += time.perf_counter() - start
            proposals.append(
                state.enqueue(
                    PlanProposal(
                        plan=plan,
                        timeout=timeout,
                        source="bo",
                        query=query,
                        metadata={"latent": candidate},
                    )
                )
            )
        return proposals

    def suggest(self, state: BayesQOState) -> PlanProposal | None:
        """Propose the next plan: initialization plans first, then BO candidates."""
        state.require_idle()
        if state.init_queue:
            return self._next_init_proposal(state)
        proposals = self._bo_proposals(state, 1)
        return proposals[0] if proposals else None

    def suggest_batch(self, state: BayesQOState, q: int) -> list[PlanProposal]:
        """Propose up to ``q`` plans to hold in flight for this query.

        The batched ask: initialization plans are issued first (a batch never
        mixes phases, so the engine only speaks once every init plan is at
        least in flight); afterwards the engine picks ``q`` jointly
        informative latent candidates in one ask
        (:meth:`BOEngine.suggest_batch`), each the best-ranked one whose plan
        is neither executed, in flight nor already in the batch.  ``q <= 1``
        on an idle state delegates to :meth:`suggest`, so single-proposal
        traces stay bit-for-bit identical; a top-up ask (proposals already
        outstanding) always takes the batch path, which does not require
        idleness.
        """
        if q <= 1 and state.outstanding_count == 0:
            proposal = self.suggest(state)
            return [] if proposal is None else [proposal]
        proposals: list[PlanProposal] = []
        if state.init_queue:
            while state.init_queue and len(proposals) < q:
                proposals.append(self._next_init_proposal(state))
            return proposals
        return self._bo_proposals(state, q)

    def observe(self, state: BayesQOState, outcome: ExecutionOutcome) -> None:
        """Record a pending proposal's outcome and update the surrogate.

        Resolution is by ``outcome.proposal_id`` (out-of-order safe for
        batched callers); an outcome without an id answers the sole
        outstanding proposal.
        """
        proposal, record = state.resolve(outcome)
        state.executed[record.plan.canonical()] = (
            record.latency, record.censored, record.timeout,
        )
        if proposal.metadata.get("phase") == "init":
            # Initialization observations always reach the surrogate and
            # drive the init-phase timeout via the best uncensored latency.
            self._observe(
                state.engine, state.query, record.plan, record.latency, record.censored,
                state.observed_latencies,
            )
            if not record.censored:
                state.init_best = (
                    record.latency
                    if state.init_best is None
                    else min(state.init_best, record.latency)
                )
            return
        if record.censored and not self.config.learn_from_timeouts:
            return
        self._observe(
            state.engine, state.query, record.plan, record.latency, record.censored,
            state.observed_latencies, x=proposal.metadata.get("latent"),
        )

    def finish(self, state: BayesQOState) -> OptimizationResult:
        """Close the state and return the execution trace."""
        state.clear_decode_memo()
        return state.result

    # ------------------------------------------------------------------ bookkeeping
    def _best_latency(self, result: OptimizationResult) -> float | None:
        try:
            return result.best_latency
        except OptimizationError:
            return None

    def _observe(
        self,
        engine: BOEngine,
        query: Query,
        plan: JoinTree,
        latency: float,
        censored: bool,
        observed_latencies: list[float] | None,
        x: np.ndarray | None = None,
    ) -> None:
        if x is None:
            x = self.schema_model.latent_space.embed_plan(plan, query)
        engine.add_observation(x, math.log(max(latency, _MIN_LATENCY)), censored)
        if observed_latencies is not None and not censored:
            observed_latencies.append(latency)


@register_technique(
    "bayesqo",
    needs_schema_model=True,
    supports_batch=True,
    description="BayesQO: latent-space BO with censored observations (the paper's system)",
)
def _build_bayesqo(context: TechniqueContext) -> BayesQO:
    if context.schema_model is None:
        raise OptimizationError("bayesqo needs a trained SchemaModel in the technique context")
    config = context.bayes_config or BayesQOConfig(seed=context.seed)
    return BayesQO(context.database, context.schema_model, config=config)
