"""The Random offline-optimization baseline (Section 4.5 / "Random" in Section 5).

Pure exploration: sample cross-join-free plans uniformly at random and execute
each with a timeout equal to the best latency seen so far (initialized with the
default optimizer plan's latency).  There is no model and no feedback beyond
tightening the timeout, yet — because offline optimization can afford to
execute terrible plans — this is a surprisingly strong baseline.

Implemented as an ask/tell optimizer: the first proposal is the default plan,
every later ``suggest`` draws a novel random join tree, and ``observe`` only
tightens the incumbent timeout.  The per-query RNG is derived from
``(seed, query name)``, so interleaving queries cannot change any query's plan
sequence.  Random also implements the batched ask (``suggest_batch``): random
draws are trivially jointly informative, so up to q novel plans ride in
flight at once, each executed under the incumbent timeout known at issue
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.protocol import (
    BudgetSpec,
    ExecutionOutcome,
    OptimizerState,
    PlanProposal,
)
from repro.core.registry import TechniqueContext, register_technique
from repro.core.result import OptimizationResult
from repro.db.engine import Database
from repro.db.query import Query
from repro.plans.sampling import random_join_tree
from repro.utils.seeding import stable_digest

#: Cap on consecutive duplicate draws in one ``suggest`` call; hitting it means
#: the plan space is (effectively) drained and the optimizer reports ``None``.
_MAX_SAMPLE_ATTEMPTS = 10_000


@dataclass
class RandomSearchState(OptimizerState):
    """Resumable random-search state: RNG, dedup set and incumbent timeout."""

    rng: np.random.Generator | None = None
    initial_timeout: float | None = 600.0
    best: float | None = None
    seen: set = field(default_factory=set)
    started: bool = False


class RandomSearch:
    """QuickPick-style random plan search driven by real execution."""

    def __init__(self, database: Database, seed: int = 0) -> None:
        self.database = database
        self.seed = seed

    # ------------------------------------------------------------------ ask/tell protocol
    def start(
        self,
        query: Query,
        budget: BudgetSpec | None = None,
        initial_timeout: float | None = 600.0,
    ) -> RandomSearchState:
        return RandomSearchState(
            query=query,
            result=OptimizationResult(query_name=query.name, technique="Random"),
            budget=budget or BudgetSpec(max_executions=100),
            rng=np.random.default_rng((self.seed, stable_digest(query.name, bits=31))),
            initial_timeout=initial_timeout,
        )

    def _default_proposal(self, state: RandomSearchState) -> PlanProposal:
        """Enqueue the first proposal: the default optimizer plan.

        Shared by the single and batched ask so the bootstrap (dedup entry,
        initial timeout) cannot drift between them.
        """
        state.started = True
        plan = self.database.plan(state.query)
        state.seen.add(plan.canonical())
        return state.enqueue(
            PlanProposal(
                plan=plan, timeout=state.initial_timeout, source="default", query=state.query
            )
        )

    def _novel_plan(self, state: RandomSearchState):
        """Draw a not-yet-proposed random join tree, or ``None`` when the
        (effective) plan space is drained."""
        for _ in range(_MAX_SAMPLE_ATTEMPTS):
            plan = random_join_tree(state.query, state.rng)
            key = plan.canonical()
            if key in state.seen:
                continue
            state.seen.add(key)
            return plan
        return None

    def suggest(self, state: RandomSearchState) -> PlanProposal | None:
        """The default plan first, then novel random join trees."""
        state.require_idle()
        if not state.started:
            return self._default_proposal(state)
        plan = self._novel_plan(state)
        if plan is None:
            return None
        return state.enqueue(
            PlanProposal(plan=plan, timeout=state.best, source="random", query=state.query)
        )

    def suggest_batch(self, state: RandomSearchState, q: int) -> list[PlanProposal]:
        """Up to ``q`` novel plans in flight at once (``q <= 1`` = :meth:`suggest`).

        Batched proposals run under the incumbent timeout known at issue
        time (falling back to the initial timeout before the default plan's
        outcome has landed) — the timeout is one observation staler than in
        strictly sequential mode, which is the sample-efficiency price of
        keeping the pipeline full.
        """
        if q <= 1 and state.outstanding_count == 0:
            proposal = self.suggest(state)
            return [] if proposal is None else [proposal]
        proposals: list[PlanProposal] = []
        if not state.started:
            proposals.append(self._default_proposal(state))
        timeout = state.best if state.best is not None else state.initial_timeout
        while len(proposals) < q:
            plan = self._novel_plan(state)
            if plan is None:
                break
            proposals.append(
                state.enqueue(
                    PlanProposal(plan=plan, timeout=timeout, source="random", query=state.query)
                )
            )
        return proposals

    def observe(self, state: RandomSearchState, outcome: ExecutionOutcome) -> None:
        _, record = state.resolve(outcome)
        if record.source == "default":
            state.best = record.latency if not record.censored else state.initial_timeout
        elif not record.censored and (state.best is None or record.latency < state.best):
            state.best = record.latency

    def finish(self, state: RandomSearchState) -> OptimizationResult:
        return state.result


@register_technique(
    "random",
    supports_batch=True,
    description="Random: uniform cross-join-free plan sampling with best-seen timeouts",
)
def _build_random(context: TechniqueContext) -> RandomSearch:
    return RandomSearch(context.database, seed=context.seed)
