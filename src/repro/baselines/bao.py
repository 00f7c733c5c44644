"""The Bao baseline: exhaustively execute every hint-set plan.

Following the paper's experimental setup, we do not run Bao's learned model;
instead we execute all 49 hint-set plans and keep the fastest one — the best
plan Bao could ever produce, i.e. the strongest version of "steer the
traditional optimizer with hints".

The optimizer implements the ask/tell protocol: ``suggest`` walks the
(deduplicated) hint-set plans and ``observe`` tracks the incumbent.  Because
the search space is a fixed 49-plan enumeration, only the time axis of the
budget applies (the seed harness likewise never capped Bao's execution
count); the registry records this as ``ignores_execution_cap``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from repro.core.initialization import bao_hint_set_plans
from repro.core.protocol import (
    BudgetSpec,
    ExecutionOutcome,
    OptimizerState,
    PlanProposal,
    drive_state,
)
from repro.core.registry import TechniqueContext, register_technique
from repro.core.result import OptimizationResult
from repro.db.engine import Database
from repro.db.query import Query
from repro.plans.hints import HintSet
from repro.plans.jointree import JoinTree

#: Timeout for the first (uncapped) hint-set execution, and the latency
#: reported when every hinted plan was censored (the harness uses the same
#: value as its improvement-baseline fallback).
BAO_INITIAL_TIMEOUT = 600.0


@dataclass
class BaoOutcome:
    """Best hint set found for one query plus the full execution trace."""

    result: OptimizationResult
    best_hint_set: HintSet
    best_plan: JoinTree
    best_latency: float


@dataclass
class BaoState(OptimizerState):
    """Resumable Bao state: remaining hint-set plans and the incumbent."""

    #: The distinct hint-set plans as ``(hint set, plan)``, in hint-set order.
    plans: list = field(default_factory=list)
    next_hint: int = 0
    best_latency: float | None = None
    best_hint_set: HintSet | None = None
    best_plan: JoinTree | None = None


class BaoOptimizer:
    """Executes every hint-set plan and returns the best."""

    def __init__(
        self,
        database: Database,
        timeout_multiplier: float = 16.0,
        initial_timeout: float = BAO_INITIAL_TIMEOUT,
    ) -> None:
        self.database = database
        self.timeout_multiplier = timeout_multiplier
        self.initial_timeout = initial_timeout

    # ------------------------------------------------------------------ ask/tell protocol
    def start(self, query: Query, budget: BudgetSpec | None = None) -> BaoState:
        """Build a resumable state over the hint-set enumeration.

        Bao's space is naturally bounded by its 49 hint sets, so the
        execution-count axis of ``budget`` is dropped; the time axis applies.
        """
        budget = (budget or BudgetSpec()).without_execution_cap()
        return BaoState(
            query=query,
            result=OptimizationResult(query_name=query.name, technique="Bao"),
            budget=budget,
            plans=bao_hint_set_plans(self.database, query),
        )

    def suggest(self, state: BaoState) -> PlanProposal | None:
        """Propose the next novel hint-set plan, or ``None`` when drained."""
        state.require_idle()
        if state.next_hint == len(state.plans):
            return None
        hint_set, plan = state.plans[state.next_hint]
        state.next_hint += 1
        timeout = (
            self.initial_timeout
            if state.best_latency is None
            else state.best_latency * self.timeout_multiplier
        )
        return state.park(
            PlanProposal(
                plan=plan,
                timeout=timeout,
                source="bao",
                query=state.query,
                metadata={"hint_set": hint_set},
            )
        )

    def observe(self, state: BaoState, outcome: ExecutionOutcome) -> None:
        proposal, record = state.resolve(outcome)
        if not record.censored and (
            state.best_latency is None or record.latency < state.best_latency
        ):
            state.best_latency = record.latency
            state.best_hint_set = proposal.metadata["hint_set"]
            state.best_plan = record.plan

    def finish(self, state: BaoState) -> OptimizationResult:
        return state.result

    def outcome(self, state: BaoState) -> BaoOutcome:
        """Package a finished state as a :class:`BaoOutcome` (with fallback)."""
        best_plan, best_hint_set, best_latency = (
            state.best_plan, state.best_hint_set, state.best_latency,
        )
        if best_plan is None or best_hint_set is None or best_latency is None:
            # Every hinted plan timed out: fall back to the default plan (the first
            # hint set's, as it ran on the database the state started on) at the
            # initial timeout so callers always get a concrete (if slow) answer.
            best_hint_set, best_plan = state.plans[0]
            best_latency = self.initial_timeout
        return BaoOutcome(
            result=state.result,
            best_hint_set=best_hint_set,
            best_plan=best_plan,
            best_latency=best_latency,
        )

    # ------------------------------------------------------------------ legacy driver
    def optimize(self, query: Query, time_budget: float | None = None) -> BaoOutcome:
        """Execute all hint-set plans (deduplicated) for ``query``.

        .. deprecated:: PR 2
            Compatibility shim over the ask/tell protocol; prefer driving the
            optimizer through a WorkloadSession.
        """
        warnings.warn(
            "BaoOptimizer.optimize() is deprecated; drive the optimizer through a "
            "WorkloadSession (or repro.core.protocol.drive_query)",
            DeprecationWarning,
            stacklevel=2,
        )
        state = self.start(query, budget=BudgetSpec(max_executions=None, time_budget=time_budget))
        drive_state(self, self.database, state)
        return self.outcome(state)


def bao_best_latency(database: Database, query: Query) -> float:
    """Convenience: the latency of the best Bao hint-set plan."""
    optimizer = BaoOptimizer(database)
    state = optimizer.start(query)
    drive_state(optimizer, database, state)
    return optimizer.outcome(state).best_latency


@register_technique(
    "bao",
    ignores_execution_cap=True,
    description="Bao upper bound: execute all 49 hint-set plans, keep the fastest",
)
def _build_bao(context: TechniqueContext) -> BaoOptimizer:
    return BaoOptimizer(context.database)
