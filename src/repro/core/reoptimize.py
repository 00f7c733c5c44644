"""Re-optimization after data drift (Section 5.5).

When the data shifts, a previously optimized plan may become stale.  The
paper shows that re-running BayesQO with the *past* plan added to the Bao
initialization both converges faster and finds better plans than starting
from scratch.  :func:`reoptimize` packages that recipe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.core.initialization import InitialPlan, bao_initialization
from repro.core.optimizer import BayesQO
from repro.core.protocol import BudgetSpec, drive_query
from repro.core.result import OptimizationResult
from repro.db.engine import Database
from repro.db.query import Query
from repro.plans.jointree import JoinTree


def warm_start_plans(
    database: Database,
    query: Query,
    past_plan: JoinTree,
    history: Iterable[JoinTree] = (),
    include_bao: bool = True,
) -> list[InitialPlan]:
    """The initialization set of a warm-started re-optimization run.

    Bao's hint plans anchor the search in the *current* optimizer's view of
    the (possibly drifted) data; ``history`` plans — e.g. the fastest
    previously executed plans deserialized from a plan store — and the past
    best plan anchor it in what offline optimization already discovered.
    Duplicates of ``past_plan`` in ``history`` are dropped so the past plan
    keeps its distinct ``init:past_plan`` source label in the trace.
    """
    initial: list[InitialPlan] = []
    if include_bao:
        initial.extend(bao_initialization(database, query))
    past_key = past_plan.canonical()
    seen = {past_key}
    for plan in history:
        key = plan.canonical()
        if key in seen:
            continue
        seen.add(key)
        initial.append((plan, "init:history"))
    initial.append((past_plan, "init:past_plan"))
    return initial


@dataclass
class ReoptimizationOutcome:
    """What re-optimization produced, alongside the stale plan's current latency."""

    result: OptimizationResult
    past_plan_latency: float
    improved: bool

    @property
    def best_latency(self) -> float:
        return self.result.best_latency


def reoptimize(
    optimizer: BayesQO,
    query: Query,
    past_plan: JoinTree,
    max_executions: int | None = None,
    time_budget: float | None = None,
    include_bao: bool = True,
    history: Iterable[JoinTree] = (),
) -> ReoptimizationOutcome:
    """Re-optimize ``query`` on the optimizer's (drifted) database.

    The initialization set is the Bao hint plans plus the past plan, so the
    search starts from both the current optimizer's view of the data and the
    previously discovered fast plan.  ``history`` adds further known-good
    plans (e.g. the fastest runners-up from a stored observation history) as
    ``init:history`` entries — the plan-server warm start, where the caller
    holds a deserialized record of a finished run rather than a live session.
    """
    initial = warm_start_plans(
        optimizer.database, query, past_plan, history=history, include_bao=include_bao
    )
    result = drive_query(
        optimizer,
        optimizer.database,
        query,
        BudgetSpec(max_executions=max_executions, time_budget=time_budget),
        initial_plans=initial,
    )
    past_execution = optimizer.database.execute(query, past_plan, timeout=600.0)
    # Every plan censored: no improvement, not an error.
    improved = result.best_latency_or(math.inf) < past_execution.latency
    return ReoptimizationOutcome(
        result=result, past_plan_latency=past_execution.latency, improved=improved
    )
