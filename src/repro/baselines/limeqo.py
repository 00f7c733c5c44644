"""LimeQO: workload-level offline hint selection via low-rank matrix completion.

LimeQO (Yi et al.) explores the (query x hint set) latency matrix for a whole
workload: it observes a few entries by actually executing hinted plans,
completes the matrix with a low-rank factorization (alternating least
squares), and uses the completed matrix to decide which entry to observe
next.  Its search space is limited to the 49 hint sets, so once every hint has
been explored there is nothing left to improve — the behaviour Figure 10
contrasts with BayesQO's continued progress.

As the one *workload-level* technique, LimeQO implements the
:class:`~repro.core.protocol.WorkloadOptimizer` protocol: a single resumable
state spans every query, and each :class:`~repro.core.protocol.PlanProposal`
names the query whose matrix cell it wants observed.  Budget normalization
lives with the caller: a :class:`~repro.harness.runner.WorkloadSession`
charges LimeQO against the shared pool ``BudgetSpec.scaled(len(queries))`` —
the same per-query budget every other technique pays — instead of the old
private ``max_executions * len(queries)`` arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.protocol import (
    BudgetSpec,
    ExecutionOutcome,
    PlanProposal,
    WorkloadOptimizerState,
)
from repro.core.registry import TechniqueContext, register_technique
from repro.core.result import OptimizationResult
from repro.db.engine import Database
from repro.db.query import Query
from repro.plans.hints import HintSet, bao_hint_sets

_MIN_LATENCY = 1e-6


@dataclass
class LimeQOConfig:
    """Hyper-parameters of the LimeQO explorer."""

    rank: int = 3
    als_iterations: int = 15
    regularization: float = 0.1
    timeout_multiplier: float = 4.0
    seed: int = 0


@dataclass
class LimeQOState:
    """Observed latencies and completion model for one workload."""

    queries: list[Query]
    hint_sets: list[HintSet]
    observed: np.ndarray = field(init=False)
    latencies: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        shape = (len(self.queries), len(self.hint_sets))
        self.observed = np.zeros(shape, dtype=bool)
        self.latencies = np.full(shape, np.nan)


def complete_matrix(
    values: np.ndarray, observed: np.ndarray, rank: int, iterations: int, regularization: float,
    seed: int = 0,
) -> np.ndarray:
    """Low-rank completion of a partially observed matrix via alternating least squares."""
    rng = np.random.default_rng(seed)
    rows, cols = values.shape
    rank = max(1, min(rank, rows, cols))
    u = rng.normal(0.0, 0.1, size=(rows, rank))
    v = rng.normal(0.0, 0.1, size=(cols, rank))
    filled = np.where(observed, values, 0.0)
    eye = regularization * np.eye(rank)
    for _ in range(iterations):
        for i in range(rows):
            mask = observed[i]
            if not mask.any():
                continue
            vm = v[mask]
            u[i] = np.linalg.solve(vm.T @ vm + eye, vm.T @ filled[i, mask])
        for j in range(cols):
            mask = observed[:, j]
            if not mask.any():
                continue
            um = u[mask]
            v[j] = np.linalg.solve(um.T @ um + eye, um.T @ filled[mask, j])
    return u @ v.T


@dataclass
class LimeQOWorkloadState(WorkloadOptimizerState):
    """Resumable LimeQO state: the partially observed latency matrix."""

    matrix: LimeQOState | None = None
    #: Pre-planned hint plans, ``plans[query_index][hint_index]``.
    plans: list = field(default_factory=list)
    best: list = field(default_factory=list)
    #: How many queries have had their default hint set bootstrapped.
    bootstrapped: int = 0


class LimeQOOptimizer:
    """Workload-level hint exploration with low-rank completion."""

    def __init__(self, database: Database, config: LimeQOConfig | None = None) -> None:
        self.database = database
        self.config = config or LimeQOConfig()

    # ------------------------------------------------------------------ ask/tell protocol
    def start_workload(
        self, queries: list[Query], budget: BudgetSpec | None = None
    ) -> LimeQOWorkloadState:
        """Build one resumable state spanning every query's hint matrix."""
        hint_sets = bao_hint_sets()
        return LimeQOWorkloadState(
            queries=list(queries),
            results={query.name: OptimizationResult(query.name, "LimeQO") for query in queries},
            budget=budget if budget is not None else BudgetSpec(max_executions=None),
            matrix=LimeQOState(queries=list(queries), hint_sets=hint_sets),
            plans=[self.database.plan_hint_sets(query, hint_sets) for query in queries],
            best=[None] * len(queries),
        )

    def _propose_cell(
        self, state: LimeQOWorkloadState, query_index: int, hint_index: int
    ) -> PlanProposal:
        query = state.queries[query_index]
        timeout = (
            600.0
            if state.best[query_index] is None
            else state.best[query_index] * self.config.timeout_multiplier
        )
        return state.park(
            PlanProposal(
                plan=state.plans[query_index][hint_index],
                timeout=timeout,
                source="limeqo",
                query=query,
                metadata={"cell": (query_index, hint_index)},
            )
        )

    def suggest(self, state: LimeQOWorkloadState) -> PlanProposal | None:
        """Bootstrap the default hint per query, then follow the completed matrix."""
        state.require_idle()
        if state.bootstrapped < len(state.queries):
            query_index = state.bootstrapped
            state.bootstrapped += 1
            return self._propose_cell(state, query_index, 0)
        matrix = state.matrix
        if matrix.observed.all():
            return None
        completed = complete_matrix(
            matrix.latencies,
            matrix.observed,
            rank=self.config.rank,
            iterations=self.config.als_iterations,
            regularization=self.config.regularization,
            seed=self.config.seed,
        )
        candidate = np.where(matrix.observed, np.inf, completed)
        query_index, hint_index = np.unravel_index(np.argmin(candidate), candidate.shape)
        return self._propose_cell(state, int(query_index), int(hint_index))

    def observe(self, state: LimeQOWorkloadState, outcome: ExecutionOutcome) -> None:
        proposal, record = state.resolve(outcome)
        query_index, hint_index = proposal.metadata["cell"]
        label = record.latency if not record.censored else (record.timeout or record.latency)
        state.matrix.observed[query_index, hint_index] = True
        state.matrix.latencies[query_index, hint_index] = math.log(max(label, _MIN_LATENCY))
        if not record.censored:
            current = state.best[query_index]
            if current is None or record.latency < current:
                state.best[query_index] = record.latency

    def finish_workload(self, state: LimeQOWorkloadState) -> dict[str, OptimizationResult]:
        return state.results


@register_technique(
    "limeqo",
    workload_level=True,
    description="LimeQO: workload-level hint exploration via low-rank matrix completion",
)
def _build_limeqo(context: TechniqueContext) -> LimeQOOptimizer:
    return LimeQOOptimizer(context.database)
