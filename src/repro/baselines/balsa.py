"""A simplified Balsa: reinforcement-learning-style plan search.

Balsa (Yang et al., SIGMOD 2022) learns a value network from its own plan
executions and uses it to steer plan construction, balancing exploration and
exploitation to minimize cumulative regret.  This reproduction keeps the
ingredients the paper's comparison relies on:

* a value network (an MLP over plan features) trained on executed plans,
* epsilon-greedy selection between exploiting the value network's favourite
  candidate and exploring random plans,
* a constant timeout multiplier (``S = 1.5``, the setting the paper found to
  work best),
* training labels for timed-out plans equal to the timeout, which — as the
  paper points out — makes the model systematically underestimate bad plans,
* a bias toward re-visiting plans it already believes to be good (the regret
  minimizing behaviour that makes RL a poor fit for offline optimization;
  exact duplicates are served from a plan cache and do not consume budget,
  matching the paper's experimental setup).

Its training set is seeded with the Bao hint-set plans, as in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.initialization import bao_hint_set_plans
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
from repro.nn.layers import Sequential, mlp
from repro.nn.losses import mse
from repro.nn.optim import Adam
from repro.plans.jointree import JOIN_OPS, JoinTree
from repro.plans.sampling import random_join_tree

_MIN_LATENCY = 1e-6


@dataclass
class BalsaConfig:
    """Hyper-parameters of the simplified Balsa agent."""

    timeout_multiplier: float = 1.5
    epsilon: float = 0.2
    exploit_probability: float = 0.15
    candidates_per_step: int = 40
    retrain_every: int = 8
    training_epochs: int = 30
    hidden: int = 64
    learning_rate: float = 5e-3
    seed: int = 0


class PlanFeaturizer:
    """Fixed-length feature vectors for (query, plan) pairs.

    Features: adjacency of base tables joined directly at some node, operator
    counts, tree depth and left-deepness — a simplified version of Balsa's tree
    convolution featurization that still separates good plans from bad ones.
    """

    def __init__(self, database: Database) -> None:
        self.tables = sorted(database.schema.table_names)
        self.table_index = {table: i for i, table in enumerate(self.tables)}
        count = len(self.tables)
        self.dim = count * count + len(JOIN_OPS) + 3

    def featurize(self, query: Query, plan: JoinTree) -> np.ndarray:
        count = len(self.tables)
        adjacency = np.zeros((count, count))
        for left_set, right_set, _ in plan.join_pairs():
            for left_alias in left_set:
                for right_alias in right_set:
                    i = self.table_index[query.table_of(left_alias)]
                    j = self.table_index[query.table_of(right_alias)]
                    adjacency[i, j] += 1.0
                    adjacency[j, i] += 1.0
        op_counts = np.zeros(len(JOIN_OPS))
        for op in plan.operators():
            op_counts[JOIN_OPS.index(op)] += 1.0
        extras = np.array(
            [plan.depth(), float(plan.is_left_deep()), plan.num_joins], dtype=np.float64
        )
        return np.concatenate([adjacency.reshape(-1), op_counts, extras])


@dataclass
class BalsaState(OptimizerState):
    """Resumable Balsa state: training set, plan cache and the incumbent.

    The value network and its RNG live on the *optimizer* (shared across
    queries, as in the original agent), so interleaving queries shuffles the
    exploration stream; run Balsa sequentially when bitwise reproducibility
    across scheduling modes matters.
    """

    #: The distinct Bao hint-set plans, in hint-set order (the seeds).
    hint_plans: list = field(default_factory=list)
    next_hint: int = 0
    features: list = field(default_factory=list)
    targets: list = field(default_factory=list)
    #: plan canonical -> training label (the plan cache; duplicates are free).
    executed: dict = field(default_factory=dict)
    best_latency: float | None = None
    best_plan: JoinTree | None = None
    steps: int = 0
    step_cap: int = 0


class BalsaOptimizer:
    """Offline optimization with a regret-minimizing RL-style agent."""

    def __init__(self, database: Database, config: BalsaConfig | None = None) -> None:
        self.database = database
        self.config = config or BalsaConfig()
        self.featurizer = PlanFeaturizer(database)
        self._rng = np.random.default_rng(self.config.seed)
        self._model: Sequential | None = None

    # ------------------------------------------------------------------ value network
    def _build_model(self) -> Sequential:
        return mlp(self.featurizer.dim, [self.config.hidden, self.config.hidden], 1,
                   rng=np.random.default_rng(self.config.seed))

    def _train(self, features: np.ndarray, targets: np.ndarray) -> None:
        self._model = self._build_model()
        optimizer = Adam(self._model.parameters(), lr=self.config.learning_rate)
        for _ in range(self.config.training_epochs):
            optimizer.zero_grad()
            predictions = self._model.forward(features).reshape(-1)
            _, grad = mse(predictions, targets)
            self._model.backward(grad.reshape(-1, 1))
            optimizer.step()

    def _predict(self, query: Query, plans: list[JoinTree]) -> np.ndarray:
        if self._model is None:
            return self._rng.random(len(plans))
        features = np.stack([self.featurizer.featurize(query, plan) for plan in plans])
        return self._model.forward(features).reshape(-1)

    # ------------------------------------------------------------------ ask/tell protocol
    def start(self, query: Query, budget: BudgetSpec | None = None) -> BalsaState:
        budget = budget or BudgetSpec(max_executions=100)
        max_executions = budget.max_executions if budget.max_executions is not None else 100
        return BalsaState(
            query=query,
            result=OptimizationResult(query_name=query.name, technique="Balsa"),
            budget=budget,
            hint_plans=[plan for _, plan in bao_hint_set_plans(self.database, query)],
            step_cap=max_executions * 10,
        )

    def _timeout(self, state: BalsaState) -> float:
        return (
            600.0
            if state.best_latency is None
            else state.best_latency * self.config.timeout_multiplier
        )

    def suggest(self, state: BalsaState) -> PlanProposal | None:
        """Bao hint-set seeds first, then epsilon-greedy value-network search."""
        state.require_idle()
        config, query = self.config, state.query
        # Seed with the Bao hint-set plans (training examples include the Bao optimum).
        if state.next_hint < len(state.hint_plans):
            plan = state.hint_plans[state.next_hint]
            state.next_hint += 1
            return state.park(
                PlanProposal(plan=plan, timeout=self._timeout(state), source="init:bao", query=query)
            )
        while state.steps < state.step_cap:
            state.steps += 1
            if state.steps % config.retrain_every == 1 and state.features:
                self._train(np.stack(state.features), np.asarray(state.targets))
            roll = self._rng.random()
            if roll < config.exploit_probability and state.best_plan is not None:
                # Regret-minimizing exploitation: re-run the best known plan.
                candidate = state.best_plan
            elif roll < config.exploit_probability + config.epsilon:
                candidate = random_join_tree(query, self._rng)
            else:
                pool = [random_join_tree(query, self._rng) for _ in range(config.candidates_per_step)]
                scores = self._predict(query, pool)
                candidate = pool[int(np.argmin(scores))]
            if candidate.canonical() in state.executed:
                # Duplicate plans are served from the plan cache (no budget spent).
                continue
            return state.park(
                PlanProposal(plan=candidate, timeout=self._timeout(state), source="balsa", query=query)
            )
        return None

    def observe(self, state: BalsaState, outcome: ExecutionOutcome) -> None:
        _, record = state.resolve(outcome)
        label = record.latency if not record.censored else (record.timeout or record.latency)
        state.executed[record.plan.canonical()] = label
        state.features.append(self.featurizer.featurize(state.query, record.plan))
        state.targets.append(math.log(max(label, _MIN_LATENCY)))
        if not record.censored and (
            state.best_latency is None or record.latency < state.best_latency
        ):
            state.best_latency = record.latency
            state.best_plan = record.plan

    def finish(self, state: BalsaState) -> OptimizationResult:
        return state.result


@register_technique(
    "balsa",
    order_sensitive=True,  # value network + RNG are shared across queries
    description="Simplified Balsa: RL-style value-network plan search (regret minimizing)",
)
def _build_balsa(context: TechniqueContext) -> BalsaOptimizer:
    return BalsaOptimizer(context.database, BalsaConfig(seed=context.seed))
