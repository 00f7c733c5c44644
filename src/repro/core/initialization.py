"""Initialization strategies for the BO search (Section 4.4).

BayesQO admits any set of ``(plan, label)`` pairs as initialization points.
The strategies shipped here mirror the paper: the 49 Bao hint-set plans
(the default), the single default-optimizer plan, random cross-join-free
plans, and plans sampled from a cross-query model (the PlanLM, standing in
for the fine-tuned LLM).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.db.engine import Database
from repro.db.query import Query
from repro.exceptions import OptimizationError
from repro.plans.hints import HintSet, bao_hint_sets
from repro.plans.jointree import JoinTree
from repro.plans.sampling import random_join_tree

#: An initialization point: a plan plus a provenance label.
InitialPlan = tuple[JoinTree, str]


class PlanGenerator(Protocol):
    """Anything that can propose plans for a query (the PlanLM implements this)."""

    def generate_plans(self, query: Query, count: int) -> list[JoinTree]:  # pragma: no cover
        ...


def bao_hint_set_plans(database: Database, query: Query) -> list[tuple[HintSet, JoinTree]]:
    """The distinct plans of the 49 Bao hint sets, in hint-set order.

    A plan reached by several hint sets appears once, with the first of them.
    All 49 are planned in one pass over the query (``Database.plan_hint_sets``).
    """
    hint_sets = bao_hint_sets()
    distinct: dict[str, tuple[HintSet, JoinTree]] = {}
    for hint_set, plan in zip(hint_sets, database.plan_hint_sets(query, hint_sets)):
        distinct.setdefault(plan.canonical(), (hint_set, plan))
    return list(distinct.values())


def bao_initialization(database: Database, query: Query) -> list[InitialPlan]:
    """The 49 hint-set plans (deduplicated), guaranteed to contain Bao's best plan."""
    return [(plan, "init:bao") for _, plan in bao_hint_set_plans(database, query)]


def default_initialization(database: Database, query: Query) -> list[InitialPlan]:
    """A single initialization point: the default optimizer's plan."""
    return [(database.plan(query), "init:default")]


def random_initialization(query: Query, count: int, seed: int = 0) -> list[InitialPlan]:
    """``count`` random cross-join-free plans."""
    rng = np.random.default_rng(seed)
    plans: list[InitialPlan] = []
    seen: set[str] = set()
    attempts = 0
    while len(plans) < count and attempts < count * 10:
        attempts += 1
        plan = random_join_tree(query, rng)
        key = plan.canonical()
        if key in seen:
            continue
        seen.add(key)
        plans.append((plan, "init:random"))
    return plans


def llm_initialization(generator: PlanGenerator, query: Query, count: int) -> list[InitialPlan]:
    """Plans sampled from a cross-query plan generator (the LLM strategy)."""
    plans: list[InitialPlan] = []
    seen: set[str] = set()
    for plan in generator.generate_plans(query, count):
        key = plan.canonical()
        if key in seen:
            continue
        seen.add(key)
        plans.append((plan, "init:llm"))
    return plans


def build_initial_plans(
    strategy: str,
    database: Database,
    query: Query,
    count: int = 50,
    seed: int = 0,
    generator: PlanGenerator | None = None,
    provided: list[JoinTree] | None = None,
) -> list[InitialPlan]:
    """Dispatch on the configuration's ``initialization`` string."""
    if strategy == "bao":
        return bao_initialization(database, query)
    if strategy == "default":
        return default_initialization(database, query)
    if strategy == "random":
        return random_initialization(query, count, seed=seed)
    if strategy == "llm":
        if generator is None:
            raise OptimizationError("the 'llm' initialization needs a plan generator")
        plans = llm_initialization(generator, query, count)
        if not plans:
            # The generator produced nothing usable; fall back to the default plan.
            return default_initialization(database, query)
        return plans
    if strategy == "provided":
        if not provided:
            raise OptimizationError("the 'provided' initialization needs explicit plans")
        return [(plan, "init:provided") for plan in provided]
    raise OptimizationError(f"unknown initialization strategy {strategy!r}")
