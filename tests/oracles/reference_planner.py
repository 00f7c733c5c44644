"""Reference planner: one from-scratch search per hint set.

This is the planner as it stood before ``PlanOptimizer.plan_hint_sets``: for
every hint set it rebuilds every sub-plan over ``frozenset`` alias sets, asks
the estimator for every subset cardinality again and builds a validated
``JoinTree`` for every improving candidate.  It is kept verbatim (search,
greedy fallback, cost helpers and ``estimated_cost``) as the oracle the shared-table planner is
checked against tree-for-tree; it shares only the cost formulas of
``repro.db.cost`` and the ``CardinalityEstimator`` with production code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.cost import index_scan_cost, join_cost, seq_scan_cost
from repro.db.optimizer import PlanOptimizer
from repro.db.query import Query
from repro.exceptions import PlanError, QueryError
from repro.plans.hints import DEFAULT_HINT_SET, HintSet
from repro.plans.jointree import JOIN_OPS, JoinOp, JoinTree


@dataclass
class _PartialPlan:
    """Best plan found so far for one subset of aliases."""

    tree: JoinTree
    cost: float
    rows: float


class ReferencePlanner:
    """The per-hint-set search, reading its inputs off a :class:`PlanOptimizer`."""

    def __init__(self, optimizer: PlanOptimizer) -> None:
        self.schema = optimizer.schema
        self.stats = optimizer.stats
        self.estimator = optimizer.estimator
        self.cost_params = optimizer.cost_params
        self.dp_table_limit = optimizer.dp_table_limit

    # ------------------------------------------------------------------ public API
    def plan(self, query: Query, hint_set: HintSet = DEFAULT_HINT_SET) -> JoinTree:
        """Return the optimizer's chosen join tree for ``query`` under ``hint_set``."""
        if query.num_tables == 0:
            raise QueryError(f"query {query.name!r} joins no tables")
        if query.num_tables == 1:
            return JoinTree.leaf(query.aliases[0])
        if query.num_tables <= self.dp_table_limit:
            return self._dynamic_programming(query, hint_set)
        return self._greedy(query, hint_set)

    def estimated_cost(self, query: Query, tree: JoinTree, hint_set: HintSet = DEFAULT_HINT_SET) -> float:
        """Estimated total cost of executing ``tree`` (scan costs included)."""
        tree.validate_for_query(query)
        total = 0.0
        for alias in tree.leaf_aliases():
            total += self._scan_cost(query, alias, hint_set)
        for node in tree.join_nodes():
            left = frozenset(node.left.leaf_aliases())  # type: ignore[union-attr]
            right = frozenset(node.right.leaf_aliases())  # type: ignore[union-attr]
            left_rows, right_rows, output_rows = self.estimator.estimate_join(query, left, right)
            total += self._join_cost(query, node.op, left, right, left_rows, right_rows, output_rows)
        return total

    # ------------------------------------------------------------------ cost helpers
    def _allowed_ops(self, hint_set: HintSet) -> list[JoinOp]:
        return [op for op in JOIN_OPS if hint_set.allows_join(op)]

    def _scan_cost(self, query: Query, alias: str, hint_set: HintSet) -> float:
        table = query.table_of(alias)
        table_rows = float(self.stats[table].num_rows)
        estimate = self.estimator.base_estimate(query, alias)
        indexed_filter = any(
            self.schema.has_index(table, flt.column) for flt in query.filters_for(alias)
        )
        index_cost = (
            index_scan_cost(table_rows, estimate.rows, self.cost_params)
            if indexed_filter and hint_set.allows_index_scan()
            else float("inf")
        )
        seq_cost = (
            seq_scan_cost(table_rows, self.cost_params)
            if hint_set.allows_seq_scan()
            else float("inf")
        )
        best = min(index_cost, seq_cost)
        if best == float("inf"):
            # The hint set disabled every applicable scan; fall back to a seq scan,
            # mirroring PostgreSQL's behaviour of treating enable_* as a soft penalty.
            best = seq_scan_cost(table_rows, self.cost_params) * 100.0
        return best

    def _inner_index_info(self, query: Query, right: frozenset[str]) -> tuple[bool, float]:
        """Whether the inner side is a single base table with an index on a join column."""
        if len(right) != 1:
            return False, 0.0
        alias = next(iter(right))
        table = query.table_of(alias)
        table_rows = float(self.stats[table].num_rows)
        for predicate in query.join_predicates:
            if predicate.left_alias == alias:
                column = predicate.left_column
            elif predicate.right_alias == alias:
                column = predicate.right_column
            else:
                continue
            if self.schema.has_index(table, column):
                return True, table_rows
        return False, table_rows

    def _join_cost(
        self,
        query: Query,
        op: JoinOp,
        left: frozenset[str],
        right: frozenset[str],
        left_rows: float,
        right_rows: float,
        output_rows: float,
    ) -> float:
        inner_indexed, inner_table_rows = self._inner_index_info(query, right)
        return join_cost(
            op,
            left_rows,
            right_rows,
            output_rows,
            inner_indexed=inner_indexed,
            inner_table_rows=inner_table_rows,
            params=self.cost_params,
        )

    # ------------------------------------------------------------------ DP search
    def _dynamic_programming(self, query: Query, hint_set: HintSet) -> JoinTree:
        aliases = query.aliases
        allowed_ops = self._allowed_ops(hint_set)
        best: dict[frozenset[str], _PartialPlan] = {}
        for alias in aliases:
            subset = frozenset([alias])
            best[subset] = _PartialPlan(
                tree=JoinTree.leaf(alias),
                cost=self._scan_cost(query, alias, hint_set),
                rows=self.estimator.base_estimate(query, alias).rows,
            )
        connected = query.is_connected()
        for size in range(2, len(aliases) + 1):
            for subset in _subsets_of_size(aliases, size):
                candidate = self._best_split(query, subset, best, allowed_ops, require_predicate=True)
                if candidate is None and (not connected or size == len(aliases)):
                    # Allow cross joins only when the join graph forces them.
                    candidate = self._best_split(
                        query, subset, best, allowed_ops, require_predicate=False
                    )
                if candidate is not None:
                    best[subset] = candidate
        full = frozenset(aliases)
        if full not in best:
            # Disconnected intermediate subsets can make the strict-predicate DP
            # miss the full set; retry allowing cross joins everywhere.
            return self._greedy(query, hint_set)
        return best[full].tree

    def _best_split(
        self,
        query: Query,
        subset: frozenset[str],
        best: dict[frozenset[str], _PartialPlan],
        allowed_ops: list[JoinOp],
        require_predicate: bool,
    ) -> _PartialPlan | None:
        winner: _PartialPlan | None = None
        rows = self.estimator.estimate_subset(query, subset)
        for left in _proper_subsets(subset):
            right = subset - left
            left_plan = best.get(left)
            right_plan = best.get(right)
            if left_plan is None or right_plan is None:
                continue
            if require_predicate and not query.predicates_between(set(left), set(right)):
                continue
            for op in allowed_ops:
                cost = (
                    left_plan.cost
                    + right_plan.cost
                    + self._join_cost(query, op, left, right, left_plan.rows, right_plan.rows, rows)
                )
                if winner is None or cost < winner.cost:
                    winner = _PartialPlan(
                        tree=JoinTree.join(left_plan.tree, right_plan.tree, op),
                        cost=cost,
                        rows=rows,
                    )
        return winner

    # ------------------------------------------------------------------ greedy fallback
    def _greedy(self, query: Query, hint_set: HintSet) -> JoinTree:
        """Greedy constructive search used above the DP table limit."""
        allowed_ops = self._allowed_ops(hint_set)
        components: dict[frozenset[str], _PartialPlan] = {}
        for alias in query.aliases:
            subset = frozenset([alias])
            components[subset] = _PartialPlan(
                tree=JoinTree.leaf(alias),
                cost=self._scan_cost(query, alias, hint_set),
                rows=self.estimator.base_estimate(query, alias).rows,
            )
        while len(components) > 1:
            choice = self._cheapest_merge(query, components, allowed_ops, require_predicate=True)
            if choice is None:
                choice = self._cheapest_merge(query, components, allowed_ops, require_predicate=False)
            if choice is None:
                raise PlanError(f"greedy search failed for query {query.name!r}")
            left_key, right_key, plan = choice
            del components[left_key]
            del components[right_key]
            components[left_key | right_key] = plan
        return next(iter(components.values())).tree

    def _cheapest_merge(
        self,
        query: Query,
        components: dict[frozenset[str], _PartialPlan],
        allowed_ops: list[JoinOp],
        require_predicate: bool,
    ) -> tuple[frozenset[str], frozenset[str], _PartialPlan] | None:
        winner: tuple[frozenset[str], frozenset[str], _PartialPlan] | None = None
        keys = list(components)
        for i, left_key in enumerate(keys):
            for right_key in keys[i + 1 :]:
                if require_predicate and not query.predicates_between(set(left_key), set(right_key)):
                    continue
                rows = self.estimator.estimate_subset(query, left_key | right_key)
                left_plan = components[left_key]
                right_plan = components[right_key]
                for left, right, lp, rp in (
                    (left_key, right_key, left_plan, right_plan),
                    (right_key, left_key, right_plan, left_plan),
                ):
                    for op in allowed_ops:
                        cost = lp.cost + rp.cost + self._join_cost(
                            query, op, left, right, lp.rows, rp.rows, rows
                        )
                        if winner is None or cost < winner[2].cost:
                            winner = (
                                left,
                                right,
                                _PartialPlan(
                                    tree=JoinTree.join(lp.tree, rp.tree, op), cost=cost, rows=rows
                                ),
                            )
        return winner


def _subsets_of_size(aliases: list[str], size: int):
    from itertools import combinations

    for combo in combinations(aliases, size):
        yield frozenset(combo)


def _proper_subsets(subset: frozenset[str]):
    items = sorted(subset)
    n = len(items)
    for mask in range(1, (1 << n) - 1):
        yield frozenset(items[i] for i in range(n) if mask & (1 << i))
