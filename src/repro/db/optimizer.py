"""The default query optimizer: System R dynamic programming plus hint support.

This plays the role PostgreSQL's planner plays in the paper: it produces a
"reasonable but not globally optimal" plan for any query, quickly, from
statistics alone.  It supports Bao-style hint sets (restricting which join
operators and scan methods may be used), which is how both the Bao baseline
and BayesQO's initializer obtain their 49 candidate plans per query.

There is one entry point, :meth:`PlanOptimizer.plan_hint_sets`, which plans a
query under any number of hint sets in one pass (``plan`` is the one-hint-set
case of it).  Almost nothing the search needs depends on the hint set: subset
row estimates, which (left, right) splits are feasible, predicate
connectivity, inner-index availability and the hash/merge/nested-loop cost of
every split are properties of the query alone.  They are computed once per
call into :class:`_QueryTables`, with alias subsets as bitmasks.  A hint set
only selects the leaf scan costs and the allowed operators, so each *distinct*
``(allowed ops, index scans allowed, seq scans allowed)`` class is one cheap
sweep over the shared tables: ``(cost[left] + cost[right]) + op_cost`` with a
strict-``<`` first-wins tie-break, recording back-pointers, and a single
:class:`JoinTree` built at the end.  The 49 Bao hint sets fall into 21 such
classes, because ``index`` and ``index_only`` are the same thing to this cost
model.  Nothing outlives the call.

For queries joining at most :attr:`PlanOptimizer.dp_table_limit` tables the
optimizer runs exact dynamic programming over connected sub-plans; beyond
that it falls back to a greedy constructive search (the analogue of
PostgreSQL's GEQO threshold) over the same shared tables.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

from repro.db.cardinality import MIN_ROWS, CardinalityEstimator
from repro.db.catalog import Schema
from repro.db.cost import CostParams, DEFAULT_COST_PARAMS, index_scan_cost, join_cost, seq_scan_cost
from repro.db.query import Query
from repro.db.statistics import TableStats
from repro.exceptions import PlanError, QueryError
from repro.plans.hints import DEFAULT_HINT_SET, HintSet
from repro.plans.jointree import JOIN_OPS, JoinTree

#: A sub-plan choice: (left subset, right subset, index into ``JOIN_OPS``).
_Choice = tuple[int, int, int]
#: One planned subset of the DP: its bitmask and its feasible splits, each
#: with the per-operator join costs in ``JOIN_OPS`` order.
_SubsetSplits = tuple[int, list[tuple[int, int, tuple[float, ...]]]]


class _BaseTable(NamedTuple):
    """What the planner knows about one aliased base table of a query."""

    table_rows: float
    #: Estimated rows after the alias's filters.
    rows: float
    #: Some filter column is indexed (an index scan is applicable).
    filter_indexed: bool
    #: Some join column is indexed (usable as the inner of an indexed nested loop).
    join_indexed: bool


class _QueryTables:
    """Everything the plan search needs that no hint set changes.

    Alias subsets are bitmasks; bit ``r`` is the alias of rank ``r`` in
    ``sorted(query.aliases)``, so the sub-masks of a subset in increasing
    numeric order are exactly its proper subsets in "local mask over
    ``sorted(subset)``" order.  Built per :meth:`PlanOptimizer.plan_hint_sets`
    call and dropped with it.
    """

    def __init__(self, optimizer: "PlanOptimizer", query: Query) -> None:
        self.query = query
        self.params = optimizer.cost_params
        self.alias_of = {1 << rank: alias for rank, alias in enumerate(sorted(query.aliases))}
        bit_of = self.bit_of = {alias: bit for bit, alias in self.alias_of.items()}
        #: Single-alias masks in query alias order (the DP's enumeration order
        #: and the order base cardinalities are multiplied in).
        self.bits = [bit_of[alias] for alias in query.aliases]
        self.full = sum(self.bits)
        self.base = {
            bit_of[alias]: self._base_table(optimizer, query, alias) for alias in query.aliases
        }
        #: (mask of both endpoints, selectivity) per join predicate, in query order.
        self._predicates = []
        self._neighbours = dict.fromkeys(self.bits, 0)
        for predicate in query.join_predicates:
            left, right = bit_of[predicate.left_alias], bit_of[predicate.right_alias]
            self._predicates.append(
                (left | right, optimizer.estimator.predicate_selectivity(query, predicate))
            )
            self._neighbours[left] |= right
            self._neighbours[right] |= left
        self._rows: dict[int, float] = {}
        self._join_costs: dict[tuple[int, int], tuple[float, ...]] = {}

    @staticmethod
    def _base_table(optimizer: "PlanOptimizer", query: Query, alias: str) -> _BaseTable:
        table = query.table_of(alias)
        estimate = optimizer.estimator.base_estimate(query, alias)
        join_columns = [
            predicate.left_column if predicate.left_alias == alias else predicate.right_column
            for predicate in query.join_predicates
            if alias in predicate.aliases()
        ]
        has_index = optimizer.schema.has_index
        return _BaseTable(
            table_rows=estimate.table_rows,
            rows=estimate.rows,
            filter_indexed=any(has_index(table, flt.column) for flt in query.filters_for(alias)),
            join_indexed=any(has_index(table, column) for column in join_columns),
        )

    def mask(self, aliases: Sequence[str]) -> int:
        return sum(self.bit_of[alias] for alias in aliases)

    def rows(self, subset: int) -> float:
        """Estimated cardinality of joining ``subset`` (join-order independent).

        Same formula as :meth:`CardinalityEstimator.estimate_subset`, with the
        base cardinalities multiplied in query alias order so the last ulp
        does not depend on ``PYTHONHASHSEED``.
        """
        rows = self._rows.get(subset)
        if rows is None:
            rows = 1.0
            for bit in self.bits:
                if subset & bit:
                    rows *= self.base[bit].rows
            for ends, selectivity in self._predicates:
                if subset & ends == ends:
                    rows *= selectivity
            rows = self._rows[subset] = max(rows, MIN_ROWS)
        return rows

    def neighbours(self, subset: int) -> int:
        """Aliases sharing a join predicate with some alias of ``subset``."""
        found = self._neighbours.get(subset)
        if found is None:
            low = subset & -subset
            found = self._neighbours[subset] = self._neighbours[low] | self.neighbours(subset ^ low)
        return found

    def is_connected(self) -> bool:
        """Flood fill over the predicate masks (no mandatory cross join)."""
        seen = frontier = self.bits[0]
        while frontier:
            frontier = self.neighbours(frontier) & ~seen
            seen |= frontier
        return seen == self.full

    def scan_cost(self, bit: int, allow_index: bool, allow_seq: bool) -> float:
        table_rows, rows, filter_indexed, _ = self.base[bit]
        index_cost = (
            index_scan_cost(table_rows, rows, self.params)
            if filter_indexed and allow_index
            else float("inf")
        )
        seq_cost = seq_scan_cost(table_rows, self.params) if allow_seq else float("inf")
        best = min(index_cost, seq_cost)
        if best == float("inf"):
            # The hint set disabled every applicable scan; fall back to a seq scan,
            # mirroring PostgreSQL's behaviour of treating enable_* as a soft penalty.
            best = seq_scan_cost(table_rows, self.params) * 100.0
        return best

    def join_costs(self, left: int, right: int) -> tuple[float, ...]:
        """Cost of joining ``left`` (outer) with ``right`` (inner) under each of ``JOIN_OPS``."""
        costs = self._join_costs.get((left, right))
        if costs is None:
            rows = self.rows(left), self.rows(right), self.rows(left | right)
            # Only a single base table can be the inner of an indexed nested loop.
            inner = self.base.get(right)
            indexed, table_rows = (
                (inner.join_indexed, inner.table_rows) if inner is not None else (False, 0.0)
            )
            costs = self._join_costs[left, right] = tuple(
                join_cost(
                    op, *rows, inner_indexed=indexed, inner_table_rows=table_rows, params=self.params
                )
                for op in JOIN_OPS
            )
        return costs

    def splits(self, subset: int, planned: set[int], require_predicate: bool):
        """The (left, right) splits of ``subset`` into two planned subsets."""
        left = 0
        while True:
            left = (left - subset) & subset  # next sub-mask in increasing order
            if left == subset:
                return
            right = subset ^ left
            if left not in planned or right not in planned:
                continue
            if require_predicate and not self.neighbours(left) & right:
                continue
            yield left, right

    def tree(self, subset: int, choices: dict[int, _Choice]) -> JoinTree:
        """Follow the back-pointers from ``subset`` down to the leaves."""
        if subset in self.alias_of:
            return JoinTree.leaf(self.alias_of[subset])
        left, right, op = choices[subset]
        return JoinTree.join(self.tree(left, choices), self.tree(right, choices), JOIN_OPS[op])


class PlanOptimizer:
    """Cost-based plan search over join orders and physical operators."""

    def __init__(
        self,
        schema: Schema,
        stats: dict[str, TableStats],
        cost_params: CostParams = DEFAULT_COST_PARAMS,
        dp_table_limit: int = 10,
    ) -> None:
        self.schema = schema
        self.stats = stats
        self.estimator = CardinalityEstimator(stats)
        self.cost_params = cost_params
        self.dp_table_limit = dp_table_limit

    # ------------------------------------------------------------------ public API
    def plan(self, query: Query, hint_set: HintSet = DEFAULT_HINT_SET) -> JoinTree:
        """Return the optimizer's chosen join tree for ``query`` under ``hint_set``."""
        return self.plan_hint_sets(query, [hint_set])[0]

    def plan_hint_sets(self, query: Query, hint_sets: Sequence[HintSet]) -> list[JoinTree]:
        """The chosen join tree for ``query`` under each of ``hint_sets``, in order.

        The hint-independent tables are built once; hint sets that allow the
        same operators and scan kinds share one search (and one tree object).
        """
        if query.num_tables == 0:
            raise QueryError(f"query {query.name!r} joins no tables")
        if query.num_tables == 1:
            return [JoinTree.leaf(query.aliases[0])] * len(hint_sets)
        tables = _QueryTables(self, query)
        dp_splits = self._dp_splits(tables) if query.num_tables <= self.dp_table_limit else None
        trees: dict[tuple, JoinTree] = {}
        plans = []
        for hint_set in hint_sets:
            ops = tuple(k for k, op in enumerate(JOIN_OPS) if hint_set.allows_join(op))
            scans = (hint_set.allows_index_scan(), hint_set.allows_seq_scan())
            key = (ops, scans)
            if key not in trees:
                scan_costs = {bit: tables.scan_cost(bit, *scans) for bit in tables.bits}
                trees[key] = (
                    self._sweep(tables, dp_splits, ops, scan_costs)
                    if dp_splits is not None
                    else self._greedy(tables, ops, scan_costs)
                )
            plans.append(trees[key])
        return plans

    def estimated_cost(self, query: Query, tree: JoinTree, hint_set: HintSet = DEFAULT_HINT_SET) -> float:
        """Estimated total cost of executing ``tree`` (scan costs included)."""
        tree.validate_for_query(query)
        tables = _QueryTables(self, query)
        allow_index, allow_seq = hint_set.allows_index_scan(), hint_set.allows_seq_scan()
        total = 0.0
        for alias in tree.leaf_aliases():
            total += tables.scan_cost(tables.bit_of[alias], allow_index, allow_seq)
        for node in tree.join_nodes():
            left = tables.mask(node.left.leaf_aliases())  # type: ignore[union-attr]
            right = tables.mask(node.right.leaf_aliases())  # type: ignore[union-attr]
            total += tables.join_costs(left, right)[JOIN_OPS.index(node.op)]
        return total

    # ------------------------------------------------------------------ DP search
    def _dp_splits(self, tables: _QueryTables) -> list[_SubsetSplits] | None:
        """The hint-independent half of the DP: which subsets get a plan, from which splits.

        Subsets are visited in ``combinations`` order by size.  A subset is
        planned from its predicate-connected splits; cross joins are allowed
        only when the join graph forces them.  Returns ``None`` when the full
        alias set cannot be reached this way (the caller goes greedy).
        """
        connected = tables.is_connected()
        planned = set(tables.bits)
        dp_splits: list[_SubsetSplits] = []
        for size in range(2, len(tables.bits) + 1):
            for combo in combinations(tables.bits, size):
                subset = sum(combo)
                splits = list(tables.splits(subset, planned, require_predicate=True))
                if not splits and (not connected or subset == tables.full):
                    splits = list(tables.splits(subset, planned, require_predicate=False))
                if splits:
                    planned.add(subset)
                    dp_splits.append(
                        (subset, [(l, r, tables.join_costs(l, r)) for l, r in splits])
                    )
        return dp_splits if tables.full in planned else None

    def _sweep(
        self,
        tables: _QueryTables,
        dp_splits: list[_SubsetSplits],
        ops: tuple[int, ...],
        scan_costs: dict[int, float],
    ) -> JoinTree:
        """The hint-dependent half: cheapest (split, operator) per planned subset."""
        cost = dict(scan_costs)
        choices: dict[int, _Choice] = {}
        for subset, splits in dp_splits:
            best = choice = None
            for left, right, op_costs in splits:
                inputs = cost[left] + cost[right]
                for op in ops:
                    total = inputs + op_costs[op]
                    if best is None or total < best:
                        best, choice = total, (left, right, op)
            cost[subset], choices[subset] = best, choice
        return tables.tree(tables.full, choices)

    # ------------------------------------------------------------------ greedy fallback
    def _greedy(
        self, tables: _QueryTables, ops: tuple[int, ...], scan_costs: dict[int, float]
    ) -> JoinTree:
        """Greedy constructive search used above the DP table limit."""
        components = dict(scan_costs)  # subset -> cost of its plan, in merge order
        choices: dict[int, _Choice] = {}
        while len(components) > 1:
            merge = self._cheapest_merge(tables, components, ops, require_predicate=True)
            if merge is None:
                merge = self._cheapest_merge(tables, components, ops, require_predicate=False)
            if merge is None:
                raise PlanError(f"greedy search failed for query {tables.query.name!r}")
            cost, choice = merge
            left, right, _ = choice
            del components[left]
            del components[right]
            components[left | right] = cost
            choices[left | right] = choice
        return tables.tree(next(iter(components)), choices)

    def _cheapest_merge(
        self,
        tables: _QueryTables,
        components: dict[int, float],
        ops: tuple[int, ...],
        require_predicate: bool,
    ) -> tuple[float, _Choice] | None:
        winner: tuple[float, _Choice] | None = None
        keys = list(components)
        for i, left_key in enumerate(keys):
            for right_key in keys[i + 1 :]:
                if require_predicate and not tables.neighbours(left_key) & right_key:
                    continue
                for left, right in ((left_key, right_key), (right_key, left_key)):
                    inputs = components[left] + components[right]
                    op_costs = tables.join_costs(left, right)
                    for op in ops:
                        total = inputs + op_costs[op]
                        if winner is None or total < winner[0]:
                            winner = (total, (left, right, op))
        return winner
