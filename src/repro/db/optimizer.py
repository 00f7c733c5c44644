"""The default query optimizer: System R dynamic programming plus hint support.

This plays the role PostgreSQL's planner plays in the paper: it produces a
"reasonable but not globally optimal" plan for any query, quickly, from
statistics alone.  It supports Bao-style hint sets (restricting which join
operators and scan methods may be used), which is how both the Bao baseline
and BayesQO's initializer obtain their 49 candidate plans per query.

There is one entry point, :meth:`PlanOptimizer.plan_hint_sets`, which plans a
query under any number of hint sets in one pass (``plan`` is the one-hint-set
case of it).  Subset row estimates, which (left, right) splits are feasible,
inner-index availability and the hash/merge/nested-loop cost of every split
are properties of the query alone.  A hint set only selects the leaf scan
costs and the allowed operators, and the 49 Bao hint sets fall into 21
distinct ``(allowed ops, index scans allowed, seq scans allowed)`` classes,
because ``index`` and ``index_only`` are the same thing to this cost model.

For queries joining at most :attr:`PlanOptimizer.dp_table_limit` tables the
search is exact dynamic programming over arrays indexed by alias-subset
bitmask.  Per call, over all ``2^n`` masks: subset rows, neighbour masks and
every term of the three join formulas that reads one input only
(:class:`_Side`).  Then one pass per subset *size*: the (subset, left, right)
splits of that size come from a table that depends on ``n`` alone
(:func:`_level_index`), feasibility is a boolean array over them, the operator
costs of every feasible split are array expressions (:func:`_join_costs`, in
``cost.join_cost``'s operation order, so equal to it bit for bit), and all
classes are swept together: ``(cost[:, left] + cost[:, right])[:, :, None] +
op_costs`` with disallowed operators at ``+inf`` and the *first* minimum of
every subset's segment taken in (left mask ascending, ``JOIN_OPS``) order — a
strict-``<`` first-wins tie-break.  Back-pointers land in ``(classes, 2^n)``
arrays and one :class:`JoinTree` per class is built at the end.  Beyond the
limit a greedy constructive search (the analogue of PostgreSQL's GEQO
threshold) evaluates the same formulas on floats for the few subsets it
touches, as does ``estimated_cost``.  Only the per-``n`` split tables are kept
at module level: nothing query-dependent outlives the call.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.db.cardinality import MIN_ROWS, CardinalityEstimator
from repro.db.catalog import Schema
from repro.db.cost import CostParams, DEFAULT_COST_PARAMS, index_scan_cost, seq_scan_cost
from repro.db.query import Query
from repro.db.statistics import TableStats
from repro.exceptions import PlanError, QueryError
from repro.plans.hints import DEFAULT_HINT_SET, HintSet
from repro.plans.jointree import JOIN_OPS, JoinOp, JoinTree

#: A hint-set class: (allowed operators, (index scans allowed, seq scans allowed)).
_HintClass = tuple[frozenset[JoinOp], tuple[bool, bool]]


class _Side(NamedTuple):
    """Every term of the join formulas that reads one input alone.

    A field is a float (one alias subset: greedy search, ``estimated_cost``)
    or an array (the DP: one entry per subset bitmask, or per split once
    gathered); :func:`_one_sided` and :func:`_join_costs` evaluate on both.
    """

    rows: float | np.ndarray
    hash_build: float | np.ndarray
    hash_probe: float | np.ndarray
    output: float | np.ndarray
    sort: float | np.ndarray
    loop_pair: float | np.ndarray
    #: As the inner of a nested loop: the index probe each outer row pays when
    #: this is a single table with an indexed join column (else 0.0) ...
    inner_probe: float | np.ndarray
    #: ... and the rows each outer row is paired with otherwise (0.0 when indexed).
    inner_rows: float | np.ndarray


def _sort_log2(rows: float) -> float:
    # No sort term at <= 1 row.  ``math.log2`` for the arrays too: ``np.log2``
    # may differ in the last ulp, and ulps decide cost ties.
    return math.log2(rows) if rows > 1 else 0.0


def _one_sided(rows, log2_rows, inner_probe, inner_rows, params: CostParams) -> _Side:
    return _Side(
        rows=rows,
        hash_build=params.hash_build_row * rows,
        hash_probe=params.hash_probe_row * rows,
        output=params.output_row * rows,
        sort=params.sort_row * rows * log2_rows,
        loop_pair=params.nl_pair * rows,
        inner_probe=inner_probe,
        inner_rows=inner_rows,
    )


def _join_costs(left: _Side, right: _Side, output, params: CostParams) -> tuple:
    """Cost of ``left`` (outer) joined with ``right`` (inner) into a subset of output
    term ``output`` under each of ``JOIN_OPS``: ``cost.join_cost`` in its operation order."""
    hash_cost = (right.hash_build + left.hash_probe) + output
    merge_cost = ((left.sort + right.sort) + params.merge_row * (left.rows + right.rows)) + output
    # Indexed or plain nested loop: of the two products exactly one is not 0.0.
    loop_cost = (left.rows * right.inner_probe + left.loop_pair * right.inner_rows) + output
    return hash_cost, merge_cost, loop_cost


@cache
def _level_index(n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Every split of every alias subset of ``n`` tables, one entry per subset size >= 2.

    An entry is ``(subset, left, right, width)``: three parallel mask arrays
    ordered by (subset, left ascending), where each subset owns ``width =
    2^size - 2`` consecutive splits.  ``3^n`` splits in all, for ``n`` alone.
    """
    masks = np.arange(1 << n)
    member = (masks[:, None] >> np.arange(n)) & 1
    sizes = member.sum(axis=1)
    levels = []
    for size in range(2, n + 1):
        subsets = masks[sizes == size]
        ranks = np.nonzero(member[subsets])[1].reshape(-1, size)
        local = np.arange(1, (1 << size) - 1)
        # Deposit bit j of every local mask at the subset's j-th lowest bit.
        local_bits = (local[:, None] >> np.arange(size)) & 1
        left = (local_bits[None] << ranks[:, None]).sum(axis=2).ravel()
        subset = np.repeat(subsets, len(local))
        levels.append((subset, left, subset ^ left, len(local)))
        for shared in levels[-1][:3]:  # every call reads the cached arrays
            shared.setflags(write=False)
    return levels


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
        self.leaves = {
            1 << rank: JoinTree.leaf(alias) for rank, alias in enumerate(sorted(query.aliases))
        }
        bit_of = self.bit_of = {leaf.alias: bit for bit, leaf in self.leaves.items()}
        #: Single-alias masks in query alias order.
        self.bits = [bit_of[alias] for alias in query.aliases]
        self.full = sum(self.bits)
        #: (mask, factor): a subset's rows are the product of the factors whose
        #: mask it contains — base cardinalities in query alias order (so the
        #: last ulp does not depend on ``PYTHONHASHSEED``), then selectivities
        #: in predicate order, as in ``CardinalityEstimator.estimate_subset``.
        self.factors: list[tuple[int, float]] = []
        #: Per base table: (seq scan cost, index scan cost or None when no filter column is indexed).
        self.scans: dict[int, tuple[float, float | None]] = {}
        #: Per base table with an indexed join column (usable as the inner of an
        #: indexed nested loop): the index probe each outer row pays.
        self.inner_probe: dict[int, float] = {}
        has_index = optimizer.schema.has_index
        for bit, alias in zip(self.bits, query.aliases):
            table = query.table_of(alias)
            estimate = optimizer.estimator.base_estimate(query, alias)
            table_rows = estimate.table_rows
            self.factors.append((bit, estimate.rows))
            filter_indexed = any(has_index(table, flt.column) for flt in query.filters_for(alias))
            self.scans[bit] = (
                seq_scan_cost(table_rows, self.params),
                index_scan_cost(table_rows, estimate.rows, self.params) if filter_indexed else None,
            )
            join_columns = [
                predicate.left_column if predicate.left_alias == alias else predicate.right_column
                for predicate in query.join_predicates
                if alias in predicate.aliases()
            ]
            if any(has_index(table, column) for column in join_columns):
                self.inner_probe[bit] = self.params.inl_probe * math.log2(max(table_rows, 2.0))
        self._neighbours = dict.fromkeys(self.bits, 0)
        for predicate in query.join_predicates:
            left, right = bit_of[predicate.left_alias], bit_of[predicate.right_alias]
            self.factors.append(
                (left | right, optimizer.estimator.predicate_selectivity(query, predicate))
            )
            self._neighbours[left] |= right
            self._neighbours[right] |= left
        self._joins: dict[tuple[int, int, JoinOp], JoinTree] = {}
        self._sides: dict[int, _Side] = {}
        self._join_costs: dict[tuple[int, int], tuple[float, ...]] = {}

    def neighbours(self, subset: int) -> int:
        """Aliases sharing a join predicate with some alias of ``subset``."""
        found = self._neighbours.get(subset)
        if found is None:
            low = subset & -subset
            found = self._neighbours[subset] = self._neighbours[low] | self.neighbours(subset ^ low)
        return found

    def scan_costs(self, allow_index: bool, allow_seq: bool) -> dict[int, float]:
        """Cheapest allowed scan of every base table, keyed by bit in query alias order."""
        costs = {}
        for bit, (seq_cost, index_cost) in self.scans.items():
            allowed = [seq_cost] if allow_seq else []
            if index_cost is not None and allow_index:
                allowed.append(index_cost)
            # A hint set that disables every applicable scan falls back to a seq scan,
            # mirroring PostgreSQL's behaviour of treating enable_* as a soft penalty.
            costs[bit] = min(allowed, default=seq_cost * 100.0)
        return costs

    def tree(self, subset: int, left_of, op_of) -> JoinTree:
        """Follow the back-pointers (mappings or arrays over masks) down to the
        leaves; equal sub-trees of one call's trees are one (immutable) object."""
        if subset in self.leaves:
            return self.leaves[subset]
        left, op = int(left_of[subset]), JOIN_OPS[op_of[subset]]
        children = self.tree(left, left_of, op_of), self.tree(subset ^ left, left_of, op_of)
        key = (id(children[0]), id(children[1]), op)
        if key not in self._joins:
            self._joins[key] = JoinTree.join(*children, op)
        return self._joins[key]

    # ------------------------------------------------------------------ one subset at a time
    def side(self, subset: int) -> _Side:
        """The one-sided terms of ``subset`` as floats (join-order independent)."""
        side = self._sides.get(subset)
        if side is None:
            rows = 1.0
            for mask, factor in self.factors:
                if subset & mask == mask:
                    rows *= factor
            rows = max(rows, MIN_ROWS)
            probe = self.inner_probe.get(subset)
            inner = (0.0, rows) if probe is None else (probe, 0.0)
            side = self._sides[subset] = _one_sided(rows, _sort_log2(rows), *inner, self.params)
        return side

    def join_costs(self, left: int, right: int) -> tuple[float, ...]:
        """Cost of joining ``left`` (outer) with ``right`` (inner) under each of ``JOIN_OPS``."""
        costs = self._join_costs.get((left, right))
        if costs is None:
            costs = self._join_costs[left, right] = _join_costs(
                self.side(left), self.side(right), self.side(left | right).output, self.params
            )
        return costs

    # ------------------------------------------------------------------ all subsets at once
    def side_arrays(self) -> np.ndarray:
        """The one-sided terms of every subset: ``(len(_Side._fields), 2^n)``, indexed by mask."""
        masks = np.arange(self.full + 1)
        ends = np.array([mask for mask, _ in self.factors])[:, None]
        factors = np.array([factor for _, factor in self.factors])[:, None]
        rows = np.ones(len(masks))
        for factor in np.where((masks & ends) == ends, factors, 1.0):
            rows *= factor
        np.maximum(rows, MIN_ROWS, out=rows)
        inner_probe, inner_rows = np.zeros(len(masks)), rows.copy()
        for bit, probe in self.inner_probe.items():
            inner_probe[bit], inner_rows[bit] = probe, 0.0
        log2_rows = np.array([_sort_log2(value) for value in rows.tolist()])
        return np.stack(_one_sided(rows, log2_rows, inner_probe, inner_rows, self.params))

    def levels(self) -> Iterator[tuple[np.ndarray, ...]]:
        """The hint-independent half of the DP, one subset size at a time.

        Yields ``(subsets, counts, left, right, op_costs)``: the subsets of one
        size that get a plan and how many feasible splits each has, then per
        split — a subset's splits consecutive, left mask ascending — both
        sides and the ``(splits, len(JOIN_OPS))`` join costs.  A subset is
        planned from its splits into two planned subsets that share a join
        predicate; cross joins are allowed only when the join graph forces
        them: a subset with no such split takes every split into planned
        subsets if the graph is disconnected or it is the full set.  (Every
        connected subset of a connected graph has a predicate-connected split
        into connected parts and every subset of a disconnected one is planned,
        so the last level always plans the full set.)
        """
        sides = self.side_arrays()
        output = sides[_Side._fields.index("output")]
        neighbours = np.zeros(self.full + 1, dtype=np.intp)
        for bit in self.leaves:  # rank order: a mask's neighbours from its lower half's
            neighbours[bit : 2 * bit] = neighbours[:bit] | self._neighbours[bit]
        seen = frontier = 1  # flood fill: is there a mandatory cross join?
        while frontier:
            frontier = int(neighbours[frontier]) & ~seen
            seen |= frontier
        connected = seen == self.full
        planned = np.zeros(self.full + 1, dtype=bool)
        planned[self.bits] = True
        for subset, left, right, width in _level_index(len(self.bits)):
            both = planned[left] & planned[right]
            keep = both & ((neighbours[left] & right) != 0)
            if not connected or subset[0] == self.full:
                linked = keep.reshape(-1, width).any(axis=1)
                keep |= both & ~linked.repeat(width)
            counts = keep.reshape(-1, width).sum(axis=1)
            found = counts > 0
            subsets, counts = subset[::width][found], counts[found]
            planned[subsets] = True
            left, right = left[keep], right[keep]
            op_costs = _join_costs(
                _Side(*sides.take(left, axis=1)),
                _Side(*sides.take(right, axis=1)),
                output[left | right],
                self.params,
            )
            yield subsets, counts, left, right, np.array(op_costs).T


class PlanOptimizer:
    """Cost-based plan search over join orders and physical operators.

    ``dp_table_limit`` is the widest query planned by exact dynamic
    programming; wider ones go to the greedy search.  The DP's level arrays
    hold up to ``3^n`` splits (times the number of hint classes while one
    level is swept), so every table added to the limit triples them.
    """

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

        Hint sets that allow the same operators and scan kinds are one class:
        they share one search (and one tree object).
        """
        if query.num_tables == 0:
            raise QueryError(f"query {query.name!r} joins no tables")
        if query.num_tables == 1:
            return [JoinTree.leaf(query.aliases[0])] * len(hint_sets)
        keys: list[_HintClass] = [
            (hint_set.join_ops, (hint_set.allows_index_scan(), hint_set.allows_seq_scan()))
            for hint_set in hint_sets
        ]
        classes = list(dict.fromkeys(keys))
        tables = _QueryTables(self, query)
        search = self._dp if query.num_tables <= self.dp_table_limit else self._greedy
        trees = dict(zip(classes, search(tables, classes)))
        return [trees[key] for key in keys]

    def estimated_cost(self, query: Query, tree: JoinTree, hint_set: HintSet = DEFAULT_HINT_SET) -> float:
        """Estimated total cost of executing ``tree`` (scan costs included)."""
        tree.validate_for_query(query)
        tables = _QueryTables(self, query)
        scan_costs = tables.scan_costs(hint_set.allows_index_scan(), hint_set.allows_seq_scan())
        total = 0.0
        for alias in tree.leaf_aliases():
            total += scan_costs[tables.bit_of[alias]]
        for node in tree.join_nodes():
            left, right = (
                sum(tables.bit_of[alias] for alias in side.leaf_aliases())  # type: ignore[union-attr]
                for side in (node.left, node.right)
            )
            total += tables.join_costs(left, right)[JOIN_OPS.index(node.op)]
        return total

    # ------------------------------------------------------------------ DP search
    def _dp(self, tables: _QueryTables, classes: list[_HintClass]) -> list[JoinTree]:
        """The hint-dependent half: the cheapest (split, operator) of every planned subset, per class."""
        scan_costs = {
            scans: list(tables.scan_costs(*scans).values()) for scans in {key for _, key in classes}
        }
        cost = np.full((len(classes), tables.full + 1), np.inf)
        for row, (_, scans) in zip(cost, classes):
            row[tables.bits] = scan_costs[scans]
        left_of, op_of = np.zeros((2, *cost.shape), dtype=np.intp)
        barred = np.array(
            [[0.0 if op in allowed else np.inf for op in JOIN_OPS] for allowed, _ in classes]
        ).reshape(len(classes), 1, len(JOIN_OPS))
        for subsets, counts, left, right, op_costs in tables.levels():
            totals = (cost.take(left, axis=1) + cost.take(right, axis=1))[:, :, None] + op_costs
            totals += barred
            # Flat (split, operator) order is (left mask ascending, JOIN_OPS)
            # order; the first position of a subset's segment that attains its
            # minimum is what a strict-< scan in that order keeps.
            totals = totals.reshape(len(classes), op_costs.size)
            lengths = counts * len(JOIN_OPS)
            starts = lengths.cumsum() - lengths
            best = np.minimum.reduceat(totals, starts, axis=1)
            attained = np.flatnonzero(totals == best.repeat(lengths, axis=1))
            row_starts = np.arange(len(classes))[:, None] * op_costs.size + starts
            first = attained[np.searchsorted(attained, row_starts)] % op_costs.size
            cost[:, subsets] = best
            left_of[:, subsets] = left[first // len(JOIN_OPS)]
            op_of[:, subsets] = first % len(JOIN_OPS)
        return [tables.tree(tables.full, left_of[c], op_of[c]) for c in range(len(classes))]

    # ------------------------------------------------------------------ greedy fallback
    def _greedy(self, tables: _QueryTables, classes: list[_HintClass]) -> list[JoinTree]:
        """Greedy constructive search used above the DP table limit, one class at a time."""
        trees = []
        for allowed, scans in classes:
            ops = [k for k, op in enumerate(JOIN_OPS) if op in allowed]
            components = tables.scan_costs(*scans)  # subset -> cost of its plan, in merge order
            left_of: dict[int, int] = {}  # back-pointers, as the DP's arrays
            op_of: dict[int, int] = {}
            while len(components) > 1:
                merge = self._cheapest_merge(tables, components, ops, require_predicate=True)
                if merge is None:
                    merge = self._cheapest_merge(tables, components, ops, require_predicate=False)
                if merge is None:
                    raise PlanError(f"greedy search failed for query {tables.query.name!r}")
                cost, left, right, op = merge
                del components[left], components[right]
                components[left | right] = cost
                left_of[left | right], op_of[left | right] = left, op
            trees.append(tables.tree(next(iter(components)), left_of, op_of))
        return trees

    def _cheapest_merge(
        self,
        tables: _QueryTables,
        components: dict[int, float],
        ops: list[int],
        require_predicate: bool,
    ) -> tuple[float, int, int, int] | None:
        winner: tuple[float, int, int, int] | None = None
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
                            winner = (total, left, right, op)
        return winner
