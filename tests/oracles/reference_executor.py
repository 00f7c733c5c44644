"""Reference executor: a nested-loop evaluator over Python rows.

An independent answer to "how many rows does every node of this plan produce,
what does the executor charge for them, and where does a timeout cut it
off?".  Rows are dicts, joins are two ``for`` loops, filters are Python
comparisons: no sorting, no searching, no position arrays, and no import
from ``repro.db.kernels`` or ``repro.db.executor``.  It shares with
production code only the operator formulas of ``repro.db.cost`` (the charges
are *defined* by them) and the plain data classes it reads its input from
(``Query``, ``JoinTree``, ``Schema``, ``Relation.column``).

Three conventions of the executor are restated here, not imported:

* nodes run in post-order (left subtree, right subtree, join), a scan charges
  once, a join charges its input-dependent cost (the operator formula at zero
  output rows) and then ``output_row`` per produced pair, and a node counts as
  executed after its last charge;
* a join on several predicates equi-matches on the *first* predicate that
  connects its two sides (in ``query.join_predicates`` order) and filters the
  others for free, so its output charge is per first-predicate match
  (``matched_rows``), not per surviving row (``output_rows``).

* the work cap: the first join in post-order whose first-predicate matches
  (all pairs, for a cross product) exceed ``max_rows`` charges its
  input-dependent cost, then ``output_row`` per match, and aborts — censored
  at the timeout, or an error without one — before it counts as executed.

``max_pairs`` bounds the pairs this evaluator is willing to examine per join;
``max_rows`` stands for ``MAX_MATERIALIZED_ROWS``, which a test lowers to
reach it on small inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.cost import CostParams, index_scan_cost, join_cost, seq_scan_cost
from repro.db.query import Query
from repro.plans.jointree import JoinTree

NODE = "node"
CAP = "cap"


class OracleLimit(Exception):
    """A join has more input pairs than a nested loop should examine."""


@dataclass
class NodeCardinality:
    """What one plan node consumed and produced (``left``/``right`` are 0 for a scan)."""

    node: JoinTree
    left_rows: int
    right_rows: int
    matched_rows: int
    output_rows: int
    #: The work cap stops the plan here (``output_rows`` is then not counted).
    capped: bool = False


def _holds(value, op: str, operand) -> bool:
    if op == "=":
        return value == operand
    if op == "!=":
        return value != operand
    if op == "<":
        return value < operand
    if op == "<=":
        return value <= operand
    if op == ">":
        return value > operand
    if op == ">=":
        return value >= operand
    if op == "in":
        return value in list(operand)
    raise ValueError(f"unknown filter operator {op!r}")


def _table_rows(relation) -> list[dict]:
    names = relation.column_names
    columns = [relation.column(name).tolist() for name in names]
    return [dict(zip(names, values)) for values in zip(*columns)]


class _Capped(Exception):
    """The work cap stopped the plan (its card is the last one)."""


def evaluate(
    query: Query, plan: JoinTree, relations, max_pairs: int = 2_000_000,
    max_rows: int | None = None,
) -> list[NodeCardinality]:
    """Per-node cardinalities of ``plan`` in execution (post-)order.

    With ``max_rows``, the list ends at the first join whose first-predicate
    matches exceed it (``capped``).
    """
    cards: list[NodeCardinality] = []

    def run(node: JoinTree) -> tuple[set[str], list[dict]]:
        if node.is_leaf:
            alias = node.alias
            filters = [flt for flt in query.filters if flt.alias == alias]
            rows = [
                {alias: row}
                for row in _table_rows(relations[query.table_of(alias)])
                if all(_holds(row[flt.column], flt.op, flt.value) for flt in filters)
            ]
            cards.append(NodeCardinality(node, 0, 0, len(rows), len(rows)))
            return {alias}, rows
        left_aliases, left_rows = run(node.left)
        right_aliases, right_rows = run(node.right)
        # Each connecting predicate, oriented (left alias, column, right alias, column).
        connecting = []
        for p in query.join_predicates:
            if p.left_alias in left_aliases and p.right_alias in right_aliases:
                connecting.append((p.left_alias, p.left_column, p.right_alias, p.right_column))
            elif p.right_alias in left_aliases and p.left_alias in right_aliases:
                connecting.append((p.right_alias, p.right_column, p.left_alias, p.left_column))
        if len(left_rows) * len(right_rows) > max_pairs:
            raise OracleLimit
        matched = 0
        output: list[dict] = []
        for left_row in left_rows:
            for right_row in right_rows:
                agree = [
                    left_row[la][lc] == right_row[ra][rc] for la, lc, ra, rc in connecting
                ]
                if not connecting or agree[0]:
                    matched += 1
                if all(agree):
                    output.append({**left_row, **right_row})
        if max_rows is not None and matched > max_rows:
            cards.append(NodeCardinality(node, len(left_rows), len(right_rows), matched, 0, True))
            raise _Capped
        cards.append(NodeCardinality(node, len(left_rows), len(right_rows), matched, len(output)))
        return left_aliases | right_aliases, output

    try:
        run(plan)
    except _Capped:
        pass
    return cards


def charge_events(
    query: Query, cards: list[NodeCardinality], schema, relations, params: CostParams
) -> list[tuple[str, float]]:
    """The charges the executor owes for ``cards``, in order, with node markers."""
    events: list[tuple[str, float]] = []
    for card in cards:
        node = card.node
        if node.is_leaf:
            table = query.table_of(node.alias)
            table_rows = relations[table].num_rows
            indexed = any(
                schema.has_index(table, flt.column)
                for flt in query.filters
                if flt.alias == node.alias
            )
            if indexed:
                events.append(("scan", index_scan_cost(table_rows, card.output_rows, params)))
            else:
                events.append(("scan", seq_scan_cost(table_rows, params)))
            events.append((NODE, 0.0))
            continue
        # An indexed nested loop needs a base-table inner side with an index
        # on one of its join columns.
        inner_indexed, inner_table_rows = False, 0.0
        left_aliases = set(node.left.leaf_aliases())
        if node.right.is_leaf:
            inner = node.right.alias
            table = query.table_of(inner)
            columns = [
                p.left_column if p.left_alias == inner else p.right_column
                for p in query.join_predicates
                if (p.left_alias == inner and p.right_alias in left_aliases)
                or (p.right_alias == inner and p.left_alias in left_aliases)
            ]
            if columns:
                inner_table_rows = float(relations[table].num_rows)
                inner_indexed = any(schema.has_index(table, column) for column in columns)
        events.append((
            "join",
            join_cost(
                node.op, card.left_rows, card.right_rows, 0.0,
                inner_indexed=inner_indexed, inner_table_rows=inner_table_rows, params=params,
            ),
        ))
        events.append(("join", params.output_row * card.matched_rows))
        events.append((CAP, float(card.matched_rows)) if card.capped else (NODE, 0.0))
    return events


@dataclass
class Expected:
    """What an execution under one timeout must report (noise-free)."""

    latency: float
    timed_out: bool
    output_rows: int | None
    nodes_executed: int
    breakdown: dict[str, float]


def expected_result(
    events: list[tuple[str, float]], output_rows: int, timeout: float | None
) -> Expected | None:
    """Accumulate ``events`` in order; the first charge past ``timeout`` censors.

    The work cap censors too; without a timeout the execution raises instead
    (``None``).
    """
    elapsed = 0.0
    nodes = 0
    breakdown: dict[str, float] = {}
    for category, cost in events:
        if category == NODE:
            nodes += 1
            continue
        if category == CAP:
            return None if timeout is None else Expected(timeout, True, None, nodes, breakdown)
        elapsed += cost
        breakdown[category] = breakdown.get(category, 0.0) + cost
        if timeout is not None and elapsed > timeout:
            return Expected(timeout, True, None, nodes, breakdown)
    return Expected(elapsed, False, output_rows, nodes, breakdown)


def cumulative_charges(events: list[tuple[str, float]]) -> list[float]:
    """Simulated time after every charge (the points a timeout can fall between)."""
    elapsed = 0.0
    points = []
    for category, cost in events:
        if category not in (NODE, CAP):
            elapsed += cost
            points.append(elapsed)
    return points
