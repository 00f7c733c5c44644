"""Operator cost model.

A single cost model serves two purposes:

* the **default optimizer** evaluates it on *estimated* cardinalities to pick
  its plan (like PostgreSQL's planner costs), and
* the **executor** evaluates it on the *true* cardinalities observed while a
  plan runs, producing the simulated latency reported for that plan.

Because both sides share the same operator formulas, the only source of
"optimizer is wrong" behaviour is cardinality misestimation — which matches
the premise of the paper (Leis et al.'s finding that cardinality errors, not
cost model errors, dominate plan quality).  The planner evaluates the join
formulas over arrays of alias subsets (``repro.db.optimizer._join_costs``, in
the operation order used here); ``TestOneCostModel`` in
``tests/test_db_optimizer.py`` keeps the two equal bit for bit.

All costs are expressed in simulated seconds.  The constants are scaled so a
well-chosen plan over the bundled workloads runs in tens of milliseconds to a
few seconds while a terrible plan (cross joins, misplaced nested loops) runs
for minutes to hours — the orders-of-magnitude dynamic range that makes
timeouts essential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.plans.jointree import JoinOp


@dataclass(frozen=True)
class CostParams:
    """Per-row cost constants (simulated seconds)."""

    #: Cost to scan one row sequentially.
    seq_row: float = 1.0e-6
    #: Cost per index probe (paid once per lookup, on top of per-match cost).
    index_probe: float = 4.0e-6
    #: Cost per row returned from an index scan.
    index_row: float = 2.0e-6
    #: Hash join: cost per row to build the hash table.
    hash_build_row: float = 1.5e-6
    #: Hash join: cost per row to probe the hash table.
    hash_probe_row: float = 1.0e-6
    #: Merge join: per-row sort constant (multiplied by log2 of the input size).
    sort_row: float = 2.5e-7
    #: Merge join: per-row cost of the merge pass.
    merge_row: float = 6.0e-7
    #: Nested loop join: cost per (outer, inner) pair examined.
    nl_pair: float = 2.5e-8
    #: Indexed nested loop: cost per outer-row index lookup.
    inl_probe: float = 3.0e-6
    #: Cost per output row of any join.
    output_row: float = 5.0e-7


DEFAULT_COST_PARAMS = CostParams()


def seq_scan_cost(table_rows: float, params: CostParams = DEFAULT_COST_PARAMS) -> float:
    """Cost of scanning (and filtering) every row of a base table."""
    return params.seq_row * max(table_rows, 0.0)


def index_scan_cost(
    table_rows: float, matching_rows: float, params: CostParams = DEFAULT_COST_PARAMS
) -> float:
    """Cost of an index scan returning ``matching_rows`` of ``table_rows``."""
    probe = params.index_probe * math.log2(max(table_rows, 2.0))
    return probe + params.index_row * max(matching_rows, 0.0)


def hash_join_cost(
    outer_rows: float,
    inner_rows: float,
    output_rows: float,
    params: CostParams = DEFAULT_COST_PARAMS,
) -> float:
    """Hash join: build on the inner (right) input, probe with the outer (left)."""
    return (
        params.hash_build_row * max(inner_rows, 0.0)
        + params.hash_probe_row * max(outer_rows, 0.0)
        + params.output_row * max(output_rows, 0.0)
    )


def merge_join_cost(
    outer_rows: float,
    inner_rows: float,
    output_rows: float,
    params: CostParams = DEFAULT_COST_PARAMS,
) -> float:
    """Sort-merge join: sort both inputs, then a linear merge pass."""
    sort_cost = 0.0
    for rows in (outer_rows, inner_rows):
        rows = max(rows, 0.0)
        if rows > 1:
            sort_cost += params.sort_row * rows * math.log2(rows)
    merge_cost = params.merge_row * (max(outer_rows, 0.0) + max(inner_rows, 0.0))
    return sort_cost + merge_cost + params.output_row * max(output_rows, 0.0)


def nested_loop_cost(
    outer_rows: float,
    inner_rows: float,
    output_rows: float,
    inner_indexed: bool,
    inner_table_rows: float,
    params: CostParams = DEFAULT_COST_PARAMS,
) -> float:
    """Nested-loop join, using an index on the inner side when available.

    Without an index the cost is quadratic in the input sizes, which is what
    makes a misplaced nested loop catastrophically slow — exactly the plans a
    timeout must cut short.
    """
    outer_rows = max(outer_rows, 0.0)
    inner_rows = max(inner_rows, 0.0)
    output_rows = max(output_rows, 0.0)
    if inner_indexed:
        probe = params.inl_probe * math.log2(max(inner_table_rows, 2.0))
        return outer_rows * probe + params.output_row * output_rows
    return params.nl_pair * outer_rows * inner_rows + params.output_row * output_rows


def join_cost(
    op: JoinOp,
    outer_rows: float,
    inner_rows: float,
    output_rows: float,
    inner_indexed: bool = False,
    inner_table_rows: float = 0.0,
    params: CostParams = DEFAULT_COST_PARAMS,
) -> float:
    """Dispatch to the cost formula for ``op``."""
    if op is JoinOp.HASH:
        return hash_join_cost(outer_rows, inner_rows, output_rows, params)
    if op is JoinOp.MERGE:
        return merge_join_cost(outer_rows, inner_rows, output_rows, params)
    return nested_loop_cost(
        outer_rows, inner_rows, output_rows, inner_indexed, inner_table_rows, params
    )
