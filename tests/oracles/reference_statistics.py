"""Reference ANALYZE: per-column statistics as ``np.unique`` and ``np.quantile`` gave them.

``analyze_relation`` and ``_analyze_column`` are ``repro.db.statistics`` as it
stood before ANALYZE read everything off one sorted copy of each column:
``np.unique`` for the distinct values and their counts, a 51-point
``np.quantile`` for the histogram bounds, and ``min``/``max`` scans.
``_sample_filter`` is the query generator's filter draw as it stood then
(listing the table's candidates at every draw), with its range literal an
``np.quantile`` over the raw column.  The
production code must give the same statistics and the same filters, bit for
bit.
"""

from __future__ import annotations

import numpy as np

from repro.db.query import FilterPredicate
from repro.db.statistics import DEFAULT_BUCKETS, DEFAULT_MCVS, ColumnStats, TableStats


def analyze_relation(
    relation, buckets: int = DEFAULT_BUCKETS, mcvs: int = DEFAULT_MCVS
) -> TableStats:
    """Compute :class:`TableStats` for a relation (the ``ANALYZE`` equivalent)."""
    columns: dict[str, ColumnStats] = {}
    for name in relation.column_names:
        values = relation.column(name).astype(np.float64)
        columns[name] = _analyze_column(name, values, buckets, mcvs)
    return TableStats(relation.name, relation.num_rows, columns)


def _analyze_column(name: str, values: np.ndarray, buckets: int, mcvs: int) -> ColumnStats:
    num_rows = len(values)
    if num_rows == 0:
        return ColumnStats(
            name=name,
            num_rows=0,
            num_distinct=0,
            min_value=0.0,
            max_value=0.0,
            histogram=np.array([0.0, 0.0]),
        )
    unique, counts = np.unique(values, return_counts=True)
    order = np.argsort(counts)[::-1]
    top = order[: min(mcvs, len(order))]
    quantiles = np.linspace(0.0, 1.0, buckets + 1)
    histogram = np.quantile(values, quantiles)
    return ColumnStats(
        name=name,
        num_rows=num_rows,
        num_distinct=int(len(unique)),
        min_value=float(values.min()),
        max_value=float(values.max()),
        histogram=histogram,
        mcv_values=unique[top].astype(np.int64),
        mcv_fractions=(counts[top] / num_rows).astype(np.float64),
    )



def _sample_filter(alias, table, relations, filter_specs, rng) -> FilterPredicate | None:
    spec = filter_specs.get(table)
    relation = relations.get(table)
    if spec is None or relation is None or relation.num_rows == 0:
        return None
    candidates: list[tuple[str, str]] = [(column, "eq") for column in spec.eq_columns]
    candidates.extend((column, "range") for column in spec.range_columns)
    if not candidates:
        return None
    column, kind = candidates[rng.integers(0, len(candidates))]
    values = relation.column(column)
    if kind == "eq":
        literal = int(values[rng.integers(0, len(values))])
        if rng.random() < 0.3:
            extras = values[rng.integers(0, len(values), size=2)]
            in_list = sorted({literal, *(int(v) for v in extras)})
            return FilterPredicate(alias, column, "in", tuple(in_list))
        return FilterPredicate(alias, column, "=", literal)
    quantile = float(rng.uniform(0.3, 0.9))
    threshold = int(np.quantile(values, quantile))
    op = ">=" if rng.random() < 0.5 else "<="
    return FilterPredicate(alias, column, op, threshold)
