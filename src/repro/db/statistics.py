"""Table statistics: row counts, NDVs and equi-depth histograms.

The default optimizer's cardinality estimator (and therefore its plan
choices) is driven entirely by these statistics.  Like PostgreSQL's
``pg_statistic``, they are a lossy summary — histograms are per-column and
the estimator assumes independence — which is precisely why the default
optimizer leaves room for offline optimization on correlated, skewed data.

ANALYZE sorts each column once (:meth:`Relation.sorted_column
<repro.db.relation.Relation.sorted_column>`, cached on the relation) and
reads everything off that copy: the distinct values and their counts are
its runs, min and max its two ends, and the histogram bounds
:func:`sorted_quantile` at ``(n - 1)·q``.  Each equals what ``np.unique``,
``np.quantile`` and ``min``/``max`` give, bit for bit, NaN included
(``tests/oracles/reference_statistics.py``).  The query generator draws its
range-filter literals from the same sorted copy, so building a workload
sorts each column once.  The histogram's quantile positions depend only on
the row count, which every column of a relation shares: ``analyze_relation``
computes them once per call (:func:`quantile_positions`) and reads each
column's bounds off them (:func:`read_quantiles`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.relation import Relation
from repro.exceptions import CatalogError

#: Number of histogram buckets kept per column (PostgreSQL's default is 100).
DEFAULT_BUCKETS = 50
#: Number of most-common values tracked per column.
DEFAULT_MCVS = 10


@dataclass
class ColumnStats:
    """Summary statistics for one column."""

    name: str
    num_rows: int
    num_distinct: int
    min_value: float
    max_value: float
    #: Equi-depth histogram bucket boundaries (length ``buckets + 1``).
    histogram: np.ndarray
    #: Most common values and their frequencies (fractions of the table).
    mcv_values: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    mcv_fractions: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.float64))

    # ------------------------------------------------------------------ selectivity estimates
    def selectivity_eq(self, value: float) -> float:
        """Estimated fraction of rows with ``column = value``."""
        if self.num_rows == 0 or self.num_distinct == 0:
            return 0.0
        if len(self.mcv_values):
            match = np.flatnonzero(self.mcv_values == value)
            if len(match):
                return float(self.mcv_fractions[match[0]])
        non_mcv_fraction = 1.0 - float(self.mcv_fractions.sum())
        non_mcv_distinct = max(self.num_distinct - len(self.mcv_values), 1)
        return max(non_mcv_fraction / non_mcv_distinct, 1.0 / max(self.num_rows, 1))

    def selectivity_range(self, op: str, value: float) -> float:
        """Estimated fraction of rows satisfying ``column op value`` for range ops."""
        if self.num_rows == 0:
            return 0.0
        if self.max_value == self.min_value:
            covered = 1.0 if _range_holds(self.min_value, op, value) else 0.0
            return covered
        fraction_below = self._fraction_below(value)
        if op in ("<", "<="):
            return float(np.clip(fraction_below, 0.0, 1.0))
        if op in (">", ">="):
            return float(np.clip(1.0 - fraction_below, 0.0, 1.0))
        raise CatalogError(f"selectivity_range does not handle operator {op!r}")

    def selectivity(self, op: str, value) -> float:
        """Estimated selectivity of a single predicate on this column."""
        if op == "=":
            return self.selectivity_eq(value)
        if op == "!=":
            return float(np.clip(1.0 - self.selectivity_eq(value), 0.0, 1.0))
        if op == "in":
            values = list(value)
            return float(np.clip(sum(self.selectivity_eq(v) for v in values), 0.0, 1.0))
        return self.selectivity_range(op, value)

    def _fraction_below(self, value: float) -> float:
        """Fraction of rows with ``column <= value`` according to the histogram."""
        boundaries = self.histogram
        if len(boundaries) < 2:
            span = self.max_value - self.min_value
            if span <= 0:
                return 1.0 if value >= self.min_value else 0.0
            return (value - self.min_value) / span
        position = np.searchsorted(boundaries, value, side="right")
        if position <= 0:
            return 0.0
        if position >= len(boundaries):
            return 1.0
        buckets = len(boundaries) - 1
        lower, upper = boundaries[position - 1], boundaries[position]
        within = 0.0 if upper == lower else (value - lower) / (upper - lower)
        return ((position - 1) + within) / buckets


@dataclass
class TableStats:
    """Statistics for one table: row count plus per-column stats."""

    table_name: str
    num_rows: int
    columns: dict[str, ColumnStats]

    def column(self, name: str) -> ColumnStats:
        try:
            return self.columns[name]
        except KeyError as exc:
            raise CatalogError(
                f"no statistics for column {name!r} of table {self.table_name!r}"
            ) from exc


def analyze_relation(
    relation: Relation, buckets: int = DEFAULT_BUCKETS, mcvs: int = DEFAULT_MCVS
) -> TableStats:
    """Compute :class:`TableStats` for a relation (the ``ANALYZE`` equivalent).

    Every column has the relation's ``num_rows`` values, so the histogram's
    quantile positions are computed once per relation and each column reads
    its bounds off them.
    """
    columns: dict[str, ColumnStats] = {}
    quantiles = np.linspace(0.0, 1.0, buckets + 1)
    positions = quantile_positions(relation.num_rows, quantiles) if relation.num_rows else None
    for name in relation.column_names:
        # Casting a sorted column to float64 keeps it sorted.
        ordered = relation.sorted_column(name).astype(np.float64, copy=False)
        columns[name] = _analyze_column(name, ordered, positions, mcvs)
    return TableStats(relation.name, relation.num_rows, columns)


def analyze_all(
    relations: dict[str, Relation], buckets: int = DEFAULT_BUCKETS, mcvs: int = DEFAULT_MCVS
) -> dict[str, TableStats]:
    """Analyze every relation of a database."""
    return {name: analyze_relation(rel, buckets, mcvs) for name, rel in relations.items()}


@dataclass(frozen=True)
class QuantilePositions:
    """Where ``np.quantile``'s linear method reads quantiles ``q`` of ``n`` sorted values.

    ``below`` and ``above`` are the positions to interpolate between with
    weight ``gamma``; an integral virtual index has ``gamma`` ``None`` and
    ``below`` the positions to take.  A function of ``n`` and ``q`` alone, so
    columns of one length share it.
    """

    below: np.ndarray
    above: np.ndarray | None = None
    gamma: object = None


def quantile_positions(n: int, q) -> QuantilePositions:
    """numpy's ``method="linear"`` positions step for step, for ``n >= 1`` values.

    The virtual index ``(n - 1)·q``, its floor and the next position (both
    the last one from ``n - 1`` up; an integral ``q`` takes its points
    uninterpolated) and the weight between them.  A Python scalar ``q`` gives
    a Python float weight, as numpy promotes it weakly.
    """
    weak = type(q) in (int, float)
    q = np.asanyarray(q)
    virtual = np.asanyarray((n - 1) * q)
    if virtual.dtype.kind in "iu":
        return QuantilePositions(virtual)
    below = np.floor(virtual, out=...)
    above = np.add(below, 1, out=...)
    at_end = virtual >= n - 1
    below[at_end] = above[at_end] = -1
    below = below.astype(np.intp)
    above = above.astype(np.intp)
    gamma = np.asanyarray(virtual - below, dtype=virtual.dtype)
    gamma = float(gamma) if weak else gamma.reshape(virtual.shape)
    return QuantilePositions(below, above, gamma)


def read_quantiles(ordered: np.ndarray, positions: QuantilePositions):
    """The quantiles at ``positions`` of ``ordered``, values sorted ascending.

    numpy's ``_lerp`` between the two positions; a NaN sorts last and makes
    every quantile NaN.
    """
    if positions.gamma is None:
        result = np.take(ordered, positions.below)
    else:
        result = _lerp(ordered[positions.below], ordered[positions.above], positions.gamma)
    if ordered.dtype.kind == "f" and np.isnan(ordered[-1]):
        if result.ndim == 0:
            result = ordered[-1]
        else:
            np.copyto(result, ordered[-1])
    return result


def sorted_quantile(ordered: np.ndarray, q):
    """``np.quantile(values, q)`` read off ``ordered``, the values sorted ascending.

    :func:`quantile_positions` then :func:`read_quantiles`: value, dtype and
    Python/numpy type are ``np.quantile``'s, for a scalar or vector ``q`` in
    [0, 1] over a non-empty array.
    """
    return read_quantiles(ordered, quantile_positions(len(ordered), q))


def _lerp(a, b, t):
    """numpy's quantile interpolation: ``a + (b - a)·t``, from ``b`` back where ``t >= 0.5``."""
    diff = b - a
    out = np.add(a, diff * t, out=...)
    np.subtract(
        b, diff * (1 - t), out=out, where=t >= 0.5, casting="unsafe", dtype=type(out.dtype)
    )
    return out[()] if out.ndim == 0 else out


def _distinct(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_counts=True)`` read off ``ordered``, sorted ``values``.

    A distinct value starts where a value differs from the one before it.
    NaNs sort last and differ from each other; numpy counts them as one.
    """
    starts = np.empty(len(ordered), dtype=bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    if np.isnan(ordered[-1]):
        first_nan = np.searchsorted(ordered, ordered[-1], side="left")
        starts[first_nan] = True
        starts[first_nan + 1 :] = False
    positions = np.flatnonzero(starts)
    return ordered[positions], np.diff(np.concatenate((positions, [len(ordered)])))


def _analyze_column(
    name: str, ordered: np.ndarray, positions: QuantilePositions | None, mcvs: int
) -> ColumnStats:
    """Statistics of one column from its float64 values sorted ascending.

    ``positions`` are the histogram's quantile positions for its length
    (``None`` for an empty column).
    """
    num_rows = len(ordered)
    if num_rows == 0:
        return ColumnStats(
            name=name,
            num_rows=0,
            num_distinct=0,
            min_value=0.0,
            max_value=0.0,
            histogram=np.array([0.0, 0.0]),
        )
    unique, counts = _distinct(ordered)
    order = np.argsort(counts)[::-1]
    top = order[: min(mcvs, len(order))]
    histogram = read_quantiles(ordered, positions)
    # np.min and np.max of a column holding a NaN are NaN.
    lowest = ordered[-1] if np.isnan(ordered[-1]) else ordered[0]
    return ColumnStats(
        name=name,
        num_rows=num_rows,
        num_distinct=int(len(unique)),
        min_value=float(lowest),
        max_value=float(ordered[-1]),
        histogram=histogram,
        mcv_values=unique[top].astype(np.int64),
        mcv_fractions=(counts[top] / num_rows).astype(np.float64),
    )


def _range_holds(column_value: float, op: str, value: float) -> bool:
    if op == "<":
        return column_value < value
    if op == "<=":
        return column_value <= value
    if op == ">":
        return column_value > value
    if op == ">=":
        return column_value >= value
    raise CatalogError(f"unsupported range operator {op!r}")
