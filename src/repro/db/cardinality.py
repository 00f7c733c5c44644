"""Cardinality estimation for the default optimizer.

This is a deliberately classical estimator in the System R / PostgreSQL
mould: per-column histograms, independence across predicates, and the
``1 / max(ndv_left, ndv_right)`` rule for equijoins.  On skewed and
correlated data these assumptions produce the systematic misestimates that
make the default plans suboptimal — the gap BayesQO exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.query import JoinPredicate, Query
from repro.db.statistics import TableStats
from repro.exceptions import QueryError

#: Floor applied to every estimated cardinality (PostgreSQL clamps to 1 row).
MIN_ROWS = 1.0


@dataclass
class BaseEstimate:
    """Estimated cardinality of one filtered base table."""

    alias: str
    table_rows: float
    selectivity: float

    @property
    def rows(self) -> float:
        return max(self.table_rows * self.selectivity, MIN_ROWS)


class CardinalityEstimator:
    """Estimates intermediate-result sizes for join subtrees of a query.

    Parameters
    ----------
    stats:
        Per-table statistics produced by :func:`repro.db.statistics.analyze_all`.
    """

    def __init__(self, stats: dict[str, TableStats]) -> None:
        self.stats = stats

    # ------------------------------------------------------------------ base tables
    def base_estimate(self, query: Query, alias: str) -> BaseEstimate:
        """Estimated row count of ``alias`` after applying its filters."""
        table = query.table_of(alias)
        try:
            table_stats = self.stats[table]
        except KeyError as exc:
            raise QueryError(f"no statistics for table {table!r}") from exc
        selectivity = 1.0
        for flt in query.filters_for(alias):
            selectivity *= table_stats.column(flt.column).selectivity(flt.op, flt.value)
        return BaseEstimate(alias, float(table_stats.num_rows), selectivity)

    # ------------------------------------------------------------------ joins
    def predicate_selectivity(self, query: Query, predicate: JoinPredicate) -> float:
        """Selectivity of one equijoin predicate: ``1 / max(ndv_left, ndv_right)``."""
        left_table = query.table_of(predicate.left_alias)
        right_table = query.table_of(predicate.right_alias)
        ndv_left = self.stats[left_table].column(predicate.left_column).num_distinct
        ndv_right = self.stats[right_table].column(predicate.right_column).num_distinct
        return 1.0 / max(ndv_left, ndv_right, 1)

    def join_selectivity(self, query: Query, left: set[str], right: set[str]) -> float:
        """Combined selectivity of all predicates connecting two alias sets.

        Returns 1.0 when no predicate connects them (a cross join).
        """
        selectivity = 1.0
        for predicate in query.predicates_between(left, right):
            selectivity *= self.predicate_selectivity(query, predicate)
        return selectivity

    def estimate_subset(self, query: Query, aliases: frozenset[str]) -> float:
        """Estimated cardinality of joining all aliases in ``aliases``.

        Uses the textbook formula: product of filtered base cardinalities times
        the product of selectivities of every join predicate internal to the
        subset.  The result does not depend on join order, matching how a
        System R optimizer costs intermediate results.  The factors are
        multiplied in query alias order, not set iteration order, so the last
        ulp does not depend on ``PYTHONHASHSEED``.
        """
        if not aliases:
            raise QueryError("cannot estimate the cardinality of an empty alias set")
        unknown = set(aliases) - set(query.aliases)
        if unknown:
            raise QueryError(f"query {query.name!r} has no aliases {sorted(unknown)}")
        rows = 1.0
        for alias in query.aliases:
            if alias in aliases:
                rows *= self.base_estimate(query, alias).rows
        for predicate in query.join_predicates:
            left, right = predicate.aliases()
            if left in aliases and right in aliases:
                rows *= self.predicate_selectivity(query, predicate)
        return max(rows, MIN_ROWS)

    def estimate_join(
        self, query: Query, left: frozenset[str], right: frozenset[str]
    ) -> tuple[float, float, float]:
        """Estimated (left_rows, right_rows, output_rows) for joining two subsets."""
        left_rows = self.estimate_subset(query, left)
        right_rows = self.estimate_subset(query, right)
        output_rows = self.estimate_subset(query, left | right)
        return left_rows, right_rows, output_rows
