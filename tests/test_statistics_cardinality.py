"""Tests for table statistics and the cardinality estimator."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_statistics

from repro.db.cardinality import CardinalityEstimator
from repro.db.catalog import Column, Table
from repro.db.query import FilterPredicate, JoinPredicate, Query, TableRef
from repro.db.relation import Relation
from repro.db.statistics import (
    DEFAULT_BUCKETS,
    DEFAULT_MCVS,
    ColumnStats,
    analyze_all,
    analyze_relation,
    quantile_positions,
    read_quantiles,
    sorted_quantile,
)
from repro.exceptions import CatalogError, QueryError


def uniform_relation(name: str, rows: int, distinct: int) -> Relation:
    table = Table(name, [Column("id"), Column("v")])
    rng = np.random.default_rng(0)
    return Relation(table, {"id": np.arange(rows), "v": rng.integers(0, distinct, rows)})


class TestColumnStats:
    def test_basic_fields(self):
        stats = analyze_relation(uniform_relation("t", 1000, 10))
        column = stats.column("v")
        assert column.num_rows == 1000
        assert column.num_distinct == 10
        assert column.min_value == 0.0
        assert column.max_value == 9.0

    def test_eq_selectivity_roughly_uniform(self):
        stats = analyze_relation(uniform_relation("t", 5000, 10))
        sel = stats.column("v").selectivity("=", 3)
        assert 0.05 < sel < 0.2

    def test_mcv_catches_heavy_hitter(self):
        table = Table("t", [Column("id"), Column("v")])
        values = np.concatenate([np.zeros(900), np.arange(1, 101)])
        relation = Relation(table, {"id": np.arange(1000), "v": values})
        sel = analyze_relation(relation).column("v").selectivity("=", 0)
        assert sel == pytest.approx(0.9, abs=0.02)

    def test_range_selectivity_monotone(self):
        stats = analyze_relation(uniform_relation("t", 2000, 100)).column("v")
        low = stats.selectivity("<=", 10)
        high = stats.selectivity("<=", 80)
        assert low < high
        assert stats.selectivity(">=", 10) == pytest.approx(1.0 - stats.selectivity("<", 10), abs=0.05)

    def test_range_bounds_clamped(self):
        stats = analyze_relation(uniform_relation("t", 100, 10)).column("v")
        assert stats.selectivity("<", -5) == 0.0
        assert stats.selectivity("<=", 100) == 1.0

    def test_in_and_neq(self):
        stats = analyze_relation(uniform_relation("t", 1000, 4)).column("v")
        in_sel = stats.selectivity("in", (0, 1))
        assert 0.3 < in_sel < 0.7
        assert stats.selectivity("!=", 0) == pytest.approx(1.0 - stats.selectivity("=", 0))

    def test_empty_relation(self):
        table = Table("t", [Column("id")])
        stats = analyze_relation(Relation(table, {"id": np.array([], dtype=np.int64)}))
        assert stats.num_rows == 0
        assert stats.column("id").selectivity("=", 1) == 0.0

    def test_unknown_column(self):
        stats = analyze_relation(uniform_relation("t", 10, 2))
        with pytest.raises(CatalogError):
            stats.column("missing")


def assert_same_value(got, want) -> None:
    """Same Python/numpy type, same dtype, equal values (NaN equals NaN).

    Equal floats are the same bits except for the sign of a zero, which
    ``np.min``, ``np.max`` and ``np.partition`` take from either end of a tie
    of ``-0.0`` and ``0.0``.
    """
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f")


def assert_same_stats(got: ColumnStats, want: ColumnStats) -> None:
    for field in dataclasses.fields(ColumnStats):
        assert_same_value(getattr(got, field.name), getattr(want, field.name))


DTYPES = [np.int64, np.int32, np.uint8, np.float64, np.float32]


@st.composite
def raw_columns(draw) -> np.ndarray:
    """A column of one of the stored dtypes: ties, negatives, NaNs in float ones."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    if dtype.kind == "f":
        element = st.floats(width=8 * dtype.itemsize, allow_nan=False)
    else:
        info = np.iinfo(dtype)
        element = st.integers(int(info.min), int(info.max))
    pool = draw(st.lists(element, min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(pool) | element, max_size=120))
    column = np.array(values, dtype=dtype)
    if dtype.kind == "f" and len(column) and draw(st.booleans()):
        nans = draw(st.lists(st.integers(0, len(column) - 1), min_size=1, max_size=4))
        column[nans] = np.nan
    return column


def analyze_both(column: np.ndarray, buckets: int = DEFAULT_BUCKETS, mcvs: int = DEFAULT_MCVS):
    """(one sort per column, the np.unique/np.quantile reference) for one stored column."""
    table = Table("t", [Column("v")], primary_key="v")
    with np.errstate(all="ignore"):  # NaN and inf cast to int64 MCVs on both sides
        got = analyze_relation(Relation(table, {"v": column}), buckets, mcvs).column("v")
        want = reference_statistics.analyze_relation(
            Relation(table, {"v": column}), buckets, mcvs
        ).column("v")
    return got, want


class TestOneSortOracle:
    """ANALYZE off one sorted copy equals np.unique + np.quantile + min/max, field by field."""

    @settings(max_examples=300, deadline=None)
    @given(raw_columns(), st.integers(1, 60), st.integers(0, 12))
    def test_every_field_equals_the_reference(self, column, buckets, mcvs):
        assert_same_stats(*analyze_both(column, buckets, mcvs))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "values",
        [[], [7], [3, 3, 3, 3], [-5, 2, -5, 0, 2, 2, -9], list(range(60, 0, -1)) * 3],
        ids=["empty", "one-row", "all-equal", "negatives-with-ties", "many-ties"],
    )
    def test_edge_columns(self, dtype, values):
        if np.dtype(dtype).kind == "u":
            values = [abs(v) for v in values]
        assert_same_stats(*analyze_both(np.array(values, dtype=dtype)))

    @pytest.mark.parametrize(
        "values",
        [[np.nan], [1.0, np.nan, -2.0, np.nan, 1.0], [np.nan] * 4, [-0.0, 0.0, 0.0, -0.0]],
        ids=["one-nan", "nans-among-ties", "all-nan", "signed-zeros"],
    )
    def test_float_edge_columns(self, values):
        assert_same_stats(*analyze_both(np.array(values)))

    @settings(max_examples=300, deadline=None)
    @given(
        raw_columns().filter(len),
        st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([0, 1]),
            st.floats(0.0, 1.0).map(np.float64),
            st.lists(st.floats(0.0, 1.0), max_size=8),
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60).map(np.array),
        ),
    )
    def test_the_quantile_helper_equals_np_quantile(self, column, q):
        with np.errstate(all="ignore"):
            assert_same_value(sorted_quantile(np.sort(column), q), np.quantile(column, q))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 60), st.integers(0, 2**32 - 1), st.data())
    def test_shared_positions_read_every_column_of_a_length(self, rows, buckets, seed, data):
        """One set of positions per length, then one read per column, equals
        ``np.quantile`` and :func:`sorted_quantile` for int-cast, float and NaN columns."""
        quantiles = np.linspace(0.0, 1.0, buckets + 1)
        positions = quantile_positions(rows, quantiles)
        rng = np.random.default_rng(seed)
        floats = rng.normal(size=rows) * 10.0 ** data.draw(st.integers(-3, 6))
        with_nan = floats.copy()
        with_nan[rng.integers(0, rows, size=data.draw(st.integers(1, 3)))] = np.nan
        columns = [
            rng.integers(-1000, 1000, size=rows).astype(np.float64),
            rng.integers(0, data.draw(st.integers(1, 5)), size=rows).astype(np.float64),
            floats,
            with_nan,
        ]
        for column in columns:
            ordered = np.sort(column)
            got = read_quantiles(ordered, positions)
            assert_same_value(got, np.quantile(column, quantiles))
            assert_same_value(got, sorted_quantile(ordered, quantiles))

    def test_the_sorted_column_is_cached_and_never_pickled(self):
        relation = uniform_relation("t", 100, 10)
        analyze_relation(relation)
        assert relation.sorted_column("v") is relation.sorted_column("v")
        assert np.array_equal(relation.sorted_column("v"), np.sort(relation.column("v")))
        assert relation.__getstate__()["_sorted_cache"] == {}


class TestCardinalityEstimator:
    @pytest.fixture()
    def setup(self):
        a = uniform_relation("a", 1000, 50)
        table_b = Table("b", [Column("id"), Column("a_id"), Column("flag")])
        rng = np.random.default_rng(1)
        b = Relation(
            table_b,
            {
                "id": np.arange(5000),
                "a_id": rng.integers(0, 1000, 5000),
                "flag": rng.integers(0, 4, 5000),
            },
        )
        stats = analyze_all({"a": a, "b": b})
        query = Query(
            "q",
            [TableRef("a#1", "a"), TableRef("b#1", "b")],
            [JoinPredicate("b#1", "a_id", "a#1", "id")],
            [FilterPredicate("b#1", "flag", "=", 1)],
        )
        return CardinalityEstimator(stats), query

    def test_base_estimate_with_filter(self, setup):
        estimator, query = setup
        estimate = estimator.base_estimate(query, "b#1")
        assert 800 < estimate.rows < 1800  # ~5000/4

    def test_base_estimate_without_filter(self, setup):
        estimator, query = setup
        assert estimator.base_estimate(query, "a#1").rows == pytest.approx(1000)

    def test_join_estimate_pk_fk(self, setup):
        estimator, query = setup
        rows = estimator.estimate_subset(query, frozenset(["a#1", "b#1"]))
        # |filtered b| * |a| / max(ndv) ~= 1250 * 1000 / 1000 = ~1250.
        assert 500 < rows < 3000

    def test_join_order_independent(self, setup):
        estimator, query = setup
        left, right, out = estimator.estimate_join(query, frozenset(["a#1"]), frozenset(["b#1"]))
        left2, right2, out2 = estimator.estimate_join(query, frozenset(["b#1"]), frozenset(["a#1"]))
        assert out == pytest.approx(out2)
        assert left == pytest.approx(right2)
        assert right == pytest.approx(left2)

    def test_cross_join_selectivity_is_one(self, setup):
        estimator, query = setup
        assert estimator.join_selectivity(query, {"a#1"}, set()) == 1.0

    def test_empty_subset_rejected(self, setup):
        estimator, query = setup
        with pytest.raises(QueryError):
            estimator.estimate_subset(query, frozenset())

    def test_missing_stats_rejected(self, setup):
        estimator, query = setup
        estimator.stats.pop("a")
        with pytest.raises(QueryError):
            estimator.base_estimate(query, "a#1")
