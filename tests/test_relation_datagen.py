"""Tests for columnar relations and the synthetic data generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.catalog import Column, ForeignKey, Schema, Table
from repro.db.datagen import (
    DEFAULT_FK_FANOUT_CAP,
    ColumnSpec,
    DataGenerator,
    TableSpec,
    ZipfTables,
    capped_zipf_weights,
    zipf_choices,
)
from repro.db.relation import Relation
from repro.exceptions import CatalogError, ExecutionError


def simple_relation() -> Relation:
    table = Table("t", [Column("id"), Column("v"), Column("w")])
    return Relation(
        table,
        {
            "id": np.arange(10),
            "v": np.array([0, 1, 2, 3, 4, 0, 1, 2, 3, 4]),
            "w": np.array([5, 5, 5, 5, 5, 9, 9, 9, 9, 9]),
        },
    )


class TestRelation:
    def test_basic_properties(self):
        relation = simple_relation()
        assert relation.num_rows == 10
        assert relation.name == "t"
        assert set(relation.column_names) == {"id", "v", "w"}

    def test_missing_column_rejected(self):
        table = Table("t", [Column("id"), Column("v")])
        with pytest.raises(CatalogError):
            Relation(table, {"id": np.arange(3)})

    def test_mismatched_lengths_rejected(self):
        table = Table("t", [Column("id"), Column("v")])
        with pytest.raises(CatalogError):
            Relation(table, {"id": np.arange(3), "v": np.arange(4)})

    def test_unknown_column_lookup(self):
        with pytest.raises(CatalogError):
            simple_relation().column("missing")

    def test_filter_masks(self):
        relation = simple_relation()
        assert relation.filter_mask("v", "=", 2).sum() == 2
        assert relation.filter_mask("v", "!=", 2).sum() == 8
        assert relation.filter_mask("v", "<", 2).sum() == 4
        assert relation.filter_mask("v", "<=", 2).sum() == 6
        assert relation.filter_mask("v", ">", 3).sum() == 2
        assert relation.filter_mask("v", ">=", 3).sum() == 4
        assert relation.filter_mask("v", "in", (0, 4)).sum() == 4

    def test_unknown_operator(self):
        with pytest.raises(ExecutionError):
            simple_relation().filter_mask("v", "like", 1)

    def test_select_conjunction(self):
        relation = simple_relation()
        rows, _ = relation.select_cached([("v", "=", 2), ("w", "=", 9)])
        mask = relation.filter_mask("v", "=", 2) & relation.filter_mask("w", "=", 9)
        assert list(rows) == list(np.flatnonzero(mask)) == [7]

    def test_take_and_with_rows(self):
        relation = simple_relation()
        subset = relation.with_rows(np.array([1, 3, 5]))
        assert subset.num_rows == 3
        assert list(subset.column("v")) == [1, 3, 0]
        assert list(relation.take(np.array([0, 9]), "w")) == [5, 9]


class TestZipfChoices:
    def test_uniform_when_skew_zero(self, rng):
        draws = zipf_choices(rng, 100, 5000, skew=0.0)
        assert draws.min() >= 0 and draws.max() < 100

    def test_skew_concentrates_mass(self, rng):
        draws = zipf_choices(rng, 1000, 20000, skew=1.5)
        _, counts = np.unique(draws, return_counts=True)
        top_share = np.sort(counts)[::-1][:10].sum() / len(draws)
        assert top_share > 0.3  # top-10 values dominate under heavy skew

    def test_invalid_population(self, rng):
        with pytest.raises(CatalogError):
            zipf_choices(rng, 0, 10, 1.0)

    #: The Zipf exponents the workload builders give FK and categorical columns.
    BUILDER_SKEWS = [0.8, 0.9, 1.0, 1.1, 1.15, 1.2, 1.25, 1.3, 1.35, 1.4, 1.45, 1.5, 1.6, 1.7, 1.8]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 2000),
        st.integers(0, 7000),
        st.sampled_from(BUILDER_SKEWS),
        st.sampled_from([None, DEFAULT_FK_FANOUT_CAP, 2.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_the_cdf_draw_is_generator_choice(self, population, size, skew, cap, seed):
        """Same indices as ``Generator.choice(p=weights)``, same generator state after."""
        if cap is None:
            weights = np.arange(1, population + 1, dtype=np.float64) ** (-skew)
            weights /= weights.sum()
        else:
            weights = capped_zipf_weights(population, skew, cap)
        ours, numpy_choice = np.random.default_rng(seed), np.random.default_rng(seed)
        got = zipf_choices(ours, population, size, skew, fanout_cap=cap)
        permutation = np.random.default_rng(population).permutation(population)
        want = permutation[numpy_choice.choice(population, size=size, p=weights)]
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert ours.bit_generator.state == numpy_choice.bit_generator.state

    def test_shared_tables_draw_what_fresh_ones_draw(self):
        zipf = ZipfTables()
        for population, skew, cap in [(300, 1.2, 16.0), (300, 1.2, None), (300, 1.4, 16.0)] * 2:
            shared, fresh = np.random.default_rng(1), np.random.default_rng(1)
            assert np.array_equal(
                zipf_choices(shared, population, 500, skew, cap, zipf=zipf),
                zipf_choices(fresh, population, 500, skew, cap),
            )
        assert zipf.cdf(300, 1.2, 16.0) is zipf.cdf(300, 1.2, 16.0)
        assert zipf.permutation(300) is zipf.permutation(300)


class TestDataGenerator:
    def make_generator(self) -> DataGenerator:
        tables = [
            Table("dim", [Column("id"), Column("attr")]),
            Table("fact", [Column("id"), Column("dim_id"), Column("derived"), Column("when", "date")]),
        ]
        schema = Schema("g", tables, [ForeignKey("fact", "dim_id", "dim", "id")])
        specs = {
            "dim": TableSpec(50, {"attr": ColumnSpec("categorical", cardinality=5)}),
            "fact": TableSpec(500, {
                "derived": ColumnSpec("derived", cardinality=20, source_column="dim_id", noise=0.0),
                "when": ColumnSpec("date", date_min=10, date_max=20),
            }),
        }
        return DataGenerator(schema, specs, seed=1)

    def test_generates_all_tables(self):
        relations = self.make_generator().generate()
        assert set(relations) == {"dim", "fact"}
        assert relations["dim"].num_rows == 50
        assert relations["fact"].num_rows == 500

    def test_primary_keys_dense(self):
        relations = self.make_generator().generate()
        assert list(relations["dim"].column("id")) == list(range(50))

    def test_foreign_keys_reference_existing_rows(self):
        relations = self.make_generator().generate()
        fk = relations["fact"].column("dim_id")
        assert fk.min() >= 0 and fk.max() < 50

    def test_derived_column_correlates_with_source(self):
        relations = self.make_generator().generate()
        fact = relations["fact"]
        derived = fact.column("derived")
        expected = (fact.column("dim_id") * 2654435761) % 20
        assert np.array_equal(derived, expected)  # noise=0 -> perfectly correlated

    def test_date_column_bounds(self):
        relations = self.make_generator().generate()
        when = relations["fact"].column("when")
        assert when.min() >= 10 and when.max() <= 20

    def test_deterministic_given_seed(self):
        first = self.make_generator().generate()
        second = self.make_generator().generate()
        assert np.array_equal(first["fact"].column("dim_id"), second["fact"].column("dim_id"))

    def test_missing_spec_rejected(self):
        tables = [Table("only", [Column("id")])]
        schema = Schema("g", tables, [])
        with pytest.raises(CatalogError):
            DataGenerator(schema, {}, seed=0)

    def test_derived_without_source_rejected(self):
        tables = [Table("t", [Column("id"), Column("d")])]
        schema = Schema("g", tables, [])
        specs = {"t": TableSpec(10, {"d": ColumnSpec("derived", cardinality=5)})}
        with pytest.raises(CatalogError):
            DataGenerator(schema, specs, seed=0).generate()
