"""Tests for the schema catalog."""

import networkx as nx
import numpy as np
import pytest
from oracles import reference_graph

from repro.db.catalog import (
    Column,
    ForeignKey,
    Index,
    Schema,
    Table,
    alias_name,
    alias_ordinal,
    alias_table,
)
from repro.exceptions import CatalogError
from repro.workloads import build_dsb_schema, build_imdb_schema, build_stack_schema
from repro.workloads.generator import query_from_aliases


def make_schema() -> Schema:
    tables = [
        Table("a", [Column("id"), Column("x")]),
        Table("b", [Column("id"), Column("a_id"), Column("y", "float")]),
        Table("c", [Column("id"), Column("b_id")]),
    ]
    fks = [ForeignKey("b", "a_id", "a", "id"), ForeignKey("c", "b_id", "b", "id")]
    return Schema("test", tables, fks)


class TestColumn:
    def test_valid_dtypes(self):
        for dtype in ("int", "float", "date"):
            assert Column("c", dtype).dtype == dtype

    def test_invalid_dtype_raises(self):
        with pytest.raises(CatalogError):
            Column("c", "text")


class TestTable:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("id"), Column("id")])

    def test_primary_key_must_exist(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a")], primary_key="id")

    def test_column_lookup(self):
        table = Table("t", [Column("id"), Column("v")])
        assert table.column("v").name == "v"
        assert table.has_column("id")
        assert not table.has_column("missing")
        with pytest.raises(CatalogError):
            table.column("missing")

    def test_column_names(self):
        table = Table("t", [Column("id"), Column("v")])
        assert table.column_names == ["id", "v"]


class TestSchema:
    def test_table_lookup(self):
        schema = make_schema()
        assert schema.table("a").name == "a"
        assert schema.has_table("b")
        assert not schema.has_table("zzz")
        with pytest.raises(CatalogError):
            schema.table("zzz")

    def test_duplicate_table_rejected(self):
        with pytest.raises(CatalogError):
            Schema("s", [Table("a", [Column("id")]), Table("a", [Column("id")])])

    def test_foreign_key_validation(self):
        with pytest.raises(CatalogError):
            Schema(
                "s",
                [Table("a", [Column("id")])],
                [ForeignKey("a", "missing", "a", "id")],
            )

    def test_len_and_iter(self):
        schema = make_schema()
        assert len(schema) == 3
        assert {table.name for table in schema} == {"a", "b", "c"}
        assert schema.table_names == ["a", "b", "c"]

    def test_join_columns(self):
        schema = make_schema()
        assert schema.join_columns("b", "a") == [("a_id", "id")]
        assert schema.join_columns("a", "b") == [("id", "a_id")]
        assert schema.join_columns("a", "c") == []


class TestIndexes:
    def test_add_index_idempotent(self):
        schema = make_schema()
        first = schema.add_index("b", "a_id")
        second = schema.add_index("b", "a_id")
        assert first is second
        assert schema.has_index("b", "a_id")
        assert not schema.has_index("a", "x")

    def test_add_index_unknown_column(self):
        schema = make_schema()
        with pytest.raises(CatalogError):
            schema.add_index("b", "missing")

    def test_index_all_join_keys(self):
        schema = make_schema()
        schema.index_all_join_keys()
        assert schema.has_index("b", "a_id")
        assert schema.has_index("a", "id")
        assert schema.has_index("c", "b_id")
        assert schema.has_index("b", "id")

    def test_index_name(self):
        assert Index("t", "c").name == "idx_t_c"


class TestReferenceGraphs:
    def test_reference_graph_shape(self):
        graph = reference_graph.reference_graph(make_schema())
        assert set(graph.nodes) == {"a", "b", "c"}
        assert graph.has_edge("a", "b") and graph.has_edge("b", "c")
        assert not graph.has_edge("a", "c")

    def test_alias_k_graph_nodes(self):
        graph = make_schema().alias_k_graph(2)
        assert len(graph) == 6
        assert "a#1" in graph and "a#2" in graph

    def test_alias_k_graph_edges_carry_fk(self):
        graph = make_schema().alias_k_graph(1)
        fk = graph["a#1"]["b#1"]
        assert fk.table == "b" and fk.ref_table == "a"
        assert graph["b#1"]["a#1"] is fk

    def test_alias_k_graph_connected(self):
        graph = make_schema().alias_k_graph(2)
        assert nx.is_connected(nx.Graph({alias: list(neighbours) for alias, neighbours in graph.items()}))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("build", [build_imdb_schema, build_stack_schema, build_dsb_schema])
    def test_alias_k_graph_orders_are_the_networkx_graphs(self, build, k):
        schema = build()
        graph, reference = schema.alias_k_graph(k), reference_graph.alias_k_graph(schema, k)
        assert list(graph) == list(reference.nodes)
        for alias, neighbours in graph.items():
            assert list(neighbours) == list(reference.neighbors(alias))
            assert all(fk is reference.edges[alias, other]["fk"] for other, fk in neighbours.items())
        # Edge order: the predicates of a query over every alias, and of one
        # over a random half of them.
        rng = np.random.default_rng(k)
        for aliases in (list(graph), list(rng.permutation(list(graph))[: len(graph) // 2])):
            query = query_from_aliases(schema, graph, aliases, "all", rng)
            assert query.join_predicates == tuple(reference_graph.join_predicates(reference, aliases))

    def test_a_later_fk_on_an_alias_pair_replaces_the_earlier_in_place(self):
        tables = [
            Table("a", [Column("id"), Column("x")]),
            Table("b", [Column("id"), Column("a_id"), Column("a_other")]),
            Table("c", [Column("id"), Column("b_id")]),
        ]
        fks = [
            ForeignKey("b", "a_id", "a", "id"),
            ForeignKey("c", "b_id", "b", "id"),
            ForeignKey("b", "a_other", "a", "id"),
        ]
        schema = Schema("twice", tables, fks)
        for k in (1, 2):
            graph, reference = schema.alias_k_graph(k), reference_graph.alias_k_graph(schema, k)
            assert graph["a#1"]["b#1"] is graph["b#1"]["a#1"] is fks[2]
            assert list(graph["b#1"]) == list(reference.neighbors("b#1"))
            assert list(graph["b#1"])[0].startswith("a#")  # kept the first edge's position
            query = query_from_aliases(schema, graph, list(graph), "twice", np.random.default_rng(0))
            assert query.join_predicates == tuple(reference_graph.join_predicates(reference, list(graph)))

    def test_alias_k_invalid(self):
        with pytest.raises(CatalogError):
            make_schema().alias_k_graph(0)


class TestAliasHelpers:
    def test_round_trip(self):
        alias = alias_name("title", 2)
        assert alias == "title#2"
        assert alias_table(alias) == "title"
        assert alias_ordinal(alias) == 2

    def test_plain_alias(self):
        assert alias_table("title") == "title"
        assert alias_ordinal("title") == 1
