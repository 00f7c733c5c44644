"""Tests for query objects."""

import dataclasses
import pickle

import pytest

from repro.db.plan_cache import query_fingerprint
from repro.db.query import (
    FilterPredicate,
    JoinPredicate,
    Query,
    TableRef,
    alias_base_tables,
    queries_by_template,
    sql_alias,
)
from repro.exceptions import QueryError


def two_table_query(name: str = "q", template: str | None = None) -> Query:
    return Query(
        name,
        [TableRef("a#1", "a"), TableRef("b#1", "b")],
        [JoinPredicate("a#1", "id", "b#1", "a_id")],
        [FilterPredicate("b#1", "flag", "=", 1)],
        template=template,
    )


class TestQueryConstruction:
    def test_basic_accessors(self):
        query = two_table_query()
        assert query.aliases == ["a#1", "b#1"]
        assert query.num_tables == 2
        assert query.num_joins == 1
        assert query.table_of("a#1") == "a"
        assert len(query.filters_for("b#1")) == 1
        assert query.filters_for("a#1") == []

    def test_content_fields_are_tuples_whatever_was_passed(self):
        query = two_table_query()
        assert isinstance(query.table_refs, tuple)
        assert isinstance(query.join_predicates, tuple)
        assert isinstance(query.filters, tuple)
        assert Query("q", iter(query.table_refs), [], ()).filters == ()
        # A Query is a value: its content cannot be edited in place ...
        with pytest.raises(AttributeError):
            query.filters.append(FilterPredicate("a#1", "flag", "=", 0))
        with pytest.raises(AttributeError):
            query.table_refs.append(TableRef("c#1", "c"))
        # ... and a variant is a new object, with a fingerprint of its own.
        before = query_fingerprint(query)
        variant = dataclasses.replace(query, filters=[FilterPredicate("a#1", "flag", "=", 0)])
        assert query_fingerprint(variant) != before
        assert query_fingerprint(query) is before

    def test_fingerprint_memo_takes_no_part_in_equality_or_repr(self):
        fingerprinted, untouched = two_table_query(), two_table_query()
        query_fingerprint(fingerprinted)
        assert fingerprinted == untouched
        assert repr(fingerprinted) == repr(untouched)
        assert "fingerprint" not in repr(fingerprinted)
        with pytest.raises(TypeError):
            Query("q", [], [], _fingerprint=())

    def test_fingerprint_memo_rides_pickles(self):
        query = two_table_query()
        fingerprint = query_fingerprint(query)
        clone = pickle.loads(pickle.dumps(query))
        assert clone == query
        assert clone.__dict__["_fingerprint"] == fingerprint
        assert query_fingerprint(clone) is clone.__dict__["_fingerprint"]

    def test_duplicate_aliases_rejected(self):
        with pytest.raises(QueryError):
            Query("q", [TableRef("a#1", "a"), TableRef("a#1", "a")], [])

    def test_join_predicate_unknown_alias_rejected(self):
        with pytest.raises(QueryError):
            Query(
                "q",
                [TableRef("a#1", "a")],
                [JoinPredicate("a#1", "id", "zzz", "a_id")],
            )

    def test_filter_unknown_alias_rejected(self):
        with pytest.raises(QueryError):
            Query(
                "q",
                [TableRef("a#1", "a")],
                [],
                [FilterPredicate("zzz", "x", "=", 1)],
            )

    def test_unknown_alias_lookup(self):
        with pytest.raises(QueryError):
            two_table_query().table_of("zzz")

    def test_empty_table_ref_rejected(self):
        with pytest.raises(QueryError):
            TableRef("", "a")


class TestJoinPredicates:
    def test_connects(self):
        predicate = JoinPredicate("a#1", "id", "b#1", "a_id")
        assert predicate.connects({"a#1"}, {"b#1"})
        assert predicate.connects({"b#1"}, {"a#1"})
        assert not predicate.connects({"a#1"}, {"c#1"})

    def test_reversed(self):
        predicate = JoinPredicate("a#1", "id", "b#1", "a_id")
        rev = predicate.reversed()
        assert rev.left_alias == "b#1" and rev.right_column == "id"

    def test_predicates_between(self):
        query = two_table_query()
        assert len(query.predicates_between({"a#1"}, {"b#1"})) == 1
        assert query.predicates_between({"a#1"}, set()) == []


class TestGraphsAndRendering:
    def test_join_graph(self):
        graph = two_table_query().join_graph()
        assert graph.has_edge("a#1", "b#1")
        assert graph.number_of_nodes() == 2

    def test_connectivity(self):
        assert two_table_query().is_connected()
        disconnected = Query(
            "q", [TableRef("a#1", "a"), TableRef("b#1", "b")], []
        )
        assert not disconnected.is_connected()

    def test_sql_rendering(self):
        sql = two_table_query().sql()
        assert sql.startswith("SELECT COUNT(*) FROM")
        assert "a AS a_1" in sql and "b AS b_1" in sql
        assert "a_1.id = b_1.a_id" in sql
        assert "flag = 1" in sql

    def test_sql_alias(self):
        assert sql_alias("movie#2") == "movie_2"

    def test_filter_render_in(self):
        flt = FilterPredicate("a#1", "x", "in", (1, 2, 3))
        assert "IN (1, 2, 3)" in flt.render()

    def test_signature_order_independent(self):
        query = two_table_query()
        other = Query(
            "other",
            [TableRef("b#1", "b"), TableRef("a#1", "a")],
            [JoinPredicate("a#1", "id", "b#1", "a_id")],
        )
        assert query.signature() == other.signature()


class TestHelpers:
    def test_queries_by_template(self):
        queries = [two_table_query("q1", "T1"), two_table_query("q2", "T1"), two_table_query("q3")]
        grouped = queries_by_template(queries)
        assert len(grouped["T1"]) == 2
        assert "q3" in grouped

    def test_alias_base_tables(self):
        mapping = alias_base_tables(two_table_query())
        assert mapping == {"a#1": "a", "b#1": "b"}

    def test_alias_base_tables_mismatch(self):
        query = Query("q", [TableRef("a#1", "b")], [])
        with pytest.raises(QueryError):
            alias_base_tables(query)

    def test_validate_against_schema(self, tiny_schema, tiny_query):
        tiny_query.validate_against(tiny_schema)  # does not raise

    def test_validate_against_schema_missing_table(self, tiny_schema):
        query = Query("q", [TableRef("zzz#1", "zzz")], [])
        with pytest.raises(Exception):
            query.validate_against(tiny_schema)
