"""Tests for the Database facade and the random plan sampler."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import engine
from repro.db.engine import Database
from repro.exceptions import CatalogError, PlanError
from repro.db.query import Query, TableRef
from repro.plans.hints import bao_hint_sets
from repro.plans.sampling import random_join_tree, random_join_trees
from repro.workloads.drift import rollback_to_date


class TestDatabaseFacade:
    def test_plan_and_execute_default(self, tiny_database, tiny_query):
        plan = tiny_database.plan(tiny_query)
        result = tiny_database.execute(tiny_query, plan)
        assert result.latency > 0

    def test_execute_without_plan_uses_default(self, tiny_database, tiny_query):
        explicit = tiny_database.execute(tiny_query, tiny_database.plan(tiny_query))
        implicit = tiny_database.execute(tiny_query)
        assert implicit.latency == pytest.approx(explicit.latency)

    def test_default_latency(self, tiny_database, tiny_query):
        assert tiny_database.default_latency(tiny_query) > 0

    def test_estimated_cost(self, tiny_database, tiny_query):
        assert tiny_database.estimated_cost(tiny_query, tiny_database.plan(tiny_query)) > 0

    def test_info(self, tiny_database):
        info = tiny_database.info()
        assert info.num_tables == 4
        assert info.total_rows == sum(r.num_rows for r in tiny_database.relations.values())
        assert info.size_bytes > 0
        assert tiny_database.table_rows("orders") == tiny_database.relations["orders"].num_rows

    def test_snapshot_shares_data(self, tiny_database, tiny_query):
        snapshot = tiny_database.snapshot()
        assert snapshot.execute(tiny_query).latency == pytest.approx(
            tiny_database.execute(tiny_query).latency
        )

    def test_snapshots_share_the_statistics_and_plan_alike(self, job_workload_small, monkeypatch):
        database = job_workload_small.database
        calls = []
        analyze_all = engine.analyze_all
        monkeypatch.setattr(
            engine, "analyze_all", lambda relations: calls.append(1) or analyze_all(relations)
        )
        derived = [database.snapshot(), database.with_execution_cache(False)]
        assert calls == []
        for other in derived:
            assert other.stats is not database.stats
            assert all(other.stats[name] is stats for name, stats in database.stats.items())
        # A replica unpickled in a spawned worker analyzes its own copy.
        replica = pickle.loads(pickle.dumps(database))
        assert calls == [1]
        hint_sets = bao_hint_sets()
        for query in job_workload_small.queries:
            plans = database.plan_hint_sets(query, hint_sets)
            want = [(plan.canonical(), database.estimated_cost(query, plan)) for plan in plans]
            for other in [*derived, replica]:
                got = [
                    (plan.canonical(), other.estimated_cost(query, plan))
                    for plan in other.plan_hint_sets(query, hint_sets)
                ]
                assert got == want

    def test_rolled_back_statistics_equal_a_fresh_analyze(self, tiny_database):
        past = rollback_to_date(tiny_database, 500, date_column="order_date")
        fresh = Database(past.schema, past.relations)
        kept = {
            name for name, relation in past.relations.items()
            if relation is tiny_database.relations[name]
        }
        assert kept and len(kept) < len(past.relations)
        assert list(past.stats) == list(fresh.stats)
        for name, stats in past.stats.items():
            # A kept table's statistics are the parent's own object.
            assert (stats is tiny_database.stats[name]) == (name in kept)
            want = fresh.stats[name]
            assert (stats.table_name, stats.num_rows) == (want.table_name, want.num_rows)
            assert list(stats.columns) == list(want.columns)
            for column, got in stats.columns.items():
                for field in dataclasses.fields(got):
                    a, b = getattr(got, field.name), getattr(want.columns[column], field.name)
                    if isinstance(a, np.ndarray):
                        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
                    else:
                        assert type(a) is type(b) and (a == b or (a != a and b != b))

    def test_with_relations_analyzes_only_replaced_tables(self, tiny_database, monkeypatch):
        calls, analyze_relation = [], engine.analyze_relation
        monkeypatch.setattr(
            engine, "analyze_relation", lambda r: calls.append(r.name) or analyze_relation(r)
        )
        moved = pickle.loads(pickle.dumps(tiny_database.relations["orders"]))
        for replaced in ({}, {"orders": moved}):
            calls.clear()
            other = tiny_database.with_relations({**tiny_database.relations, **replaced})
            assert calls == list(replaced) and other.stats is not tiny_database.stats
            for name, stats in tiny_database.stats.items():
                assert (other.stats[name] is stats) == (name not in replaced)

    def test_with_relations_requires_all_tables(self, tiny_database):
        with pytest.raises(CatalogError):
            Database(tiny_database.schema, {"orders": tiny_database.relations["orders"]})
        with pytest.raises(CatalogError):
            tiny_database.with_relations({"orders": tiny_database.relations["orders"]})

    def test_missing_relation_rejected(self, tiny_schema):
        with pytest.raises(CatalogError):
            Database(tiny_schema, {})


class TestRandomPlans:
    def test_random_plan_valid(self, tiny_query, rng):
        plan = random_join_tree(tiny_query, rng)
        plan.validate_for_query(tiny_query)

    def test_random_plan_has_no_cross_joins(self, tiny_query, rng):
        for _ in range(30):
            plan = random_join_tree(tiny_query, rng)
            assert plan.count_cross_joins(tiny_query) == 0

    def test_single_table(self, rng):
        query = Query("one", [TableRef("a#1", "a")], [])
        plan = random_join_tree(query, rng)
        assert plan.is_leaf

    def test_empty_query_rejected(self, rng):
        with pytest.raises(PlanError):
            random_join_tree(Query("zero", [], []), rng)

    def test_batch_sampler_deterministic(self, tiny_query):
        first = [p.canonical() for p in random_join_trees(tiny_query, 5, seed=3)]
        second = [p.canonical() for p in random_join_trees(tiny_query, 5, seed=3)]
        assert first == second

    def test_sampler_produces_diverse_plans(self, tiny_query):
        plans = {p.canonical() for p in random_join_trees(tiny_query, 30, seed=0)}
        assert len(plans) > 5

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_plans_always_cover_query(self, seed):
        query = Query(
            "prop",
            [TableRef(f"t{i}#1", f"t{i}") for i in range(5)],
            [
                # chain joins
                *[
                    __import__("repro.db.query", fromlist=["JoinPredicate"]).JoinPredicate(
                        f"t{i}#1", "id", f"t{i+1}#1", "fk"
                    )
                    for i in range(4)
                ]
            ],
        )
        plan = random_join_tree(query, np.random.default_rng(seed))
        plan.validate_for_query(query)
        assert plan.count_cross_joins(query) == 0
