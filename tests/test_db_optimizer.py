"""Tests for the default (System R style) plan optimizer."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.reference_planner import ReferencePlanner
from repro.db.cardinality import MIN_ROWS
from repro.db.catalog import Schema
from repro.db.cost import join_cost
from repro.db.optimizer import PlanOptimizer, _QueryTables, _Side
from repro.db.query import FilterPredicate, JoinPredicate, Query, TableRef
from repro.exceptions import QueryError
from repro.plans.hints import DEFAULT_HINT_SET, HintSet, bao_hint_sets
from repro.plans.jointree import JOIN_OPS, JoinOp, JoinTree
from repro.workloads import build_dsb_workload, build_job_workload, build_stack_workload
from repro.workloads.generator import RandomQuerySampler


@pytest.fixture()
def optimizer(tiny_database):
    return PlanOptimizer(tiny_database.schema, tiny_database.stats)


class TestPlanning:
    def test_plan_covers_query(self, optimizer, tiny_query):
        plan = optimizer.plan(tiny_query)
        plan.validate_for_query(tiny_query)
        assert plan.num_joins == tiny_query.num_tables - 1

    def test_single_table_query(self, optimizer):
        query = Query("one", [TableRef("customer#1", "customer")], [])
        plan = optimizer.plan(query)
        assert plan.is_leaf

    def test_empty_query_rejected(self, optimizer):
        with pytest.raises(QueryError):
            optimizer.plan(Query("zero", [], []))

    def test_plan_has_no_cross_joins_for_connected_query(self, optimizer, tiny_query):
        plan = optimizer.plan(tiny_query)
        assert plan.count_cross_joins(tiny_query) == 0

    def test_plan_deterministic(self, optimizer, tiny_query):
        first = optimizer.plan(tiny_query)
        second = optimizer.plan(tiny_query)
        assert first.canonical() == second.canonical()

    def test_greedy_fallback_used_above_dp_limit(self, tiny_database, tiny_query):
        small_limit = PlanOptimizer(tiny_database.schema, tiny_database.stats, dp_table_limit=2)
        plan = small_limit.plan(tiny_query)
        plan.validate_for_query(tiny_query)
        assert plan.count_cross_joins(tiny_query) == 0

    def test_disconnected_query_planned(self, optimizer):
        query = Query(
            "disc",
            [TableRef("customer#1", "customer"), TableRef("product#1", "product")],
            [],
        )
        plan = optimizer.plan(query)
        plan.validate_for_query(query)


class TestHints:
    def test_hint_restricts_operators(self, optimizer, tiny_query):
        for op in JOIN_OPS:
            hint = HintSet(join_ops=frozenset([op]))
            plan = optimizer.plan(tiny_query, hint)
            assert set(plan.operators()) == {op}

    def test_hinted_plan_never_cheaper_than_default(self, optimizer, tiny_query):
        default_cost = optimizer.estimated_cost(tiny_query, optimizer.plan(tiny_query))
        for op in JOIN_OPS:
            hint = HintSet(join_ops=frozenset([op]))
            hinted = optimizer.plan(tiny_query, hint)
            assert optimizer.estimated_cost(tiny_query, hinted, hint) >= default_cost - 1e-9

    def test_different_hints_can_change_the_plan(self, optimizer, tiny_query):
        plans = set()
        for op in JOIN_OPS:
            hint = HintSet(join_ops=frozenset([op]))
            plans.add(optimizer.plan(tiny_query, hint).canonical())
        assert len(plans) >= 2


class TestCostEstimates:
    def test_estimated_cost_positive(self, optimizer, tiny_query):
        plan = optimizer.plan(tiny_query)
        assert optimizer.estimated_cost(tiny_query, plan) > 0

    def test_estimated_cost_validates_plan(self, optimizer, tiny_query):
        wrong = JoinTree.left_deep(["orders#1", "customer#1"])
        with pytest.raises(Exception):
            optimizer.estimated_cost(tiny_query, wrong)

    def test_default_plan_is_cost_minimal_among_alternatives(self, optimizer, tiny_query, rng):
        from repro.plans.sampling import random_join_tree

        chosen_cost = optimizer.estimated_cost(tiny_query, optimizer.plan(tiny_query))
        for _ in range(20):
            alternative = random_join_tree(tiny_query, rng)
            assert optimizer.estimated_cost(tiny_query, alternative) >= chosen_cost - 1e-9

    def test_filters_lower_estimated_cost(self, optimizer, tiny_database):
        base = Query(
            "nofilter",
            [TableRef("orders#1", "orders"), TableRef("customer#1", "customer")],
            [JoinPredicate("orders#1", "customer_id", "customer#1", "id")],
        )
        filtered = Query(
            "filter",
            base.table_refs,
            base.join_predicates,
            [FilterPredicate("customer#1", "region", "=", 1)],
        )
        plan = optimizer.plan(base)
        assert optimizer.estimated_cost(filtered, plan) <= optimizer.estimated_cost(base, plan)

    def test_scan_cost_respects_hint(self, optimizer, tiny_query):
        # Join costs do not depend on the hint set, so for one plan the two
        # estimates differ by the scan costs alone.
        no_index = HintSet(scan_methods=frozenset(["seq"]))
        plan = optimizer.plan(tiny_query)
        assert optimizer.estimated_cost(tiny_query, plan, no_index) >= optimizer.estimated_cost(
            tiny_query, plan, DEFAULT_HINT_SET
        )


# ---------------------------------------------------------------------------- oracle equivalence
#: The oracle is 49 from-scratch searches of 3^n splits each, so tier-1 gives
#: it every hint set only on small queries and a rotating window of them on
#: larger ones (``plan_hint_sets`` itself always plans all 49 in one call).
#: ``REPRO_ORACLE_FULL=1`` (``make oracle-full``) checks the full cross product
#: up to 8 tables and a window of seven at 9-10 tables, where one oracle search
#: takes 0.05-0.4 s.
ORACLE_FULL = os.environ.get("REPRO_ORACLE_FULL") == "1"
HINT_SETS = bao_hint_sets()


def _oracle_window(query: Query, index: int) -> list[int]:
    if query.num_tables <= 5 or (ORACLE_FULL and query.num_tables <= 8):
        return list(range(len(HINT_SETS)))
    if query.num_tables >= 9:
        width = 7 if ORACLE_FULL else 1
    else:
        width = 7 if query.num_tables == 6 else 2
    return [(index * width + offset) % len(HINT_SETS) for offset in range(width)]


def _assert_matches_oracle(optimizer: PlanOptimizer, query: Query, checked: list[int]) -> None:
    oracle = ReferencePlanner(optimizer)
    plans = optimizer.plan_hint_sets(query, HINT_SETS)
    assert len(plans) == len(HINT_SETS)
    for index in checked:
        expected = oracle.plan(query, HINT_SETS[index])
        assert plans[index] == expected, (query.name, HINT_SETS[index].name)
        assert optimizer.plan(query, HINT_SETS[index]) == expected


def _drop_predicates(query: Query, dropped: int) -> Query:
    """``query`` without the join predicates whose bit is set in ``dropped``."""
    kept = [p for bit, p in enumerate(query.join_predicates) if not dropped >> bit & 1]
    return Query(query.name, query.table_refs, kept, query.filters)


@pytest.fixture(scope="module")
def job_sampler():
    """Random queries over the JOB-like schema (alias multiplicity 2, with filters)."""
    database = build_job_workload(scale=0.05, seed=0, num_queries=1).database

    def sample(seed: int, tables: int) -> tuple[PlanOptimizer, Query]:
        sampler = RandomQuerySampler(
            database.schema, max_aliases=2, relations=database.relations,
            min_tables=tables, max_tables=tables,
        )
        return database.optimizer, sampler.sample(1, seed=seed)[0]

    return sample


class TestOracleEquivalence:
    """``plan_hint_sets`` returns, tree for tree, what the per-hint-set search did."""

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "build", [build_job_workload, build_stack_workload, build_dsb_workload],
        ids=["job", "stack", "dsb"],
    )
    def test_benchmark_workloads(self, build):
        # Every bundled query the DP plans: up to ``dp_table_limit`` tables.
        workload = build(scale=0.05, seed=0)
        assert workload.database.optimizer.dp_table_limit == 10
        queries = [query for query in workload.queries if query.num_tables <= 10]
        assert len(queries) >= 50
        if build is not build_dsb_workload:
            assert sum(query.num_tables >= 9 for query in queries) >= 25
        covered = set()
        for index, query in enumerate(queries):
            checked = _oracle_window(query, index)
            covered.update(checked)
            _assert_matches_oracle(workload.database.optimizer, query, checked)
        assert covered == set(range(len(HINT_SETS)))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        tables=st.integers(2, 7),
        dropped=st.integers(0, 2**8 - 1),
        checked=st.lists(st.integers(0, 48), min_size=1, max_size=4, unique=True),
        dp_table_limit=st.sampled_from([2, 10]),
    )
    def test_sampled_queries(self, job_sampler, seed, tables, dropped, checked, dp_table_limit):
        # ``dropped`` removes join predicates bit by bit, which disconnects the
        # join graph (cross-join fallback); ``dp_table_limit=2`` sends queries
        # of every size down the greedy path.
        optimizer, query = job_sampler(seed, tables)
        query = _drop_predicates(query, dropped)
        optimizer = PlanOptimizer(
            optimizer.schema, optimizer.stats, optimizer.cost_params, dp_table_limit
        )
        _assert_matches_oracle(optimizer, query, checked)

    @pytest.mark.slow
    @pytest.mark.parametrize("tables", [9, 10])
    def test_widest_level_arrays(self, job_sampler, tables):
        # The top of the DP's range with one predicate dropped and as a pure
        # cross join, where the fallback makes all 3^n splits feasible.
        optimizer, query = job_sampler(7, tables)
        checked = [0, len(HINT_SETS) // 2, len(HINT_SETS) - 1]
        for kept in (query.join_predicates[1:], []):
            wide = Query(query.name, query.table_refs, kept, query.filters)
            _assert_matches_oracle(optimizer, wide, checked)

    def test_two_table_and_fully_disconnected_queries(self, job_sampler):
        optimizer, pair = job_sampler(3, 2)
        _assert_matches_oracle(optimizer, pair, list(range(len(HINT_SETS))))
        _, query = job_sampler(4, 5)
        islands = Query("islands", query.table_refs, [], query.filters)
        assert not islands.is_connected()
        _assert_matches_oracle(optimizer, islands, list(range(len(HINT_SETS))))

    def test_eleven_table_query_takes_the_greedy_path(self, job_sampler):
        optimizer, query = job_sampler(5, 11)
        assert query.num_tables == 11 > optimizer.dp_table_limit
        _assert_matches_oracle(optimizer, query, list(range(len(HINT_SETS))))

    def test_estimated_cost_matches_the_oracle(self, job_sampler, rng):
        from repro.plans.sampling import random_join_tree

        optimizer, query = job_sampler(6, 6)
        oracle = ReferencePlanner(optimizer)
        for hint_set in HINT_SETS[::8]:
            for tree in (optimizer.plan(query, hint_set), random_join_tree(query, rng)):
                assert optimizer.estimated_cost(query, tree, hint_set) == oracle.estimated_cost(
                    query, tree, hint_set
                )

    def test_same_class_hint_sets_share_one_search(self, optimizer, tiny_query):
        # ``index`` and ``index_only`` are one scan kind to the cost model.
        index = HintSet(scan_methods=frozenset(["seq", "index"]))
        index_only = HintSet(scan_methods=frozenset(["seq", "index_only"]))
        plans = optimizer.plan_hint_sets(tiny_query, [index, index_only, DEFAULT_HINT_SET])
        assert plans[0] is plans[1] is plans[2]
        assert optimizer.plan_hint_sets(tiny_query, []) == []

    def test_no_hint_sets_no_plans(self, optimizer, job_sampler):
        single = Query("one", [TableRef("customer#1", "customer")], [])
        assert optimizer.plan_hint_sets(single, []) == []
        for tables in (2, 7):
            job_optimizer, query = job_sampler(8, tables)
            assert job_optimizer.plan_hint_sets(query, []) == []

    def test_a_class_does_not_depend_on_the_classes_it_is_swept_with(self, job_sampler):
        optimizer, query = job_sampler(9, 7)
        together = optimizer.plan_hint_sets(query, HINT_SETS)
        assert len({plan.canonical() for plan in together}) > 1
        for hint_set, plan in zip(HINT_SETS, together):
            assert optimizer.plan_hint_sets(query, [hint_set]) == [plan]

    def test_mirrored_splits_tie_exactly(self, optimizer):
        # One table under two aliases with identical filters: swapping the
        # twins gives splits of bit-identical cost, so every level has exact
        # ties and only the first-wins order decides.
        twins = Query(
            "twins",
            [
                TableRef("orders#1", "orders"),
                TableRef("customer#1", "customer"),
                TableRef("customer#2", "customer"),
                TableRef("product#1", "product"),
                TableRef("shipment#1", "shipment"),
            ],
            [
                JoinPredicate("orders#1", "customer_id", "customer#1", "id"),
                JoinPredicate("orders#1", "customer_id", "customer#2", "id"),
                JoinPredicate("orders#1", "product_id", "product#1", "id"),
                JoinPredicate("shipment#1", "order_id", "orders#1", "id"),
            ],
            [
                FilterPredicate("customer#1", "region", "=", 2),
                FilterPredicate("customer#2", "region", "=", 2),
            ],
        )
        tables = _QueryTables(optimizer, twins)
        one, two = tables.bit_of["customer#1"], tables.bit_of["customer#2"]

        def swap(mask: int) -> int:
            return mask & ~(one | two) | (two if mask & one else 0) | (one if mask & two else 0)

        ties = 0
        for _, _, left, right, op_costs in tables.levels():
            costs = dict(zip(zip(left.tolist(), right.tolist()), op_costs.tolist()))
            for (l, r), triple in costs.items():
                if (swap(l), swap(r)) != (l, r):
                    assert costs[swap(l), swap(r)] == triple
                    ties += 1
        assert ties >= 20
        _assert_matches_oracle(optimizer, twins, list(range(len(HINT_SETS))))


# ---------------------------------------------------------------------------- one cost model
def _check_cost_model(optimizer: PlanOptimizer, query: Query) -> set[str]:
    """The DP's arrays against ``CardinalityEstimator`` and ``cost.join_cost``, with ``==``.

    Returns which kinds of join input the feasible splits exercised.
    """
    tables = _QueryTables(optimizer, query)
    oracle = ReferencePlanner(optimizer)
    aliases = {
        mask: frozenset(leaf.alias for bit, leaf in tables.leaves.items() if mask & bit)
        for mask in range(1, tables.full + 1)
    }
    rows = {mask: optimizer.estimator.estimate_subset(query, aliases[mask]) for mask in aliases}
    assert _Side(*tables.side_arrays()).rows[1:].tolist() == list(rows.values())
    seen = set()
    for subsets, counts, left, right, op_costs in tables.levels():
        joined = np.repeat(subsets, counts).tolist()
        for s, l, r, costs in zip(joined, left.tolist(), right.tolist(), op_costs.tolist()):
            assert s == l | r and not l & r
            indexed, table_rows = oracle._inner_index_info(query, aliases[r])
            assert costs == [
                join_cost(
                    op, rows[l], rows[r], rows[s], inner_indexed=indexed,
                    inner_table_rows=table_rows, params=optimizer.cost_params,
                )
                for op in JOIN_OPS
            ]
            if len(aliases[r]) > 1:
                seen.add("multi-table inner")
            else:
                seen.add("indexed inner" if indexed else "plain inner")
            if MIN_ROWS in (rows[l], rows[r]):
                seen.add("clamped sort input")
    return seen


def _without_indexes(optimizer: PlanOptimizer, dropped: int) -> PlanOptimizer:
    """``optimizer`` over a schema that lacks the indexes whose bit is set in ``dropped``."""
    schema = optimizer.schema
    kept = [index for bit, index in enumerate(schema.indexes) if not dropped >> bit & 1]
    bare = Schema(schema.name, schema.tables, schema.foreign_keys, kept)
    return PlanOptimizer(bare, optimizer.stats, optimizer.cost_params, optimizer.dp_table_limit)


class TestOneCostModel:
    """The planner evaluates ``repro.db.cost`` over arrays: equal to it bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        tables=st.integers(2, 7),
        dropped_predicates=st.integers(0, 2**8 - 1),
        dropped_indexes=st.integers(0, 2**40 - 1),
    )
    def test_sampled_queries(self, job_sampler, seed, tables, dropped_predicates, dropped_indexes):
        optimizer, query = job_sampler(seed, tables)
        query = _drop_predicates(query, dropped_predicates)
        _check_cost_model(_without_indexes(optimizer, dropped_indexes), query)

    def test_every_kind_of_join_input(self, optimizer, tiny_query):
        # ``customer.id`` loses its index (a plain single-table inner) and an
        # unsatisfiable filter clamps every subset with ``product#1`` at MIN_ROWS.
        customer_id = next(
            bit for bit, index in enumerate(optimizer.schema.indexes)
            if (index.table, index.column) == ("customer", "id")
        )
        clamped = Query(
            "clamped", tiny_query.table_refs, tiny_query.join_predicates,
            [*tiny_query.filters, FilterPredicate("product#1", "category", "=", -1)],
        )
        seen = _check_cost_model(_without_indexes(optimizer, 1 << customer_id), clamped)
        assert seen == {"multi-table inner", "indexed inner", "plain inner", "clamped sort input"}


_HASH_SEED_PROBE = """
import itertools
from repro.plans.hints import bao_hint_sets
from repro.workloads import build_stack_workload
workload = build_stack_workload(scale=0.05, seed=0, num_queries=12)
estimator = workload.database.optimizer.estimator
for query in workload.queries:
    for size in range(1, query.num_tables + 1):
        for subset in itertools.combinations(query.aliases, size):
            print(repr(estimator.estimate_subset(query, frozenset(subset))))
    for plan in workload.database.plan_hint_sets(query, bao_hint_sets()):
        print(plan.canonical())
"""


def test_estimates_and_plans_do_not_depend_on_the_hash_seed():
    # ``frozenset`` iteration order follows PYTHONHASHSEED; multiplying the base
    # cardinalities in that order moved the last ulp of the estimates (and,
    # through cost ties, a few plans) from one process to the next.
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(sys.path)}
        outputs.append(
            subprocess.run(
                [sys.executable, "-c", _HASH_SEED_PROBE],
                env=env, check=True, capture_output=True, text=True, timeout=120,
            ).stdout
        )
    assert outputs[0] and outputs[0] == outputs[1]
