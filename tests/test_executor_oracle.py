"""The executor against an independent nested-loop oracle.

``tests/oracles/reference_executor.py`` evaluates a plan with two ``for``
loops over dict rows and prices the cardinalities it finds through
``repro.db.cost``.  Since root joins only *count* their output (no array of
that length is ever built), ``output_rows`` needs a witness that shares no
code with the kernels: here every ``ExecutionResult`` field that depends on a
cardinality — output rows, nodes executed, the charge total and breakdown, and
the censoring decision on either side of every cumulative charge — must equal
the oracle's, with the execution cache on and off and through ``run_batch``,
and the charge log the cache records must be the oracle's event for event.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.db import kernels
from repro.db.catalog import Column, Index, Schema, Table, alias_name
from repro.db.engine import Database
from repro.db.plan_cache import NODE_EVENT, plan_fingerprint
from repro.db.query import FilterPredicate, JoinPredicate, Query, TableRef
from repro.db.relation import Relation
from repro.plans.hints import bao_hint_sets
from repro.plans.jointree import JOIN_OPS, JoinTree
from repro.plans.sampling import random_join_tree
from repro.workloads import build_job_workload

from oracles.reference_executor import (
    NODE,
    OracleLimit,
    charge_events,
    cumulative_charges,
    evaluate,
    expected_result,
)

ORACLE_FULL = os.environ.get("REPRO_ORACLE_FULL") == "1"

KEY_COLUMNS = ("id", "a", "b")


def timeouts_around(points: list[float]) -> list[float | None]:
    """No timeout, then one just below and one just above every cumulative charge."""
    timeouts: list[float | None] = [None]
    for point in points:
        for timeout in (math.nextafter(point, -math.inf), math.nextafter(point, math.inf)):
            if timeout > 0.0 and timeout not in timeouts:
                timeouts.append(timeout)
    return timeouts


def assert_matches(result, expected, context) -> None:
    assert result.latency == expected.latency, context  # same additions, same order
    assert result.timed_out == expected.timed_out, context
    assert result.output_rows == expected.output_rows, context
    assert result.nodes_executed == expected.nodes_executed, context
    assert result.breakdown == expected.breakdown, context


def make_arms(database: Database) -> dict[str, Database]:
    """The executor configurations under test, over one set of relations."""
    schema, relations = database.schema, database.relations
    return {
        "cache on": Database(schema, relations, exec_cache=True),
        "cache off": Database(schema, relations, exec_cache=False),
    }


def check_against_oracle(
    arms: dict[str, Database], query: Query, plan: JoinTree, max_pairs: int,
    timeouts: tuple = (),
) -> None:
    """Every arm of the executor reports what the oracle's cardinalities imply.

    ``timeouts`` are checked besides the ones around every cumulative charge.
    """
    database = arms["cache off"]
    cards = evaluate(query, plan, database.relations, max_pairs=max_pairs)
    events = charge_events(query, cards, database.schema, database.relations, database.cost_params)
    timeouts = timeouts_around(cumulative_charges(events)) + list(timeouts)
    expected = [expected_result(events, cards[-1].output_rows, timeout) for timeout in timeouts]
    for arm, db in arms.items():
        for timeout, want in zip(timeouts, expected):
            assert_matches(db.execute(query, plan, timeout=timeout), want, (arm, timeout))
    batch = database.execute_batch(query, [plan] * len(timeouts), timeouts)
    for timeout, got, want in zip(timeouts, batch, expected):
        assert_matches(got, want, ("batch", timeout))
    # The first timeout is None: the cache holds the plan's complete charge log.
    recorded = arms["cache on"].execution_cache.lookup_outcome(plan_fingerprint(query, plan), None)
    assert [(NODE if category == NODE_EVENT else category, cost)
            for category, cost in recorded.events] == events


# ------------------------------------------------------------------ random small databases
@st.composite
def small_cases(draw):
    """A schema of <= 4 tables, <= 40 rows each, a query of <= 5 aliases and a join tree.

    Key columns draw from small per-table domains (duplicates on both sides,
    keys missing on either side); predicates may repeat an alias pair
    (multi-predicate joins), close cycles, or leave the join graph
    disconnected (predicate-free cross joins); aliases may repeat a table.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables, relations, indexes = [], {}, []
    for number in range(draw(st.integers(1, 4))):
        name = f"t{number}"
        rows = draw(st.one_of(st.integers(0, 40), st.integers(20, 40)))
        table = Table(name, [Column(column) for column in (*KEY_COLUMNS, "f")])
        tables.append(table)
        relations[name] = Relation(table, {
            "id": rng.permutation(rows),
            "a": rng.integers(0, draw(st.integers(1, 12)), size=rows),
            "b": rng.integers(-2, draw(st.integers(1, 6)), size=rows),
            "f": rng.integers(0, 10, size=rows),
        })
        indexes += [
            Index(name, column) for column in (*KEY_COLUMNS, "f") if draw(st.booleans())
        ]
    schema = Schema("oracle", tables, indexes=indexes)

    refs, ordinals = [], {}
    for _ in range(draw(st.integers(2, 5))):
        table = draw(st.sampled_from(tables)).name
        ordinals[table] = ordinals.get(table, 0) + 1
        refs.append(TableRef(alias_name(table, ordinals[table]), table))
    aliases = [ref.alias for ref in refs]
    # Most aliases join an earlier one; a few extra predicates repeat a pair
    # or close a cycle; an alias left out makes some join a cross product.
    pairs = [
        (draw(st.integers(0, later - 1)), later)
        for later in range(1, len(aliases))
        if draw(st.integers(0, 5)) > 0
    ]
    pairs += draw(st.lists(
        st.tuples(st.integers(0, len(aliases) - 1), st.integers(0, len(aliases) - 1))
        .filter(lambda pair: pair[0] != pair[1]),
        max_size=3,
    ))
    predicates = [
        JoinPredicate(
            aliases[left], draw(st.sampled_from(KEY_COLUMNS)),
            aliases[right], draw(st.sampled_from(KEY_COLUMNS)),
        )
        for left, right in draw(st.permutations(pairs))
    ]
    filters = [
        FilterPredicate(
            draw(st.sampled_from(aliases)), draw(st.sampled_from(("f", "a"))), op,
            draw(st.lists(st.integers(0, 9), max_size=4)) if op == "in" else draw(st.integers(0, 9)),
        )
        for op in draw(st.lists(st.sampled_from(("=", "!=", "<", "<=", ">", ">=", "in")), max_size=2))
    ]
    query = Query("oracle_q", refs, predicates, filters)

    forest = [JoinTree.leaf(alias) for alias in draw(st.permutations(aliases))]
    while len(forest) > 1:
        right = forest.pop(draw(st.integers(0, len(forest) - 1)))
        left = forest.pop(draw(st.integers(0, len(forest) - 1)))
        forest.append(JoinTree.join(left, right, draw(st.sampled_from(JOIN_OPS))))
    return Database(schema, relations), query, forest[0]


@settings(
    max_examples=300 if ORACLE_FULL else 60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(small_cases())
def test_random_small_databases_match_nested_loop_oracle(case):
    database, query, plan = case
    try:
        check_against_oracle(make_arms(database), query, plan, max_pairs=60_000)
    except OracleLimit:
        assume(False)


# ------------------------------------------------------------------ random star-schema queries
#: (alias, column, candidate ops, value range) pools for random filters.
_STAR_FILTERS = [
    ("orders#1", "quantity", ("=", ">=", "<="), 20),
    ("orders#1", "order_date", (">=", "<="), 1000),
    ("customer#1", "region", ("=", ">="), 8),
    ("customer#1", "segment", ("=",), 4),
    ("product#1", "category", ("=", "<="), 10),
    ("product#1", "price", (">=", "<="), 50),
    ("shipment#1", "carrier", ("=",), 5),
    ("shipment#1", "ship_date", (">=", "<="), 1000),
]


def random_star_query(rng: np.random.Generator, name: str) -> Query:
    """A random connected query over the tiny star schema.

    Always includes ``orders`` (the hub); each satellite table joins through
    its foreign key with probability ~2/3, and 0-3 random filters apply to
    the chosen aliases.
    """
    refs = [TableRef("orders#1", "orders")]
    joins = []
    if rng.random() < 0.67:
        refs.append(TableRef("customer#1", "customer"))
        joins.append(JoinPredicate("orders#1", "customer_id", "customer#1", "id"))
    if rng.random() < 0.67:
        refs.append(TableRef("product#1", "product"))
        joins.append(JoinPredicate("orders#1", "product_id", "product#1", "id"))
    if rng.random() < 0.67 or len(refs) == 1:
        refs.append(TableRef("shipment#1", "shipment"))
        joins.append(JoinPredicate("shipment#1", "order_id", "orders#1", "id"))
    aliases = {ref.alias for ref in refs}
    pool = [entry for entry in _STAR_FILTERS if entry[0] in aliases]
    filters = []
    for pick in rng.choice(len(pool), size=min(len(pool), int(rng.integers(0, 4))), replace=False):
        alias, column, ops, domain = pool[int(pick)]
        op = ops[int(rng.integers(0, len(ops)))]
        filters.append(FilterPredicate(alias, column, op, int(rng.integers(0, domain))))
    return Query(name=name, table_refs=refs, join_predicates=joins, filters=filters)


def timeout_grid(latency: float) -> tuple:
    """Timeouts that exercise completion, near-miss censoring and deep censoring."""
    return (latency * 2.0, latency, latency * 0.5, latency * 0.05)


@pytest.fixture(scope="module")
def small_star_database(tiny_database):
    """The tiny star schema cut to its first 200 orders and the rows joining them.

    Small enough for nested loops; the foreign keys still find their rows.
    """
    full = tiny_database.relations
    orders = full["orders"].with_rows(np.arange(200))

    def joining(table: str, column: str, keys: np.ndarray) -> Relation:
        relation = full[table]
        return relation.with_rows(np.flatnonzero(np.isin(relation.column(column), keys)))

    relations = {
        "orders": orders,
        "customer": joining("customer", "id", orders.column("customer_id")),
        "product": joining("product", "id", orders.column("product_id")),
        "shipment": joining("shipment", "order_id", orders.column("id")),
    }
    return Database(tiny_database.schema, relations)


def test_random_star_queries_match_nested_loop_oracle(small_star_database):
    """Twelve random star queries x three random plans, on every arm."""
    rng = np.random.default_rng(11)
    arms = make_arms(small_star_database)
    for case in range(12):
        query = random_star_query(rng, f"prop_q{case}")
        for _ in range(3):
            plan = random_join_tree(query, rng)
            latency = arms["cache off"].execute(query, plan).latency
            check_against_oracle(
                arms, query, plan, max_pairs=60_000, timeouts=timeout_grid(latency)
            )


# ------------------------------------------------------------------ JOB queries x Bao plans
#: Small enough that a Python nested loop over every join of every plan below
#: finishes in under a minute (``make oracle-full``).
JOB_ORACLE_SCALE = 0.02


@pytest.fixture(scope="module")
def job_cases():
    """Every <= 5-table JOB query with its distinct Bao hint-set plans."""
    workload = build_job_workload(scale=JOB_ORACLE_SCALE, seed=0)
    hint_sets = bao_hint_sets()
    cases = []
    for query in workload.queries:
        if query.num_tables <= 5:
            plans = {
                plan.canonical(): plan
                for plan in workload.database.plan_hint_sets(query, hint_sets)
            }
            cases.append((query, list(plans.values())))
    return workload.database, cases


@pytest.mark.slow
def test_job_queries_match_nested_loop_oracle(job_cases):
    """Tier-1 takes one plan of every query; ``REPRO_ORACLE_FULL=1`` all of them."""
    database, cases = job_cases
    assert cases
    # One set of arms for the whole run: the cached arm meets every later plan
    # of a query with the subplan memo its earlier plans filled.
    arms = make_arms(database)
    checked = 0
    for query, plans in cases:
        for plan in plans if ORACLE_FULL else plans[:1]:
            check_against_oracle(arms, query, plan, max_pairs=5_000_000)
            checked += 1
    assert checked >= len(cases)


# ------------------------------------------------------------------ nobody sorts what nobody reads
class _CountingNumpy:
    """``np`` as ``repro.db.kernels`` sees it, recording the length of every ``argsort`` input."""

    def __init__(self) -> None:
        self.sorted_lengths: list[int] = []

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, keys, *args, **kwargs):
        self.sorted_lengths.append(len(keys))
        return np.argsort(keys, *args, **kwargs)


def _bushy_case(outer_alias: str):
    """``(t0 ⋈ t1) ⋈ (t2 ⋈ t3)`` with one predicate between the two sides.

    Both sides of the root are intermediates, so its build side is no scan.
    The predicate reads ``t0`` (the *left* input of its join: gathered by
    repeats, no right index) and ``outer_alias`` in the other side — ``t2`` is
    a left input as well, ``t3`` a right one, whose positions exist only
    through the sorted order of ``t3``'s join index.
    """
    rng = np.random.default_rng(24)
    sizes = {"t0": 31, "t1": 37, "t2": 41, "t3": 43}
    tables = [Table(name, [Column(column) for column in KEY_COLUMNS]) for name in sizes]
    relations = {
        table.name: Relation(table, {
            "id": rng.permutation(sizes[table.name]),
            "a": rng.integers(0, 7, size=sizes[table.name]),
            "b": rng.integers(-2, 5, size=sizes[table.name]),
        })
        for table in tables
    }
    refs = [TableRef(alias_name(name, 1), name) for name in sizes]
    t0, t1, t2, t3 = (ref.alias for ref in refs)
    outer = {"t2": t2, "t3": t3}[outer_alias]
    query = Query(f"bushy_{outer_alias}", refs, [
        JoinPredicate(t0, "a", t1, "a"),
        JoinPredicate(t2, "b", t3, "b"),
        JoinPredicate(t0, "b", outer, "a"),
    ], [])
    plan = JoinTree.join(
        JoinTree.join(JoinTree.leaf(t0), JoinTree.leaf(t1), JOIN_OPS[0]),
        JoinTree.join(JoinTree.leaf(t2), JoinTree.leaf(t3), JOIN_OPS[0]),
        JOIN_OPS[0],
    )
    return Database(Schema("bushy", tables), relations), query, plan


@pytest.mark.parametrize("arm", ["cache on", "cache off"])
def test_a_join_whose_pairs_nobody_reads_sorts_nothing(monkeypatch, arm):
    counting = _CountingNumpy()
    monkeypatch.setattr(kernels, "np", counting)

    # A root join over an intermediate build side, no residual predicate: it
    # counts.  Its inputs gather their left sides, so nothing sorts anywhere.
    database, query, plan = _bushy_case("t2")
    result = make_arms(database)[arm].execute(query, plan)
    assert not result.timed_out and result.output_rows > 100
    assert counting.sorted_lengths == []

    # Control — the counter sees a sort when a pair set's right index is
    # read: the root's key is now a column of t3, the build side of its join.
    database, query, plan = _bushy_case("t3")
    db = make_arms(database)[arm]
    cards = evaluate(query, plan, database.relations, max_pairs=60_000)
    events = charge_events(query, cards, database.schema, database.relations, database.cost_params)
    assert not db.execute(query, plan).timed_out
    assert counting.sorted_lengths == [43]  # t3's scan index, once; never the root's build side

    # ... and a parent censored on its pre-charge never reads it: the same
    # plan on cold relations, cut off between the root's two charges.  (The
    # subplan memo materializes what it stores, the child's t3 positions
    # among it: with the cache on that is the one reader left.)
    counting.sorted_lengths.clear()
    database, query, plan = _bushy_case("t3")
    before_root_output = math.nextafter(cumulative_charges(events)[-2], -math.inf)
    censored = make_arms(database)[arm].execute(query, plan, timeout=before_root_output)
    assert censored.timed_out and censored.nodes_executed == 6
    assert counting.sorted_lengths == ([43] if arm == "cache on" else [])


@pytest.mark.parametrize("outer_alias", ["t2", "t3"])
def test_counting_joins_match_nested_loop_oracle(outer_alias):
    """The bushy plans above on every arm, through ``execute_batch`` and a warm memo."""
    database, query, plan = _bushy_case(outer_alias)
    arms = make_arms(database)
    check_against_oracle(arms, query, plan, max_pairs=60_000)
    check_against_oracle(arms, query, plan, max_pairs=60_000)  # "cache on" is warm now
