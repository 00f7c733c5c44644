"""The executor against an independent nested-loop oracle.

``tests/oracles/reference_executor.py`` evaluates a plan with two ``for``
loops over dict rows and prices the cardinalities it finds through
``repro.db.cost``.  Since root joins only *count* their output (no array of
that length is ever built), ``output_rows`` needs a witness that shares no
code with the kernels: here every ``ExecutionResult`` field that depends on a
cardinality — output rows, nodes executed, the charge total and breakdown, and
the censoring decision on either side of every cumulative charge — must equal
the oracle's, with the execution cache on and off and through ``run_batch``,
also under a work cap lowered to stop plans on small inputs, and the charge
log the cache records must be the oracle's event for event.
"""

from __future__ import annotations

import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.db import executor as executor_module
from repro.db import kernels
from repro.db.catalog import Column, Index, Schema, Table, alias_name
from repro.db.engine import Database
from repro.db.plan_cache import CAP_EVENT, NODE_EVENT, plan_fingerprint
from repro.db.query import FilterPredicate, JoinPredicate, Query, TableRef
from repro.db.relation import Relation
from repro.exceptions import ExecutionError
from repro.plans.hints import bao_hint_sets
from repro.plans.jointree import JOIN_OPS, JoinTree
from repro.plans.sampling import random_join_tree
from repro.workloads import build_job_workload, build_stack_workload

from oracles.reference_executor import (
    CAP,
    NODE,
    OracleLimit,
    charge_events,
    cumulative_charges,
    evaluate,
    expected_result,
)

ORACLE_FULL = os.environ.get("REPRO_ORACLE_FULL") == "1"

KEY_COLUMNS = ("id", "a", "b", "x", "w", "v")

#: ``x`` is a float key column: NaN equals nothing, ``-0.0 == 0.0``.
FLOAT_KEYS = (np.nan, -0.0, 0.0, 1.0, 2.0)
#: ``w`` and ``v`` are integer key columns over a domain of 2^40: a composite
#: key with a digit on each overflows int64 unless it is re-densified.
WIDE_KEYS = (0, 1, 2, 2**40 - 1)


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
    timeouts: tuple = (), max_rows: int | None = None,
) -> bool:
    """Every arm of the executor reports what the oracle's cardinalities imply.

    ``timeouts`` are checked besides the ones around every cumulative charge;
    ``max_rows`` is the work cap the executor runs under (its
    ``MAX_MATERIALIZED_ROWS``).  Returns whether the cap stopped the plan.
    """
    database = arms["cache off"]
    cards = evaluate(query, plan, database.relations, max_pairs=max_pairs, max_rows=max_rows)
    events = charge_events(query, cards, database.schema, database.relations, database.cost_params)
    timeouts = timeouts_around(cumulative_charges(events)) + list(timeouts)
    expected = [expected_result(events, cards[-1].output_rows, timeout) for timeout in timeouts]
    for arm, db in arms.items():
        for timeout, want in zip(timeouts, expected):
            if want is None:  # the work cap, and no timeout to censor at
                with pytest.raises(ExecutionError):
                    db.execute(query, plan, timeout=timeout)
            else:
                assert_matches(db.execute(query, plan, timeout=timeout), want, (arm, timeout))
    runnable = [(timeout, want) for timeout, want in zip(timeouts, expected) if want is not None]
    batch = database.execute_batch(query, [plan] * len(runnable), [t for t, _ in runnable])
    for (timeout, want), got in zip(runnable, batch):
        assert_matches(got, want, ("batch", timeout))
    # The cache holds the plan's whole charge log: completed (under the first
    # timeout, None) or work-capped (under the last, past every charge).
    capped = cards[-1].capped
    recorded = arms["cache on"].execution_cache.lookup_outcome(
        plan_fingerprint(query, plan), timeouts[-1] if capped else None
    )
    names = {NODE_EVENT: NODE, CAP_EVENT: CAP}
    assert recorded.work_capped == capped
    assert [(names.get(category, category), cost) for category, cost in recorded.events] == events
    return capped


# ------------------------------------------------------------------ random small databases
@st.composite
def small_cases(draw):
    """A schema of <= 4 tables, <= 40 rows each, a query of <= 5 aliases and a join tree.

    Key columns draw from small per-table domains (duplicates on both sides,
    keys missing on either side), a float column holds NaN, -0.0 and 0.0 and
    two integer ones span 2^40; predicates may repeat an alias pair
    (multi-predicate joins: sharing a column on either side, or a composite
    key), close cycles, or leave the join graph disconnected (predicate-free
    cross joins); aliases may repeat a table.
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
            "x": rng.choice(FLOAT_KEYS, size=rows),
            "w": rng.choice(WIDE_KEYS, size=rows),
            "v": rng.choice(WIDE_KEYS, size=rows),
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
    # Siblings between one predicate's aliases: sharing its left column, its
    # right column, or neither (one more digit of a composite key); "wide"
    # adds two digits, on ``w`` and ``v`` of one side, which overflow int64
    # together.
    for base, shared in draw(st.lists(
        st.tuples(st.integers(0, max(len(predicates) - 1, 0)),
                  st.sampled_from(("left", "right", "neither", "wide"))),
        max_size=3 if predicates else 0,
    )):
        base = predicates[base]
        if shared == "wide":
            narrow = st.sampled_from(("id", "a", "b"))
            predicates.append(JoinPredicate(base.left_alias, draw(narrow), base.right_alias, "w"))
            predicates.append(JoinPredicate(base.left_alias, draw(narrow), base.right_alias, "v"))
            continue
        predicates.append(JoinPredicate(
            base.left_alias,
            base.left_column if shared == "left" else draw(st.sampled_from(KEY_COLUMNS)),
            base.right_alias,
            base.right_column if shared == "right" else draw(st.sampled_from(KEY_COLUMNS)),
        ))
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


# The planner's column statistics cast their most common values to int64:
# the float key column's NaN makes that cast warn.  No plan here is checked
# against an estimate.
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
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


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@settings(
    max_examples=200 if ORACLE_FULL else 40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(small_cases(), st.integers(0, 400))
def test_work_capped_small_databases_match_nested_loop_oracle(case, max_rows):
    """The same cases under a work cap low enough to stop many of them."""
    database, query, plan = case
    with mock.patch.object(executor_module, "MAX_MATERIALIZED_ROWS", max_rows):
        try:
            check_against_oracle(
                make_arms(database), query, plan, max_pairs=60_000, max_rows=max_rows
            )
        except OracleLimit:
            assume(False)


# ------------------------------------------------------------------ capped right-deep plans
def _right_deep_case(gather: str):
    """``t0 ⋈ (t1 ⋈ (t2 ⋈ t3))`` over keys of three values: every join blows up.

    The root's key alias reaches its build side through ``gather`` of the
    middle join: ``"left"`` (``t1``), ``"right"`` (``t3``, itself a right
    gather of ``t2 ⋈ t3``) or ``"cross"`` (``t3``, with no predicate between
    ``t1`` and ``t2 ⋈ t3``).
    """
    rng = np.random.default_rng(45)
    names = ("t0", "t1", "t2", "t3")
    tables = [Table(name, [Column(column) for column in ("id", "a", "b")]) for name in names]
    relations = {
        table.name: Relation(table, {
            "id": np.arange(30),
            "a": rng.integers(1, 4, size=30),
            "b": rng.integers(-3, 0, size=30),
        })
        for table in tables
    }
    refs = [TableRef(alias_name(name, 1), name) for name in names]
    t0, t1, t2, t3 = (ref.alias for ref in refs)
    predicates = [JoinPredicate(t2, "a", t3, "a")]
    if gather != "cross":
        predicates.append(JoinPredicate(t1, "b", t3, "b"))
    predicates.append(JoinPredicate(t0, "a", t1 if gather == "left" else t3, "a"))
    query = Query(f"right_deep_{gather}", refs, predicates, [])
    plan = JoinTree.join(JoinTree.leaf(t0), JoinTree.join(
        JoinTree.leaf(t1), JoinTree.join(JoinTree.leaf(t2), JoinTree.leaf(t3), JOIN_OPS[0]),
        JOIN_OPS[0],
    ), JOIN_OPS[0])
    return Database(Schema("right_deep", tables), relations), query, plan


@pytest.mark.parametrize("gather", ["left", "right", "cross"])
def test_a_capped_join_counts_its_blow_up_build_side(monkeypatch, gather):
    """The root's matches exceed the cap, its inputs' do not: every arm
    censors where the oracle does, and the root's build side — a deferred
    blow-up join, kept deferred by the memo too — is counted, never gathered."""
    database, query, plan = _right_deep_case(gather)
    cards = evaluate(query, plan, database.relations)
    root, middle = cards[-1], cards[-2]
    assert middle.output_rows > middle.left_rows + middle.right_rows  # a blow-up
    max_rows = root.matched_rows - 1
    assert max(card.matched_rows for card in cards[:-1]) <= max_rows
    monkeypatch.setattr(executor_module, "MAX_MATERIALIZED_ROWS", max_rows)
    counted = []
    counted_join_index = executor_module.Executor._counted_join_index

    def recording(self, *args):
        index = counted_join_index(self, *args)
        counted.append(index)
        return index

    monkeypatch.setattr(executor_module.Executor, "_counted_join_index", recording)
    arms = make_arms(database)
    for db in arms.values():
        counted.clear()
        assert db.execute(query, plan, timeout=600.0).timed_out
        [root] = [
            index for index in counted
            if index is not None and index.num_keys == middle.output_rows
        ]
        assert "keys" not in vars(root)  # nothing gathered them
    assert check_against_oracle(arms, query, plan, max_pairs=300_000, max_rows=max_rows)


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


# ------------------------------------------------------------------ Stack queries x Bao plans
#: Stack's joins repeat alias pairs (``badge.user_id = so_user#1.id ∧
#: badge.user_id = so_user#2.id``): its Bao plans hold composite keys and
#: predicates sharing a column on either side.
STACK_ORACLE_SCALE = 0.01


@pytest.fixture(scope="module")
def stack_cases():
    """One query per Stack template with its distinct Bao hint-set plans."""
    workload = build_stack_workload(scale=STACK_ORACLE_SCALE, seed=0, num_queries=16)
    hint_sets = bao_hint_sets()
    cases = [
        (query, list({
            plan.canonical(): plan for plan in workload.database.plan_hint_sets(query, hint_sets)
        }.values()))
        for query in workload.queries
    ]
    return workload.database, cases


def test_stack_queries_match_nested_loop_oracle(stack_cases):
    """Tier-1 takes one plan of every query; ``REPRO_ORACLE_FULL=1`` all of them."""
    database, cases = stack_cases
    assert len(cases) == 16
    arms = make_arms(database)
    multi_predicate_joins = 0
    for query, plans in cases:
        for plan in plans if ORACLE_FULL else plans[:1]:
            check_against_oracle(arms, query, plan, max_pairs=5_000_000)
            multi_predicate_joins += sum(
                len(query.predicates_between(set(left), set(right))) > 1
                for left, right, _ in plan.join_pairs()
            )
    assert multi_predicate_joins > 0


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


#: Second root predicates of :func:`_bushy_case` over ``t0`` and ``t2`` alone:
#: one sharing the first predicate's ``t0.b`` (a row filter of the right
#: side), one making a composite key with it.
SECOND_ROOT_PREDICATES = {"shared column": ("b", "b"), "composite key": ("a", "b")}


def _bushy_case(outer_alias: str, second: tuple[str, str] | None = None):
    """``(t0 ⋈ t1) ⋈ (t2 ⋈ t3)`` with one predicate between the two sides.

    Both sides of the root are intermediates, so its build side is no scan.
    The predicate reads ``t0`` (the *left* input of its join: gathered by
    repeats, no right index) and ``outer_alias`` in the other side — ``t2`` is
    a left input as well, ``t3`` a right one, whose positions exist only
    through the sorted order of ``t3``'s join index.  ``second`` adds the
    root predicate ``t0.<second[0]> = t2.<second[1]>``.
    """
    rng = np.random.default_rng(24)
    sizes = {"t0": 31, "t1": 37, "t2": 41, "t3": 43}
    tables = [Table(name, [Column(column) for column in ("id", "a", "b")]) for name in sizes]
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
    predicates = [
        JoinPredicate(t0, "a", t1, "a"),
        JoinPredicate(t2, "b", t3, "b"),
        JoinPredicate(t0, "b", outer, "a"),
    ]
    if second is not None:
        predicates.append(JoinPredicate(t0, second[0], t2, second[1]))
    query = Query(f"bushy_{outer_alias}", refs, predicates, [])
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

    # A root join over an intermediate build side, on one predicate: it
    # counts.  Its inputs gather their left sides, so nothing sorts anywhere.
    database, query, plan = _bushy_case("t2")
    result = make_arms(database)[arm].execute(query, plan)
    assert not result.timed_out and result.output_rows > 100
    assert counting.sorted_lengths == []

    # Two-predicate root joins count too: a row filter and a composite key.
    for second in SECOND_ROOT_PREDICATES.values():
        database, query, plan = _bushy_case("t2", second)
        result = make_arms(database)[arm].execute(query, plan)
        assert not result.timed_out and result.output_rows > 0
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


@pytest.mark.parametrize("second", [None, *SECOND_ROOT_PREDICATES])
@pytest.mark.parametrize("outer_alias", ["t2", "t3"])
def test_counting_joins_match_nested_loop_oracle(outer_alias, second):
    """The bushy plans above on every arm, through ``execute_batch`` and a warm memo."""
    database, query, plan = _bushy_case(outer_alias, SECOND_ROOT_PREDICATES.get(second))
    arms = make_arms(database)
    check_against_oracle(arms, query, plan, max_pairs=60_000)
    check_against_oracle(arms, query, plan, max_pairs=60_000)  # "cache on" is warm now
