"""Property tests: join kernels and batch execution are bit-for-bit safe.

Two equivalence claims guard the executor hot path (see
:mod:`repro.db.kernels` for the argument):

* **kernels == sort-merge** — the counting join index, its probe and the
  late pair expansion reproduce the sort-merge reference of
  ``tests/oracles/reference_kernels.py`` array for array, and so do the join
  pairs the executor builds on random queries and plans; a plan censors where
  the reference accumulation of its recorded charge log says, and a work-cap
  abort is the same fresh, replayed and batched (whole executions —
  latencies, censoring, node counts, charge logs — are held to the
  nested-loop oracle in ``test_executor_oracle.py``);
* **batch == sequential** — ``Executor.run_batch`` reconstructs every plan's
  result by replaying per-plan charge streams over once-executed shared
  subtrees, so a batch is indistinguishable from calling ``execute`` per
  plan, including per-plan timeouts, censoring, work-cap aborts and
  duplicate plans.

The batch claim is exercised batch on/off x cache on/off, plus the
process-pool worker batch path.
"""

from __future__ import annotations

import math
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.db.executor as executor_module
from repro.core.protocol import ExecutionOutcome
from repro.db import kernels
from repro.db.engine import Database
from repro.db.plan_cache import NODE_EVENT, CacheStats, plan_fingerprint
from repro.db.query import JoinPredicate, Query
from repro.exceptions import ExecutionError
from repro.exec import (
    ExecutionRequest,
    InlineBackend,
    ProcessPoolBackend,
    ThreadPoolBackend,
    perform_batch,
    submit_request_batch,
)
from repro.harness.runner import ExecutionCacheReport
from repro.plans.jointree import JoinTree
from repro.plans.sampling import random_join_tree
from repro.workloads.generator import FilterSpec, RandomQuerySampler

from oracles.reference_executor import NODE, cumulative_charges, expected_result
from oracles.reference_kernels import sort_merge_pairs


# ------------------------------------------------------------------ helpers
def make_database(tiny_database: Database, *, exec_cache: bool) -> Database:
    """A fresh executor over the tiny fixture's immutable relations."""
    return Database(tiny_database.schema, tiny_database.relations, seed=7, exec_cache=exec_cache)


def production_pairs(left: np.ndarray, right: np.ndarray) -> kernels.PairSet:
    """Build side ``right`` counted into a join index, probed with ``left``, expanded late."""
    return kernels.expand_pairs(kernels.probe_join_index(kernels.build_join_index(right), left))


def assert_same_result(a, b) -> None:
    """Field-by-field ExecutionResult equality, latency compared exactly.

    ``cache`` is deliberately excluded: memoization observability differs
    across the grid (None / hit counts / batched flag) while the *result*
    may not.
    """
    assert a.latency == b.latency  # bit-for-bit, no tolerance
    assert a.timed_out == b.timed_out
    assert a.output_rows == b.output_rows
    assert a.nodes_executed == b.nodes_executed
    assert a.timeout == b.timeout
    assert a.breakdown == b.breakdown


# ------------------------------------------------------------------ kernel primitives
def assert_index_equals_sort_merge(left: np.ndarray, right: np.ndarray, *, dense: bool) -> None:
    """The counting index reproduces the sort-merge reference, array for array."""
    index = kernels.build_join_index(right)
    assert (index.counts_table is not None) == dense  # which path it took
    match = kernels.probe_join_index(index, left)
    ref_l, ref_r = sort_merge_pairs(left, right)
    assert match.total == len(ref_l) and match.num_left == len(left)
    pairs = kernels.expand_pairs(match)
    assert pairs.count == len(ref_l)
    np.testing.assert_array_equal(pairs.left_indices(), ref_l)
    np.testing.assert_array_equal(pairs.right_idx, ref_r)
    left_values, right_values = np.arange(len(left)) * 3, np.arange(len(right)) * 7
    np.testing.assert_array_equal(pairs.gather_left(left_values), left_values[ref_l])
    np.testing.assert_array_equal(pairs.gather_right(right_values), right_values[ref_r])
    order = index.order
    assert order.dtype == np.int64 and order is index.order  # sorted once
    np.testing.assert_array_equal(order, np.argsort(right, kind="stable"))


_KEY_ARRAYS = st.lists(st.integers(-40, 40), max_size=60)


class TestKernelPrimitives:
    @settings(max_examples=200, deadline=None)
    @given(_KEY_ARRAYS, _KEY_ARRAYS, st.sampled_from([np.int32, np.int64]),
           st.integers(-1000, 1000))
    def test_probe_equals_match_counts(self, left, right, dtype, shift):
        left = np.array(left, dtype=dtype) + dtype(shift)
        right = np.array(right, dtype=dtype) + dtype(shift)
        assert_index_equals_sort_merge(left, right, dense=len(right) > 0)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_probe_equals_match_counts_named_cases(self, rng, dtype):
        def keys(values):
            return np.asarray(values).astype(dtype)

        everywhere = keys(rng.integers(-300, 300, size=400))
        cases = {
            "negative keys, key_min != 0": (everywhere, keys(rng.integers(-200, -50, size=300))),
            "all-duplicate build side": (everywhere, keys(np.full(50, 17))),
            "all-distinct build side": (everywhere, keys(rng.permutation(200) - 100)),
            "empty left": (keys([]), keys(rng.integers(0, 9, size=20))),
            "probe keys below and above the build domain": (
                keys([-10**6, 4, 5, 6, 10**6, 5]), keys([5, 6, 5, 5])),
        }
        # Each boundary of the dtype ``order`` is sorted in: the last domain
        # of uint8 and of uint16 and the first one past them.
        for domain in (256, 257, 65536, 65537):
            build = keys(rng.integers(0, domain, size=max(400, domain // 4 + 1)) + 1000)
            build[:2] = 1000, 1000 + domain - 1
            probe = keys(rng.integers(-5, domain + 5, size=300) + 1000)
            cases[f"domain of exactly {domain}"] = (probe, build)
        for name, (left, right) in cases.items():
            assert_index_equals_sort_merge(left, right, dense=True)
        assert_index_equals_sort_merge(everywhere, keys([]), dense=False)  # empty right

    def test_probe_without_direct_table_falls_back_to_searchsorted(self, rng):
        # A sparse domain and a float key column take the searchsorted
        # fallback, and the index says so (no table).  The floor: a build side
        # of any size may count over a domain of DENSE_DOMAIN_FLOOR, no more.
        sparse = rng.integers(0, 10**9, size=200)
        few_over_wide = rng.permutation(60_000)[:10]
        floats = rng.integers(0, 50, size=300) / 4.0
        for build in (sparse, few_over_wide, floats):
            probe = np.concatenate([build[:50], build[:5], rng.permutation(build)[:20] + 1])
            assert_index_equals_sort_merge(probe, build, dense=False)
        at_floor = np.array([0, kernels.DENSE_DOMAIN_FLOOR - 1, 7])
        assert_index_equals_sort_merge(np.arange(10), at_floor, dense=True)
        assert_index_equals_sort_merge(np.arange(10), at_floor * 2, dense=False)
        # An integer index probed with float keys binary-searches as well.
        dense = kernels.build_join_index(np.array([3, 1, 3, 2]))
        match = kernels.probe_join_index(dense, np.array([3.0, 2.5, 1.0]))
        assert match.counts.tolist() == [2, 0, 1]
        assert kernels.expand_pairs(match).right_idx.tolist() == [0, 2, 1]

    def test_expand_fast_equals_reference(self, rng):
        """expand_pairs hits all three shapes (unique-all, unique-sparse,
        run concatenation) and must reproduce the reference expansion exactly."""
        cases = []
        for _ in range(15):
            domain = int(rng.integers(1, 60))
            cases.append((
                rng.integers(0, domain, size=int(rng.integers(0, 300))),
                rng.integers(0, domain, size=int(rng.integers(0, 300))),
            ))
        # Unique build side, full coverage: every probe row matches exactly once.
        perm = rng.permutation(80)
        cases.append((perm[:50], perm))
        # Unique build side, partial coverage: some probe rows miss.
        cases.append((rng.integers(0, 200, size=120), rng.permutation(100)))
        for left, right in cases:
            ref_l, ref_r = sort_merge_pairs(left, right)
            pairs = production_pairs(left, right)
            fast_l, fast_r = pairs.left_indices(), pairs.right_idx
            np.testing.assert_array_equal(ref_l, fast_l)
            np.testing.assert_array_equal(ref_r, fast_r)

    def test_expand_pairs_gathers_equal_reference(self, rng):
        """The factorized PairSet gathers reproduce the materialized expansion."""
        for _ in range(15):
            domain = int(rng.integers(1, 60))
            left = rng.integers(0, domain, size=int(rng.integers(0, 300)))
            right = rng.integers(0, domain, size=int(rng.integers(0, 200)))
            ref_l, ref_r = sort_merge_pairs(left, right)
            pairs = production_pairs(left, right)
            assert pairs.count == len(ref_l)
            np.testing.assert_array_equal(pairs.left_indices(), ref_l)
            np.testing.assert_array_equal(pairs.right_idx, ref_r)
            left_values = rng.integers(0, 1000, size=len(left))
            right_values = rng.integers(0, 1000, size=len(right))
            np.testing.assert_array_equal(pairs.gather_left(left_values), left_values[ref_l])
            np.testing.assert_array_equal(pairs.gather_right(right_values), right_values[ref_r])

    def test_deferred_pairs_equal_reference_in_any_read_order(self, rng):
        """Every shape of pair set (identity, unique-match, run concatenation,
        empty, cross product) gathers and indexes bit for bit like the
        reference expansion, whether ``right_idx`` is read before or after
        the gathers — and reads nothing until then."""
        perm = rng.permutation(80)
        cases = [
            (perm[:50], perm),  # identity: every probe row matches exactly once
            (rng.integers(0, 200, size=120), rng.permutation(100)),  # unique-match
            (rng.integers(0, 9, size=150), rng.integers(0, 9, size=90)),  # runs
            (np.arange(5), np.arange(5) + 10),  # empty
        ]
        for _ in range(10):
            domain = int(rng.integers(1, 40))
            cases.append((
                rng.integers(0, domain, size=int(rng.integers(0, 200))),
                rng.integers(0, domain, size=int(rng.integers(0, 200))),
            ))
        built = []
        for left, right in cases:
            built.append((
                partial(production_pairs, left, right), sort_merge_pairs(left, right),
                len(left), len(right),
            ))
        for n_left, n_right in [(7, 5), (1, 9), (6, 1), (0, 4), (3, 0)]:
            reference = (np.repeat(np.arange(n_left), n_right), np.tile(np.arange(n_right), n_left))
            built.append((
                partial(kernels.PairSet, n_left * n_right, cross=(n_left, n_right)),
                reference, n_left, n_right,
            ))
        for build, (ref_l, ref_r), n_left, n_right in built:
            left_values = rng.integers(0, 1000, size=n_left)
            right_values = rng.integers(0, 1000, size=n_right)
            for index_first in (True, False):
                pairs = build()
                assert pairs.count == len(ref_l)
                if pairs.count:
                    assert pairs._right_idx is None  # nothing expanded yet
                if index_first:
                    np.testing.assert_array_equal(pairs.right_idx, ref_r)
                np.testing.assert_array_equal(pairs.gather_left(left_values), left_values[ref_l])
                np.testing.assert_array_equal(pairs.gather_right(right_values), right_values[ref_r])
                np.testing.assert_array_equal(pairs.left_indices(), ref_l)
                np.testing.assert_array_equal(pairs.right_idx, ref_r)
                assert pairs.right_idx is pairs.right_idx  # expanded once

    def test_pair_order_is_left_major_right_stable(self):
        left = np.array([7, 7, 3])
        right = np.array([7, 3, 7, 7])
        pairs = production_pairs(left, right)
        for left_idx, right_idx in (
            sort_merge_pairs(left, right), (pairs.left_indices(), pairs.right_idx)
        ):
            # Ordered by left row; within a left row by original right position.
            assert left_idx.tolist() == [0, 0, 0, 1, 1, 1, 2]
            assert right_idx.tolist() == [0, 2, 3, 0, 2, 3, 1]

    def test_empty_sides(self):
        empty = np.array([], dtype=np.int64)
        keys = np.array([1, 2, 3])
        for left, right in [(empty, keys), (keys, empty), (empty, empty)]:
            match = kernels.probe_join_index(kernels.build_join_index(right), left)
            assert match.total == 0 and match.num_left == len(left)
            pairs = kernels.expand_pairs(match)
            assert pairs.count == len(pairs.left_indices()) == len(pairs.right_idx) == 0
        assert kernels.build_join_index(empty).num_keys == 0

    def test_fused_filter_equals_sequential(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 200))
            pairs = [
                (rng.integers(0, 4, size=n), rng.integers(0, 4, size=n))
                for _ in range(int(rng.integers(1, 4)))
            ]
            fused = kernels.fused_equality_filter(pairs)
            sequential = np.ones(n, dtype=bool)
            for lv, rv in pairs:
                sequential &= lv == rv
            np.testing.assert_array_equal(fused, sequential)
        assert kernels.fused_equality_filter([]) is None

    def test_predicate_key_is_content_based(self):
        assert kernels.predicate_key("c", "=", 3) == kernels.predicate_key("c", "=", 3)
        assert kernels.predicate_key("c", "=", 3) != kernels.predicate_key("c", "=", 4)
        assert kernels.predicate_key("c", "=", 3) != kernels.predicate_key("c", ">=", 3)
        a = kernels.predicate_key("c", "in", np.array([1, 2]))
        b = kernels.predicate_key("c", "in", np.array([1, 2]))
        c = kernels.predicate_key("c", "in", np.array([1, 3]))
        assert a == b != c
        assert kernels.predicate_key("c", "in", [2, 1]) == kernels.predicate_key("c", "in", (1, 2))
        hash(kernels.predicate_key("c", "in", {"x": 1}))  # unhashable value -> repr key


# ------------------------------------------------------------------ executor joins
def check_joins_against_sort_merge(executor) -> list[int]:
    """Make every join ``executor`` runs compare its pairs with the sort-merge reference.

    Returns the list the wrapper appends each checked join's predicate count to.
    """
    original = executor._match
    checked: list[int] = []

    def checked_match(query, left, right, predicates, state):
        pairs = original(query, left, right, predicates, state)

        def values(side, alias, column):
            return executor._values_for(query, side, alias, column)

        la, lc, ra, rc = executor._orient(predicates[0], left)
        ref_l, ref_r = sort_merge_pairs(values(left, la, lc), values(right, ra, rc))
        for predicate in predicates[1:]:
            la, lc, ra, rc = executor._orient(predicate, left)
            keep = values(left, la, lc)[ref_l] == values(right, ra, rc)[ref_r]
            ref_l, ref_r = ref_l[keep], ref_r[keep]
        np.testing.assert_array_equal(pairs.left_indices(), ref_l)
        np.testing.assert_array_equal(pairs.right_idx, ref_r)
        checked.append(len(predicates))
        return pairs

    executor._match = checked_match
    return checked


#: Filterable columns of the tiny star schema, for ``RandomQuerySampler``.
TINY_FILTER_SPECS = {
    "orders": FilterSpec(eq_columns=["quantity"], range_columns=["order_date"]),
    "customer": FilterSpec(eq_columns=["region", "segment"]),
    "product": FilterSpec(eq_columns=["category"], range_columns=["price"]),
    "shipment": FilterSpec(eq_columns=["carrier"], range_columns=["ship_date"]),
}


class TestKernelExecutorEquivalence:
    def test_randomized_queries_and_plans(self, tiny_database):
        """Random queries over the full tiny schema — self-joins, ``=``/``in``/range
        filters, 2-5 aliases — under random plans: every join's pairs are the
        sort-merge reference's, and each query counts the same rows under all
        of its plans."""
        sampler = RandomQuerySampler(
            tiny_database.schema, max_aliases=2, relations=tiny_database.relations,
            filter_specs=TINY_FILTER_SPECS, min_tables=2, max_tables=5,
        )
        executor = make_database(tiny_database, exec_cache=False).executor
        checked = check_joins_against_sort_merge(executor)
        rng = np.random.default_rng(11)
        for query in sampler.sample(12, seed=11):
            results = [
                executor.execute(query, random_join_tree(query, rng), timeout=600.0)
                for _ in range(3)
            ]
            assert not any(result.timed_out for result in results)
            assert len({result.output_rows for result in results}) == 1, query.name
        assert len(checked) > 36

    def test_charge_event_streams_identical(self, tiny_database, tiny_query, rng):
        """With caching on, the recorded outcome logs (the full charge-event
        streams, censored ones included) match event for event whether the
        plans ran one at a time or as one batch."""
        plans = [random_join_tree(tiny_query, rng) for _ in range(5)]
        probe = make_database(tiny_database, exec_cache=False)
        base = [probe.execute(tiny_query, plan, timeout=600.0) for plan in plans]
        timeouts = [600.0, base[1].latency * 0.3, None, base[3].latency, base[4].latency * 0.5]
        sequential = make_database(tiny_database, exec_cache=True)
        results = [
            sequential.execute(tiny_query, plan, timeout=timeout)
            for plan, timeout in zip(plans, timeouts)
        ]
        assert any(result.timed_out for result in results)
        batch = make_database(tiny_database, exec_cache=True)
        batch.execute_batch(tiny_query, plans, timeouts)
        logs = sequential.execution_cache.export_outcomes()
        assert len(logs) == len(plans)
        assert logs == batch.execution_cache.export_outcomes()

    def test_censoring_identical_with_cache(self, tiny_database, tiny_query, rng):
        """Just below, at and just above every cumulative charge of a plan's
        recorded log, a fresh execution and a cached replay both censor where
        the reference accumulation of that log says they must."""
        plan = random_join_tree(tiny_query, rng)
        cached = make_database(tiny_database, exec_cache=True)
        fresh = make_database(tiny_database, exec_cache=False)
        complete = cached.execute(tiny_query, plan, timeout=None)
        log = cached.execution_cache.lookup_outcome(plan_fingerprint(tiny_query, plan), None)
        events = [
            (NODE if category == NODE_EVENT else category, cost) for category, cost in log.events
        ]
        timeouts = [None] + [
            timeout
            for point in cumulative_charges(events)
            for timeout in (
                math.nextafter(point, -math.inf), point, math.nextafter(point, math.inf)
            )
        ]
        censored = 0
        for timeout in timeouts:
            want = expected_result(events, complete.output_rows, timeout)
            censored += want.timed_out
            for database in (fresh, cached):
                got = database.execute(tiny_query, plan, timeout=timeout)
                assert (got.latency, got.timed_out, got.output_rows, got.nodes_executed) == (
                    want.latency, want.timed_out, want.output_rows, want.nodes_executed
                ), timeout
                assert got.breakdown == want.breakdown, timeout
        assert censored >= len(timeouts) // 3  # at least every "just below"

    def test_work_cap_abort_identical(self, tiny_database, tiny_query, monkeypatch):
        """A cross join blowing the (monkeypatched) materialization cap censors
        at the identical point freshly executed, recorded, replayed and
        batched, and raises without a timeout, replayed or not."""
        monkeypatch.setattr(executor_module, "MAX_MATERIALIZED_ROWS", 10_000)
        # product x shipment first: no join predicate between them -> cross join.
        plan = JoinTree.left_deep(["product#1", "shipment#1", "orders#1", "customer#1"])
        fresh = make_database(tiny_database, exec_cache=False)
        cached = make_database(tiny_database, exec_cache=True)
        result = fresh.execute(tiny_query, plan, timeout=600.0)
        assert result.timed_out  # the cap converts to censoring under a timeout
        recorded = cached.execute(tiny_query, plan, timeout=600.0)
        replayed = cached.execute(tiny_query, plan, timeout=600.0)
        assert replayed.cache.outcome_hit
        (batched,) = make_database(tiny_database, exec_cache=False).execute_batch(
            tiny_query, [plan], 600.0
        )
        for other in (recorded, replayed, batched):
            assert_same_result(result, other)
        for database in (fresh, cached):
            with pytest.raises(ExecutionError):
                database.execute(tiny_query, plan, timeout=None)

    def test_match_indices_identical(self, tiny_database, tiny_query, rng):
        """The pair arrays of every join the executor runs (not just their
        counts) are the sort-merge reference's, residual predicates included."""
        executor = make_database(tiny_database, exec_cache=False).executor
        checked = check_joins_against_sort_merge(executor)
        # orders |x| product on two predicates: the second is a residual filter.
        two_predicates = Query(
            "tiny_q1_residual", tiny_query.table_refs,
            [*tiny_query.join_predicates,
             JoinPredicate("orders#1", "quantity", "product#1", "category")],
            tiny_query.filters,
        )
        for query in (tiny_query, two_predicates):
            for _ in range(4):
                executor.execute(query, random_join_tree(query, rng), timeout=600.0)
        assert checked and max(checked) == 2

    def test_unread_intermediate_reports_its_final_size(self, tiny_database, tiny_query):
        """A join output is sized from its row count: ``intermediate_nbytes``
        reads the same before any alias is gathered and after all are."""
        from repro.db.executor import _ExecutionState, _Gather
        from repro.db.plan_cache import intermediate_nbytes

        database = make_database(tiny_database, exec_cache=False)
        plan = JoinTree.left_deep(["orders#1", "customer#1", "product#1", "shipment#1"])
        executor = database.executor
        state = _ExecutionState(timeout=None)
        join = plan.left  # (orders x customer) x product: orders#1 still joins shipment#1
        intermediate = executor._execute_node(tiny_query, join, state, None)
        raw = list(intermediate.positions.values())
        assert raw and all(isinstance(value, _Gather) for value in raw)  # nothing gathered
        before = intermediate_nbytes(intermediate)
        assert before == intermediate.count * 8 * len(raw) > 0
        gathered = [intermediate.positions[alias] for alias in intermediate.positions]
        assert all(type(value) is np.ndarray for value in intermediate.positions.values())
        assert intermediate_nbytes(intermediate) == before == sum(a.nbytes for a in gathered)


# ------------------------------------------------------------------ relation-side caches
class TestRelationCaches:
    def test_select_cached_matches_filter_masks(self, tiny_database, rng):
        relation = tiny_database.relations["orders"]
        for _ in range(8):
            predicates = []
            if rng.random() < 0.8:
                predicates.append(("quantity", ">=", int(rng.integers(0, 20))))
            if rng.random() < 0.5:
                predicates.append(("order_date", "<=", int(rng.integers(0, 1000))))
            mask = np.ones(relation.num_rows, dtype=bool)
            for predicate in predicates:
                mask &= relation.filter_mask(*predicate)
            cached, key = relation.select_cached(iter(predicates))
            np.testing.assert_array_equal(np.flatnonzero(mask), cached)
            again, key2 = relation.select_cached(iter(predicates))
            assert again is cached and key == key2  # memoized, not recomputed

    def test_pickle_drops_kernel_caches(self, tiny_database, tiny_query, rng):
        database = make_database(tiny_database, exec_cache=False)
        plan = random_join_tree(tiny_query, rng)
        warm = database.execute(tiny_query, plan, timeout=600.0)
        replica: Database = pickle.loads(pickle.dumps(database))
        for relation in replica.relations.values():
            assert not relation._mask_cache and not relation._index_cache
        assert_same_result(warm, replica.execute(tiny_query, plan, timeout=600.0))


# ------------------------------------------------------------------ batch-vs-sequential
class TestBatchEquivalence:
    def _plans(self, query, rng, n=6):
        plans = [random_join_tree(query, rng) for _ in range(n)]
        plans[-1] = plans[0]  # duplicate plan inside the batch
        return plans

    @pytest.mark.parametrize("exec_cache", [True, False])
    def test_batch_matches_sequential(self, tiny_database, tiny_query, exec_cache):
        rng = np.random.default_rng(23)
        plans = self._plans(tiny_query, rng)
        sequential_db = make_database(tiny_database, exec_cache=exec_cache)
        batch_db = make_database(tiny_database, exec_cache=exec_cache)
        base = [sequential_db.execute(tiny_query, plan, timeout=600.0) for plan in plans]
        # Per-plan timeouts: censor some plans, complete others, one uncapped.
        timeouts = [600.0, base[1].latency * 0.3, None, base[3].latency, 600.0, 0.75]
        sequential_db = make_database(tiny_database, exec_cache=exec_cache)
        sequential = [
            sequential_db.execute(tiny_query, plan, timeout=timeout)
            for plan, timeout in zip(plans, timeouts)
        ]
        batched = batch_db.execute_batch(tiny_query, plans, timeouts)
        assert len(batched) == len(sequential)
        for seq, bat in zip(sequential, batched):
            assert_same_result(seq, bat)
            assert bat.cache is not None and bat.cache.batched

    def test_batch_dedups_shared_subtrees(self, tiny_database, tiny_query):
        """Sibling plans sharing a join prefix replay it instead of re-executing."""
        database = make_database(tiny_database, exec_cache=False)
        a = JoinTree.left_deep(["orders#1", "customer#1", "product#1", "shipment#1"])
        # b shares the (orders, customer) prefix with a, then diverges.
        b = JoinTree.left_deep(["orders#1", "customer#1", "shipment#1", "product#1"])
        results = database.execute_batch(tiny_query, [a, a, b], 600.0)
        # Plan 2 is a duplicate: replayed wholesale from the batch's outcome dedup.
        assert results[1].cache.outcome_hit
        # Plan 3 shares the (orders, customer) subtree with plan 1.
        assert results[2].cache.subplan_hits > 0
        assert_same_result(results[0], results[1])

    def test_batch_work_cap_per_plan(self, tiny_database, tiny_query, monkeypatch):
        """A work-capped plan censors inside a batch exactly as alone, and its
        incomplete subtrees don't poison the sibling that completes."""
        monkeypatch.setattr(executor_module, "MAX_MATERIALIZED_ROWS", 10_000)
        capped = JoinTree.left_deep(["product#1", "shipment#1", "orders#1", "customer#1"])
        fine = JoinTree.left_deep(["orders#1", "customer#1", "product#1", "shipment#1"])
        solo_db = make_database(tiny_database, exec_cache=False)
        solo = [
            solo_db.execute(tiny_query, capped, timeout=600.0),
            solo_db.execute(tiny_query, fine, timeout=600.0),
        ]
        batch_db = make_database(tiny_database, exec_cache=False)
        batched = batch_db.execute_batch(tiny_query, [capped, fine], 600.0)
        assert batched[0].timed_out and not batched[1].timed_out
        for s, b in zip(solo, batched):
            assert_same_result(s, b)

    def test_batch_timeout_validation(self, tiny_database, tiny_query, rng):
        database = make_database(tiny_database, exec_cache=False)
        plan = random_join_tree(tiny_query, rng)
        with pytest.raises(ExecutionError):
            database.execute_batch(tiny_query, [plan, plan], [600.0])
        assert database.execute_batch(tiny_query, [], None) == []

    def test_run_batch_scalar_timeout_broadcasts(self, tiny_database, tiny_query, rng):
        database = make_database(tiny_database, exec_cache=False)
        plans = [random_join_tree(tiny_query, rng) for _ in range(3)]
        scalar = database.execute_batch(tiny_query, plans, 600.0)
        explicit = make_database(tiny_database, exec_cache=False).execute_batch(
            tiny_query, plans, [600.0, 600.0, 600.0]
        )
        for s, e in zip(scalar, explicit):
            assert_same_result(s, e)


# ------------------------------------------------------------------ backend batch paths
class TestBackendBatchPaths:
    def _requests(self, query, plans, timeout=600.0):
        return [
            ExecutionRequest(query=query, plan=plan, timeout=timeout, proposal_id=i)
            for i, plan in enumerate(plans)
        ]

    def test_inline_submit_batch_matches_sequential(self, tiny_database, tiny_query, rng):
        plans = [random_join_tree(tiny_query, rng) for _ in range(4)]
        sequential_db = make_database(tiny_database, exec_cache=False)
        expected = [
            ExecutionOutcome.from_execution(
                sequential_db.execute(tiny_query, plan, timeout=600.0), 600.0
            )
            for plan in plans
        ]
        backend = InlineBackend(make_database(tiny_database, exec_cache=False))
        futures = submit_request_batch(backend, self._requests(tiny_query, plans))
        outcomes = [future.result() for future in futures]
        for got, want in zip(outcomes, expected):
            assert got.latency == want.latency
            assert got.timed_out == want.timed_out
            assert got.cache is not None and got.cache.batched

    def test_thread_submit_batch_matches_sequential(self, tiny_database, tiny_query, rng):
        plans = [random_join_tree(tiny_query, rng) for _ in range(4)]
        sequential_db = make_database(tiny_database, exec_cache=False)
        expected = [sequential_db.execute(tiny_query, plan, timeout=600.0) for plan in plans]
        backend = ThreadPoolBackend(
            make_database(tiny_database, exec_cache=False), max_workers=2
        )
        try:
            futures = backend.submit_batch(self._requests(tiny_query, plans))
            outcomes = [future.result() for future in futures]
        finally:
            backend.close()
        for got, want in zip(outcomes, expected):
            assert got.latency == want.latency and got.timed_out == want.timed_out

    def test_process_submit_batch_matches_sequential(self, tiny_database, tiny_query, rng):
        plans = [random_join_tree(tiny_query, rng) for _ in range(3)]
        sequential_db = make_database(tiny_database, exec_cache=False)
        expected = [sequential_db.execute(tiny_query, plan, timeout=600.0) for plan in plans]
        backend = ProcessPoolBackend(
            make_database(tiny_database, exec_cache=False),
            max_workers=1,
            queries=[tiny_query],
            warmup=False,
        )
        try:
            futures = backend.submit_batch(self._requests(tiny_query, plans))
            outcomes = [future.result() for future in futures]
        finally:
            backend.close()
        for got, want in zip(outcomes, expected):
            assert got.latency == want.latency and got.timed_out == want.timed_out

    def test_perform_batch_falls_back_for_mixed_queries(
        self, tiny_database, tiny_query, tiny_three_table_query, rng
    ):
        """Different queries in one submission execute per-request (no grouping)."""
        database = make_database(tiny_database, exec_cache=False)
        requests = [
            ExecutionRequest(
                query=tiny_query, plan=random_join_tree(tiny_query, rng), timeout=600.0
            ),
            ExecutionRequest(
                query=tiny_three_table_query,
                plan=random_join_tree(tiny_three_table_query, rng),
                timeout=600.0,
            ),
        ]
        outcomes = perform_batch(database, requests)
        assert len(outcomes) == 2
        # Per-request fallback: no batch flag on the stats.
        for outcome in outcomes:
            assert outcome.cache is None or not outcome.cache.batched

    def test_perform_batch_skips_databases_without_batch_support(
        self, tiny_database, tiny_query, rng
    ):
        """Duck-typed wrappers relying on __getattr__ must not be treated as
        batch-capable (delegation would bypass their execute override)."""

        class Wrapper:
            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            def execute(self, query, plan, timeout=None):
                self.calls += 1
                return self._inner.execute(query, plan, timeout=timeout)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        wrapper = Wrapper(make_database(tiny_database, exec_cache=False))
        plans = [random_join_tree(tiny_query, rng) for _ in range(2)]
        outcomes = perform_batch(
            wrapper,
            [ExecutionRequest(query=tiny_query, plan=plan, timeout=600.0) for plan in plans],
        )
        assert wrapper.calls == 2  # went through the wrapper's execute, per request
        assert len(outcomes) == 2


# ------------------------------------------------------------------ session bookkeeping
class TestSessionBookkeeping:
    def test_cache_report_counts_batched_executions(self):
        report = ExecutionCacheReport()
        report.note(CacheStats(batched=True))
        report.note(CacheStats(batched=False))
        report.note(None)
        assert report.executions == 3
        assert report.batched_executions == 1
        assert report.summary()["batched_executions"] == 1

    def test_cache_stats_batched_defaults_off(self):
        assert CacheStats().batched is False
