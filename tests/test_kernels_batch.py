"""Property tests: columnar kernels and batch execution are bit-for-bit safe.

Two equivalence claims guard the executor hot path (see
:mod:`repro.db.kernels` for the argument):

* **kernels on == kernels off** — for randomized queries and plans, the
  kernel-backed executor produces the identical ``ExecutionResult`` (latency
  to the last bit, censoring, node counts, cost breakdowns) and the identical
  charge-event stream as the reference path, including timeout censoring and
  work-cap aborts;
* **batch == sequential** — ``Executor.run_batch`` reconstructs every plan's
  result by replaying per-plan charge streams over once-executed shared
  subtrees, so a batch is indistinguishable from calling ``execute`` per
  plan, including per-plan timeouts, censoring, work-cap aborts and
  duplicate plans.

The grid is exercised kernels on/off x batch on/off x cache on/off, plus the
process-pool worker batch path.
"""

from __future__ import annotations

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
from repro.db.plan_cache import CacheStats
from repro.db.query import FilterPredicate, JoinPredicate, Query, TableRef
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


# ------------------------------------------------------------------ helpers
def make_database(tiny_database: Database, *, use_kernels: bool, exec_cache: bool) -> Database:
    """A fresh executor over the tiny fixture's immutable relations."""
    return Database(
        tiny_database.schema,
        tiny_database.relations,
        seed=7,
        exec_cache=exec_cache,
        use_kernels=use_kernels,
    )


#: (alias, column, candidate ops, value range) pools for random filters.
_FILTER_POOL = [
    ("orders#1", "quantity", ("=", ">=", "<="), 20),
    ("orders#1", "order_date", (">=", "<="), 1000),
    ("customer#1", "region", ("=", ">="), 8),
    ("customer#1", "segment", ("=",), 4),
    ("product#1", "category", ("=", "<="), 10),
    ("product#1", "price", (">=", "<="), 50),
    ("shipment#1", "carrier", ("=",), 5),
    ("shipment#1", "ship_date", (">=", "<="), 1000),
]


def random_query(rng: np.random.Generator, name: str) -> Query:
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
    pool = [entry for entry in _FILTER_POOL if entry[0] in aliases]
    filters = []
    for pick in rng.choice(len(pool), size=min(len(pool), int(rng.integers(0, 4))), replace=False):
        alias, column, ops, domain = pool[int(pick)]
        op = ops[int(rng.integers(0, len(ops)))]
        filters.append(FilterPredicate(alias, column, op, int(rng.integers(0, domain))))
    return Query(name=name, table_refs=refs, join_predicates=joins, filters=filters)


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


def timeout_grid(latency: float) -> list:
    """Timeouts that exercise completion, near-miss censoring and deep censoring."""
    return [None, latency * 2.0, latency, latency * 0.5, latency * 0.05]


# ------------------------------------------------------------------ kernel primitives
def assert_index_equals_sort_merge(left: np.ndarray, right: np.ndarray, *, dense: bool) -> None:
    """The counting index reproduces the seed's sort-merge, array for array."""
    index = kernels.build_join_index(right)
    assert (index.counts_table is not None) == dense  # which path it took
    match = kernels.probe_join_index(index, left)
    ref_l, ref_r = kernels.expand_matches(kernels.match_counts(left, right))
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
            match = kernels.match_counts(left, right)
            ref_l, ref_r = kernels.expand_matches(match)
            pairs = kernels.expand_pairs(match)
            fast_l, fast_r = pairs.left_indices(), pairs.right_idx
            np.testing.assert_array_equal(ref_l, fast_l)
            np.testing.assert_array_equal(ref_r, fast_r)

    def test_expand_pairs_gathers_equal_reference(self, rng):
        """The factorized PairSet gathers reproduce the materialized expansion."""
        for _ in range(15):
            domain = int(rng.integers(1, 60))
            left = rng.integers(0, domain, size=int(rng.integers(0, 300)))
            right = rng.integers(0, domain, size=int(rng.integers(0, 200)))
            match = kernels.match_counts(left, right)
            ref_l, ref_r = kernels.expand_matches(match)
            pairs = kernels.expand_pairs(match)
            assert pairs.count == len(ref_l)
            np.testing.assert_array_equal(pairs.left_indices(), ref_l)
            np.testing.assert_array_equal(pairs.right_idx, ref_r)
            left_values = rng.integers(0, 1000, size=match.num_left)
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
            match = kernels.match_counts(left, right)
            built.append((
                partial(kernels.expand_pairs, match), kernels.expand_matches(match),
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
        left_idx, right_idx = kernels.expand_matches(kernels.match_counts(left, right))
        # Ordered by left row; within a left row by original right position.
        assert left_idx.tolist() == [0, 0, 0, 1, 1, 1, 2]
        assert right_idx.tolist() == [0, 2, 3, 0, 2, 3, 1]

    def test_empty_sides(self):
        empty = np.array([], dtype=np.int64)
        keys = np.array([1, 2, 3])
        for left, right in [(empty, keys), (keys, empty), (empty, empty)]:
            match = kernels.match_counts(left, right)
            assert match.total == 0 and match.num_left == len(left)
            left_idx, right_idx = kernels.expand_matches(match)
            assert len(left_idx) == 0 and len(right_idx) == 0
        assert kernels.build_join_index(empty).num_keys == 0
        probe = kernels.probe_join_index(kernels.build_join_index(empty), keys)
        assert probe.total == 0 and probe.num_left == 3

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


# ------------------------------------------------------------------ kernel-vs-reference execution
class TestKernelExecutorEquivalence:
    def test_randomized_queries_and_plans(self, tiny_database):
        rng = np.random.default_rng(11)
        reference = make_database(tiny_database, use_kernels=False, exec_cache=False)
        kernel = make_database(tiny_database, use_kernels=True, exec_cache=False)
        for case in range(12):
            query = random_query(rng, f"prop_q{case}")
            for _ in range(3):
                plan = random_join_tree(query, rng)
                base = reference.execute(query, plan, timeout=None)
                for timeout in timeout_grid(base.latency):
                    assert_same_result(
                        reference.execute(query, plan, timeout=timeout),
                        kernel.execute(query, plan, timeout=timeout),
                    )

    def test_charge_event_streams_identical(self, tiny_database, tiny_query, rng):
        """With caching on, the recorded outcome logs (the full charge-event
        streams) match event-for-event between the kernel and reference paths."""
        reference = make_database(tiny_database, use_kernels=False, exec_cache=True)
        kernel = make_database(tiny_database, use_kernels=True, exec_cache=True)
        for _ in range(4):
            plan = random_join_tree(tiny_query, rng)
            assert_same_result(
                reference.execute(tiny_query, plan, timeout=600.0),
                kernel.execute(tiny_query, plan, timeout=600.0),
            )
        assert reference.execution_cache.export_outcomes() == (
            kernel.execution_cache.export_outcomes()
        )

    def test_censoring_identical_with_cache(self, tiny_database, tiny_query, rng):
        reference = make_database(tiny_database, use_kernels=False, exec_cache=True)
        kernel = make_database(tiny_database, use_kernels=True, exec_cache=True)
        plan = random_join_tree(tiny_query, rng)
        latency = reference.execute(tiny_query, plan, timeout=None).latency
        for timeout in timeout_grid(latency):
            assert_same_result(
                reference.execute(tiny_query, plan, timeout=timeout),
                kernel.execute(tiny_query, plan, timeout=timeout),
            )

    def test_work_cap_abort_identical(self, tiny_database, tiny_query, monkeypatch):
        """A cross join blowing the (monkeypatched) materialization cap censors
        at the identical point with kernels on or off, and raises without a
        timeout on both paths."""
        monkeypatch.setattr(executor_module, "MAX_MATERIALIZED_ROWS", 10_000)
        # product x shipment first: no join predicate between them -> cross join.
        plan = JoinTree.left_deep(["product#1", "shipment#1", "orders#1", "customer#1"])
        reference = make_database(tiny_database, use_kernels=False, exec_cache=False)
        kernel = make_database(tiny_database, use_kernels=True, exec_cache=False)
        ref_result = reference.execute(tiny_query, plan, timeout=600.0)
        assert ref_result.timed_out  # the cap converts to censoring under a timeout
        assert_same_result(ref_result, kernel.execute(tiny_query, plan, timeout=600.0))
        with pytest.raises(ExecutionError):
            reference.execute(tiny_query, plan, timeout=None)
        with pytest.raises(ExecutionError):
            kernel.execute(tiny_query, plan, timeout=None)

    def test_match_indices_identical(self, tiny_database, tiny_query, rng):
        """The raw match index arrays (not just counts) agree pairwise."""
        reference = make_database(tiny_database, use_kernels=False, exec_cache=False)
        kernel = make_database(tiny_database, use_kernels=True, exec_cache=False)
        captured: dict[str, list] = {"ref": [], "ker": []}

        def capture(executor, bucket):
            original = executor._match

            def wrapper(query, left, right, predicates, state):
                pair = original(query, left, right, predicates, state)
                bucket.append((pair.left_indices().copy(), pair.right_idx.copy()))
                return pair

            return wrapper

        reference.executor._match = capture(reference.executor, captured["ref"])
        kernel.executor._match = capture(kernel.executor, captured["ker"])
        plan = random_join_tree(tiny_query, rng)
        reference.execute(tiny_query, plan, timeout=600.0)
        kernel.execute(tiny_query, plan, timeout=600.0)
        assert len(captured["ref"]) == len(captured["ker"]) > 0
        for (rl, rr), (kl, kr) in zip(captured["ref"], captured["ker"]):
            np.testing.assert_array_equal(rl, kl)
            np.testing.assert_array_equal(rr, kr)


    def test_unread_intermediate_reports_its_final_size(self, tiny_database, tiny_query):
        """A join output is sized from its row count: ``intermediate_nbytes``
        reads the same before any alias is gathered and after all are."""
        from repro.db.executor import _ExecutionState, _Gather
        from repro.db.plan_cache import intermediate_nbytes

        database = make_database(tiny_database, use_kernels=True, exec_cache=False)
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
    def test_select_cached_matches_select(self, tiny_database, rng):
        relation = tiny_database.relations["orders"]
        for _ in range(8):
            predicates = []
            if rng.random() < 0.8:
                predicates.append(("quantity", ">=", int(rng.integers(0, 20))))
            if rng.random() < 0.5:
                predicates.append(("order_date", "<=", int(rng.integers(0, 1000))))
            plain = relation.select(iter(predicates))
            cached, key = relation.select_cached(iter(predicates))
            np.testing.assert_array_equal(plain, cached)
            again, key2 = relation.select_cached(iter(predicates))
            assert again is cached and key == key2  # memoized, not recomputed

    def test_pickle_drops_kernel_caches(self, tiny_database, tiny_query, rng):
        database = make_database(tiny_database, use_kernels=True, exec_cache=False)
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

    @pytest.mark.parametrize("use_kernels", [True, False])
    @pytest.mark.parametrize("exec_cache", [True, False])
    def test_batch_matches_sequential(self, tiny_database, tiny_query, use_kernels, exec_cache):
        rng = np.random.default_rng(23)
        plans = self._plans(tiny_query, rng)
        sequential_db = make_database(
            tiny_database, use_kernels=use_kernels, exec_cache=exec_cache
        )
        batch_db = make_database(tiny_database, use_kernels=use_kernels, exec_cache=exec_cache)
        base = [sequential_db.execute(tiny_query, plan, timeout=600.0) for plan in plans]
        # Per-plan timeouts: censor some plans, complete others, one uncapped.
        timeouts = [600.0, base[1].latency * 0.3, None, base[3].latency, 600.0, 0.75]
        sequential_db = make_database(
            tiny_database, use_kernels=use_kernels, exec_cache=exec_cache
        )
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
        database = make_database(tiny_database, use_kernels=True, exec_cache=False)
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
        solo_db = make_database(tiny_database, use_kernels=True, exec_cache=False)
        solo = [
            solo_db.execute(tiny_query, capped, timeout=600.0),
            solo_db.execute(tiny_query, fine, timeout=600.0),
        ]
        batch_db = make_database(tiny_database, use_kernels=True, exec_cache=False)
        batched = batch_db.execute_batch(tiny_query, [capped, fine], 600.0)
        assert batched[0].timed_out and not batched[1].timed_out
        for s, b in zip(solo, batched):
            assert_same_result(s, b)

    def test_batch_timeout_validation(self, tiny_database, tiny_query, rng):
        database = make_database(tiny_database, use_kernels=True, exec_cache=False)
        plan = random_join_tree(tiny_query, rng)
        with pytest.raises(ExecutionError):
            database.execute_batch(tiny_query, [plan, plan], [600.0])
        assert database.execute_batch(tiny_query, [], None) == []

    def test_run_batch_scalar_timeout_broadcasts(self, tiny_database, tiny_query, rng):
        database = make_database(tiny_database, use_kernels=True, exec_cache=False)
        plans = [random_join_tree(tiny_query, rng) for _ in range(3)]
        scalar = database.execute_batch(tiny_query, plans, 600.0)
        explicit = make_database(
            tiny_database, use_kernels=True, exec_cache=False
        ).execute_batch(tiny_query, plans, [600.0, 600.0, 600.0])
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
        sequential_db = make_database(tiny_database, use_kernels=True, exec_cache=False)
        expected = [
            ExecutionOutcome.from_execution(
                sequential_db.execute(tiny_query, plan, timeout=600.0), 600.0
            )
            for plan in plans
        ]
        backend = InlineBackend(make_database(tiny_database, use_kernels=True, exec_cache=False))
        futures = submit_request_batch(backend, self._requests(tiny_query, plans))
        outcomes = [future.result() for future in futures]
        for got, want in zip(outcomes, expected):
            assert got.latency == want.latency
            assert got.timed_out == want.timed_out
            assert got.cache is not None and got.cache.batched

    def test_thread_submit_batch_matches_sequential(self, tiny_database, tiny_query, rng):
        plans = [random_join_tree(tiny_query, rng) for _ in range(4)]
        sequential_db = make_database(tiny_database, use_kernels=True, exec_cache=False)
        expected = [sequential_db.execute(tiny_query, plan, timeout=600.0) for plan in plans]
        backend = ThreadPoolBackend(
            make_database(tiny_database, use_kernels=True, exec_cache=False), max_workers=2
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
        sequential_db = make_database(tiny_database, use_kernels=True, exec_cache=False)
        expected = [sequential_db.execute(tiny_query, plan, timeout=600.0) for plan in plans]
        backend = ProcessPoolBackend(
            make_database(tiny_database, use_kernels=True, exec_cache=False),
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
        database = make_database(tiny_database, use_kernels=True, exec_cache=False)
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

        wrapper = Wrapper(make_database(tiny_database, use_kernels=True, exec_cache=False))
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
