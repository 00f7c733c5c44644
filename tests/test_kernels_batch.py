"""Property tests: join kernels and batch execution are bit-for-bit safe.

Two equivalence claims guard the executor hot path (see
:mod:`repro.db.kernels` for the argument):

* **kernels == sort-merge** — the counting join index, its probe and the
  late pair expansion reproduce the sort-merge reference of
  ``tests/oracles/reference_kernels.py`` array for array, ``match_all``
  reproduces its expand-then-filter multi-predicate join, and so do the join
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
import tracemalloc
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
from repro.workloads import build_job_workload

from oracles.reference_kernels import (
    filtered_pairs,
    fused_equality_filter,
    match_counts,
    sort_merge_pairs,
)


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

#: Key dtypes of :func:`multi_predicate_cases`, int64 (the executor's) three
#: times over; uint64 is drawn alone, since numpy compares it with signed
#: keys exactly but sorts them together as float64.
_KEY_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.int64, np.int64,
               np.uint8, np.uint16, np.uint32, np.float32, np.float64]
#: Candidate key values: small ones (matches, duplicates), wide ones (sparse
#: and 2^62-wide domains), the float ones where a dtype holds them.
_KEY_VALUES = [0, 1, 2, 3, -1, 300, 9000, 70_000, 2**40, -2**63, 2**63 - 1, 2**64 - 1,
               np.nan, -0.0, 0.5]


def _holds(dtype, value) -> bool:
    """Whether ``dtype`` holds ``value`` exactly."""
    if np.issubdtype(dtype, np.floating):
        return not isinstance(value, int) or abs(value) <= 2**24
    if isinstance(value, float):
        return value == 0.0
    info = np.iinfo(dtype)
    return info.min <= value <= info.max


@st.composite
def multi_predicate_cases(draw):
    """Two sides of 0-30 rows, 1-3 key columns each, and 1-6 predicates between them.

    Each column draws from a pool of 1-4 values (a pool of one: all-duplicate
    keys) in a dtype of its own, or every column is uint64.  A quarter of the
    cases pair distinct columns (a composite key, whose running key
    re-densifies when it outgrows int64), half share a column on one side;
    up to three more predicates may merge those, repeat one or stand alone.
    """
    uint64 = draw(st.booleans()) and draw(st.booleans())
    shape = draw(st.sampled_from(["composite", "shared left", "shared right", "random"]))

    def side(rows: int, least: int) -> dict:
        columns = {}
        for number in range(draw(st.integers(least, 3))):
            dtype = np.uint64 if uint64 else draw(st.sampled_from(_KEY_DTYPES))
            pool = draw(st.lists(
                st.sampled_from([v for v in _KEY_VALUES if _holds(dtype, v)]),
                min_size=1, max_size=4,
            ))
            picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows, max_size=rows))
            columns[number] = np.array([pool[i] for i in picks], dtype=object).astype(dtype)
        return columns

    left = side(draw(st.integers(0, 30)), 2 if shape in ("composite", "shared right") else 1)
    right = side(draw(st.integers(0, 30)), 2 if shape in ("composite", "shared left") else 1)
    predicates = {
        "composite": list(zip(left, right)),
        "shared left": [(0, 0), (0, 1)],
        "shared right": [(0, 0), (1, 0)],
        "random": [],
    }[shape]
    predicates += draw(st.lists(
        st.tuples(st.sampled_from(sorted(left)), st.sampled_from(sorted(right))),
        min_size=0 if predicates else 1, max_size=3,
    ))
    return left, right, predicates


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
                    # Nothing expanded yet: no sorted positions, no right index.
                    assert "sorted_pos" not in vars(pairs) and "right_idx" not in vars(pairs)
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

    @settings(max_examples=300, deadline=None)
    @given(multi_predicate_cases())
    def test_match_all_equals_filtered_sort_merge(self, case):
        left, right, predicates = case
        match = kernels.match_all(left, right, predicates)
        ref_l, ref_r = filtered_pairs(left, right, predicates)
        pairs = kernels.expand_pairs(match)
        assert match.total == pairs.count == len(ref_l)
        np.testing.assert_array_equal(pairs.left_indices(), ref_l)
        np.testing.assert_array_equal(pairs.right_idx, ref_r)

    def test_match_all_named_cases(self):
        nan = np.nan
        cases = {
            # L.0 = R.0 ∧ L.0 = R.1: a filter of the right rows.
            "shared left column": (
                {0: np.array([1, 2, 2, 3])},
                {0: np.array([2, 2, 1, 3, 2]), 1: np.array([2, 5, 1, 3, 2])},
                [(0, 0), (0, 1)], [0, 1, 1, 2, 2, 3], [2, 0, 4, 0, 4, 3]),
            "shared right column": (
                {0: np.array([1, 2, 3]), 1: np.array([1, 0, 3])},
                {0: np.array([3, 1, 1])},
                [(0, 0), (1, 0)], [0, 0, 2], [1, 2, 0]),
            # Sparse (0..9000 x 0..9000): sorted by two radix passes.
            "composite key": (
                {0: np.array([9000, 0, 9000, 5]), 1: np.array([1, 9000, 1, 5])},
                {0: np.array([9000, 9000, 0, 9000]), 1: np.array([1, 2, 9000, 1])},
                [(0, 0), (1, 1)], [0, 0, 1, 2, 2], [0, 3, 2, 0, 3]),
            "three columns wider than 2^62: rank codes": (
                {c: np.array([-2**63, 2**63 - 1, 0]) for c in range(3)},
                {c: np.array([0, 2**63 - 1, -2**63, 2**63 - 1]) for c in range(3)},
                [(0, 0), (1, 1), (2, 2)], [0, 1, 1, 2], [2, 1, 3, 0]),
            "three 2^40-wide columns: the running key re-densified": (
                {0: np.array([0, 2**40, 5]), 1: np.array([2**40, 2**40, 5]),
                 2: np.array([0, 0, 5])},
                {0: np.array([2**40, 0, 0]), 1: np.array([2**40, 2**40, 0]),
                 2: np.array([0, 0, 2**40])},
                [(0, 0), (1, 1), (2, 2)], [0, 1], [1, 0]),
            # Radixes 2^32 + 3 and 2^32: unless re-densified, (2^32 + 1) * 2^32
            # wraps to 2^32 and right row 1 aliases row 0.
            "a radix product past 2^64": (
                {0: np.array([0]), 1: np.array([0])},
                {0: np.array([0, 2**32, 2**32]), 1: np.array([0, 0, 2**32 - 3])},
                [(0, 0), (1, 1)], [0], [0]),
            "NaN, -0.0 and 0.0": (
                {0: np.array([nan, -0.0, 1.0]), 1: np.array([nan, 0.0, 1.0])},
                {0: np.array([0.0, nan, 1.0]), 1: np.array([-0.0, nan, 1.0])},
                [(0, 0), (1, 1)], [1, 2], [0, 2]),
        }
        for name, (left, right, predicates, want_l, want_r) in cases.items():
            pairs = kernels.expand_pairs(kernels.match_all(left, right, predicates))
            assert pairs.left_indices().tolist() == want_l, name
            assert pairs.right_idx.tolist() == want_r, name
            ref_l, ref_r = filtered_pairs(left, right, predicates)
            assert (ref_l.tolist(), ref_r.tolist()) == (want_l, want_r), name

    def test_nan_keys_match_nothing(self):
        index = kernels.build_join_index(np.array([1.0, np.nan, 2.0]))
        match = kernels.probe_join_index(index, np.array([np.nan, 2.0, np.nan]))
        assert match.counts.tolist() == [0, 1, 0] and match.total == 1
        assert kernels.expand_pairs(match).right_idx.tolist() == [2]

    def test_fused_filter_equals_sequential(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 200))
            pairs = [
                (rng.integers(0, 4, size=n), rng.integers(0, 4, size=n))
                for _ in range(int(rng.integers(1, 4)))
            ]
            fused = fused_equality_filter(pairs)
            sequential = np.ones(n, dtype=bool)
            for lv, rv in pairs:
                sequential &= lv == rv
            np.testing.assert_array_equal(fused, sequential)
        assert fused_equality_filter([]) is None

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


# ------------------------------------------------------------------ gathers and counting tables
def traced_peak(work) -> tuple[object, int]:
    """``work()``'s result and the peak bytes it allocated, as ``tracemalloc`` sees them."""
    tracemalloc.start()
    try:
        result = work()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: Build-side key spaces: counted and keyed by the key itself (key_min >= 1),
#: counted over shifted keys (key_min <= 0), and sparse (binary search).
_KEY_SPACES = {"keyed by the key": (5, 1), "shifted": (-300, 1), "sparse": (0, 100_003)}


def _shaped_case(shape: str, many: bool, rng) -> tuple[np.ndarray, np.ndarray]:
    """(probe keys, build keys) over 0-based key codes giving a pair set of ``shape``.

    ``many``: more pairs than build rows (the build side is reordered once),
    otherwise fewer (the gather goes through the pairs' build rows).
    """
    m = 240
    if shape == "runs":
        build = rng.integers(0, m // 4, size=m)
        return rng.integers(0, m // 4, size=m if many else m // 20), build
    build = rng.permutation(m)
    size = 3 * m if many else m // 4
    if shape == "identity":
        return build[rng.integers(0, m, size=size)], build
    return rng.integers(0, 2 * m, size=2 * size), build  # unique: half the probe misses


class TestSortedPositionGathers:
    @pytest.mark.parametrize("space", sorted(_KEY_SPACES))
    @pytest.mark.parametrize("filtered", [False, True], ids=["all rows", "filtered rows"])
    @pytest.mark.parametrize("many", [True, False], ids=["many pairs", "few pairs"])
    @pytest.mark.parametrize("shape", ["identity", "unique", "runs"])
    def test_gather_right_equals_the_reference_in_any_read_order(
        self, rng, shape, many, filtered, space
    ):
        """Identity, unique-match and run-shaped pair sets, over every key space,
        with and without a filtered ``rows`` index, gather ``values[ref_right]``
        by either route, whether ``right_idx`` is read before, after or never."""
        base, stride = _KEY_SPACES[space]
        left_codes, build_codes = _shaped_case(shape, many, rng)
        left, build = left_codes * stride + base, build_codes * stride + base
        # A filtered index holds the keys of some build rows: ``rows`` maps
        # them back to the full side, whose values the gather reads.
        rows, num_rows = None, len(build)
        if filtered:
            num_rows = 2 * len(build)
            rows = np.sort(rng.choice(num_rows, size=len(build), replace=False))
        ref_l, ref_r = sort_merge_pairs(left, build)
        ref_right = ref_r if rows is None else rows[ref_r]
        values = rng.integers(0, 10**6, size=num_rows)
        for read in ("before", "after", "never"):
            index = kernels.build_join_index(build, rows)
            assert (index.counts_table is not None) == (space != "sparse")
            assert (space == "keyed by the key") == (
                index.counts_table is not None and index.offset == 0)
            pairs = kernels.expand_pairs(kernels.probe_join_index(index, left))
            assert pairs.count == len(ref_l) and (pairs.count > index.num_keys) == many
            assert {"identity": pairs.left_all, "unique": pairs.run_counts is None,
                    "runs": pairs.run_counts is not None}[shape]
            if read == "before":
                np.testing.assert_array_equal(pairs.right_idx, ref_right)
            gathered = pairs.gather_right(values)
            assert gathered.dtype == values.dtype
            np.testing.assert_array_equal(gathered, values[ref_right])
            np.testing.assert_array_equal(pairs.gather_right(values), values[ref_right])
            np.testing.assert_array_equal(pairs.gather_left(np.arange(len(left))), ref_l)
            if read == "after":
                np.testing.assert_array_equal(pairs.right_idx, ref_right)
            if read == "never":
                assert "right_idx" not in vars(pairs)

    def test_an_identity_match_keeps_its_probe_offsets_as_positions(self):
        index = kernels.build_join_index(np.array([4, 2, 3, 1]))
        match = kernels.probe_join_index(index, np.array([3, 3, 1, 4]))
        pairs = kernels.expand_pairs(match)
        assert pairs.left_all and pairs.sorted_pos is match.lo  # no copy
        assert pairs.gather_right(np.array([40, 20, 30, 10])).tolist() == [30, 30, 10, 40]


class TestCountingTable:
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
    @pytest.mark.parametrize(
        "where", ["key_min <= 0", "1 <= key_min <= domain", "key_min > domain"]
    )
    def test_counts_lo_and_order_equal_the_sort_merge(self, rng, dtype, where):
        """Every key space a table counts over, build keys in int64, int32 and
        uint16, probed with keys below 0, in [0, key_min), inside the domain
        and above key_max, in int64 and in the build keys' own dtype."""
        key_min = {"key_min <= 0": 0 if dtype == np.uint16 else -40,
                   "1 <= key_min <= domain": 7, "key_min > domain": 3000}[where]
        domain = 200
        key_max = key_min + domain - 1
        build = key_min + rng.integers(0, domain, size=500)
        build[:2] = key_min, key_max
        build = build.astype(dtype)
        probe = np.concatenate([
            [-(2**40), -5, -1, 0],  # below 0
            np.arange(0, key_min)[:30],  # in [0, key_min)
            rng.integers(key_min, key_max + 1, size=300),
            [key_max + 1, key_max + 1000, 2**40],  # above key_max
            build[:20],
        ]).astype(np.int64)
        info = np.iinfo(dtype)
        narrow_probe = probe[(probe >= info.min) & (probe <= info.max)].astype(dtype)
        index = kernels.build_join_index(build)
        assert index.counts_table is not None and (index.key_min, index.domain) == (key_min, domain)
        keyed = dtype == np.int64 and where == "1 <= key_min <= domain"
        assert index.offset == (0 if keyed else key_min - 1)
        assert len(index.counts_table) == (key_max + 2 if keyed else domain + 2)
        for left in (probe, narrow_probe):
            match = kernels.probe_join_index(index, left)
            ref = match_counts(left, build)
            np.testing.assert_array_equal(match.counts, ref.counts)
            hit = match.counts > 0
            np.testing.assert_array_equal(match.lo[hit], ref.lo[hit])
            assert match.total == ref.total
            np.testing.assert_array_equal(kernels.expand_pairs(match).right_idx,
                                          sort_merge_pairs(left, build)[1])
        np.testing.assert_array_equal(index.order, ref.order)

    @pytest.mark.parametrize("domain, narrow", [
        (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32),
    ])
    def test_order_narrows_its_digits_to_the_recorded_domain(
        self, monkeypatch, rng, domain, narrow
    ):
        """A table keyed by the key is ``key_max + 2`` long, so the sort's digit
        width comes from the domain the index recorded: one past the last
        domain a width holds, a width read off the table is a step too wide."""
        sorted_dtypes = []

        class SpyNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def argsort(self, keys, *args, **kwargs):
                sorted_dtypes.append(keys.dtype)
                return np.argsort(keys, *args, **kwargs)

        monkeypatch.setattr(kernels, "np", SpyNumpy())
        key_min = 7
        build = rng.integers(0, domain, size=max(400, domain // 4 + 1)) + key_min
        build[:2] = key_min, key_min + domain - 1
        index = kernels.build_join_index(build)
        assert (index.offset, index.domain) == (0, domain)
        assert len(index.counts_table) == key_min + domain + 1
        np.testing.assert_array_equal(index.order, np.argsort(build, kind="stable"))
        assert sorted_dtypes == [np.dtype(narrow)]


class TestJoinAllocations:
    """Peak traced bytes of the join kernels: a join allocates what it keeps."""

    def test_a_run_shaped_gather_right_holds_two_pair_arrays(self, rng):
        """Sorted positions summed in place (~8n bytes over n pairs) plus the
        gathered array: ~2 x 8n, no index array through the sort order."""
        build = np.repeat(np.arange(1, 101), 50)
        rng.shuffle(build)
        left = rng.integers(1, 101, size=10_000)
        pairs = production_pairs(left, build)
        n = pairs.count
        assert pairs.run_counts is not None and n == 50 * len(left)
        values = np.arange(len(build))
        gathered, peak = traced_peak(lambda: pairs.gather_right(values))
        assert peak <= 2.2 * 8 * n, peak / (8 * n)
        np.testing.assert_array_equal(gathered, values[sort_merge_pairs(left, build)[1]])
        _, peak = traced_peak(lambda: production_pairs(left, build).sorted_pos)
        assert peak <= 1.2 * 8 * n, peak / (8 * n)  # the steps become the positions

    def test_a_counted_index_and_its_probe_copy_no_key_array(self, rng):
        """Int64 build keys with key_min >= 1 and int64 probe keys are the
        table's slots: no array as long as either side's keys is allocated."""
        keys = rng.integers(1, 2001, size=1_000_000)
        left = rng.integers(-10, 2100, size=100_000)

        def build_and_probe():
            index = kernels.build_join_index(keys)
            return index, kernels.probe_join_index(index, left)

        (index, match), peak = traced_peak(build_and_probe)
        # The two tables (2 x 2002 slots) and the probe's counts and lo (2 x 8
        # bytes a probe row): no 8 MB copy of the build keys, no probe-key copy.
        assert peak <= 2 * 8 * 2002 + 2 * 8 * len(left) + 4096, peak
        assert index.offset == 0 and match.total > 0

    def test_the_job_setup_probe_peaks_under_52_mib(self):
        """The default plan of every <= 7-table query of JOB at scale 0.16
        (seed 0, 40 queries) with a 600 s timeout, as the end-to-end
        benchmark's set-up runs it.  JOB_7b's censored 2.65 M-row hash join
        sets the peak (48.1 MiB on numpy 2.4): what its join keeps, no
        expansion temporaries and no shifted copies of its keys."""
        workload = build_job_workload(scale=0.16, seed=0, num_queries=40)

        def probe():
            for query in workload.queries:
                if query.num_tables <= 7:
                    workload.database.execute(query, timeout=600.0)

        _, peak = traced_peak(probe)
        assert peak <= 52 * 2**20, peak / 2**20


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
        counts) are the sort-merge reference's, multi-predicate joins included."""
        executor = make_database(tiny_database, exec_cache=False).executor
        checked = check_joins_against_sort_merge(executor)
        # orders |x| product on two predicates: one composite key.
        two_predicates = Query(
            "tiny_q1_two_predicates", tiny_query.table_refs,
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

    def test_the_memo_stores_exactly_the_bytes_each_join_announced(
        self, job_workload_small, monkeypatch
    ):
        """On a JOB pass, every array the subplan memo materializes has the
        ``_Gather.nbytes`` its join announced (``count * _POSITION_ITEMSIZE``),
        so ``intermediate_nbytes`` reads the same before and after
        ``put_subplan``: the gathers write positions in the announced dtype."""
        from repro.db.executor import _POSITION_ITEMSIZE, _Gather
        from repro.db.plan_cache import ExecutionCache, intermediate_nbytes

        put_subplan = ExecutionCache.put_subplan
        stored: list[int] = []

        def checked_put_subplan(cache, key, intermediate, events):
            raw = dict(intermediate.positions.items())  # no gather forced
            announced = {a: v.nbytes for a, v in raw.items() if isinstance(v, _Gather)}
            before = intermediate_nbytes(intermediate)
            put_subplan(cache, key, intermediate, events)
            entry = cache._subplans.get(key)
            if entry is None or entry.intermediate is not intermediate:
                return  # oversized: only the charge log was kept
            for alias, nbytes in announced.items():
                array = intermediate.positions[alias]
                assert type(array) is np.ndarray and array.itemsize == _POSITION_ITEMSIZE
                assert array.nbytes == nbytes, (alias, array.nbytes, nbytes)
            assert intermediate_nbytes(intermediate) == before
            stored.append(len(announced))

        monkeypatch.setattr(ExecutionCache, "put_subplan", checked_put_subplan)
        source = job_workload_small.database
        database = Database(source.schema, source.relations, seed=7, exec_cache=True)
        for query in job_workload_small.queries:
            if query.num_tables <= 7:
                database.execute(query, timeout=600.0)
        assert sum(stored) >= 10  # deferred join outputs the memo materialized


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
