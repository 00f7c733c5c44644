"""Tests for the execution engine: correctness, latency model, timeouts."""

import numpy as np
import pytest

from repro.db.executor import MAX_MATERIALIZED_ROWS
from repro.db.kernels import build_join_index, expand_pairs, probe_join_index
from repro.db.query import FilterPredicate, JoinPredicate, Query, TableRef
from repro.exceptions import ExecutionError, PlanError
from repro.plans.jointree import JoinOp, JoinTree
from repro.plans.sampling import random_join_tree

from oracles.reference_kernels import sort_merge_pairs


def _hash_match(left_keys, right_keys):
    """Index arrays (into left, into right) of every equal-key pair."""
    pairs = expand_pairs(probe_join_index(build_join_index(right_keys), left_keys))
    return pairs.left_indices(), pairs.right_idx


class TestHashMatch:
    def test_simple_match(self):
        left = np.array([1, 2, 3, 2])
        right = np.array([2, 2, 4])
        left_idx, right_idx = _hash_match(left, right)
        pairs = set(zip(left_idx.tolist(), right_idx.tolist()))
        assert pairs == {(1, 0), (1, 1), (3, 0), (3, 1)}

    def test_no_matches(self):
        left_idx, right_idx = _hash_match(np.array([1, 2]), np.array([3, 4]))
        assert len(left_idx) == 0 and len(right_idx) == 0

    def test_empty_inputs(self):
        left_idx, _ = _hash_match(np.array([]), np.array([1]))
        assert len(left_idx) == 0

    def test_counts_total_matches_expansion(self, rng):
        left = rng.integers(0, 50, 500)
        right = rng.integers(0, 50, 700)
        counts = probe_join_index(build_join_index(right), left)
        pairs = expand_pairs(counts)
        left_idx, right_idx = pairs.left_indices(), pairs.right_idx
        assert counts.total == pairs.count == len(left_idx) == len(right_idx)
        # Every reported pair actually matches, in the sort-merge reference's order.
        assert np.all(left[left_idx] == right[right_idx])
        ref_left, ref_right = sort_merge_pairs(left, right)
        np.testing.assert_array_equal(left_idx, ref_left)
        np.testing.assert_array_equal(right_idx, ref_right)


class TestExecution:
    def test_default_plan_executes(self, tiny_database, tiny_query):
        result = tiny_database.execute(tiny_query)
        assert not result.timed_out
        assert result.latency > 0
        assert result.output_rows is not None and result.output_rows >= 0

    def test_count_is_plan_invariant(self, tiny_database, tiny_query, rng):
        """Every valid plan for the query must produce the same COUNT(*)."""
        reference = tiny_database.execute(tiny_query).output_rows
        for _ in range(8):
            plan = random_join_tree(tiny_query, rng)
            result = tiny_database.execute(tiny_query, plan, timeout=300.0)
            if not result.timed_out:
                assert result.output_rows == reference

    def test_count_matches_bruteforce_on_small_join(self, tiny_database):
        query = Query(
            "pair",
            [TableRef("orders#1", "orders"), TableRef("customer#1", "customer")],
            [JoinPredicate("orders#1", "customer_id", "customer#1", "id")],
            [FilterPredicate("customer#1", "region", "=", 1)],
        )
        result = tiny_database.execute(query)
        orders = tiny_database.relations["orders"]
        customers = tiny_database.relations["customer"]
        keep = customers.column("id")[customers.column("region") == 1]
        expected = int(np.isin(orders.column("customer_id"), keep).sum())
        assert result.output_rows == expected

    def test_latency_depends_on_operators(self, tiny_database, tiny_query):
        plan = tiny_database.plan(tiny_query)
        all_nl = plan.with_operators([JoinOp.NESTED_LOOP] * plan.num_joins)
        all_hash = plan.with_operators([JoinOp.HASH] * plan.num_joins)
        nl_latency = tiny_database.execute(tiny_query, all_nl, timeout=600.0).latency
        hash_latency = tiny_database.execute(tiny_query, all_hash, timeout=600.0).latency
        assert nl_latency != hash_latency

    def test_latency_deterministic_without_noise(self, tiny_database, tiny_query):
        plan = tiny_database.plan(tiny_query)
        first = tiny_database.execute(tiny_query, plan).latency
        second = tiny_database.execute(tiny_query, plan).latency
        assert first == second

    def test_invalid_plan_rejected(self, tiny_database, tiny_query):
        wrong = JoinTree.left_deep(["orders#1", "customer#1"])
        with pytest.raises(PlanError):
            tiny_database.execute(tiny_query, wrong)

    def test_breakdown_recorded(self, tiny_database, tiny_query):
        result = tiny_database.execute(tiny_query)
        assert "scan" in result.breakdown and "join" in result.breakdown
        assert result.nodes_executed == 2 * tiny_query.num_tables - 1


class TestTimeouts:
    def test_tight_timeout_censors(self, tiny_database, tiny_query):
        full = tiny_database.execute(tiny_query)
        tight = tiny_database.execute(tiny_query, timeout=full.latency / 10.0)
        assert tight.timed_out
        assert tight.censored
        assert tight.latency == pytest.approx(full.latency / 10.0)
        assert tight.output_rows is None

    def test_loose_timeout_does_not_censor(self, tiny_database, tiny_query):
        full = tiny_database.execute(tiny_query)
        loose = tiny_database.execute(tiny_query, timeout=full.latency * 10.0)
        assert not loose.timed_out
        assert loose.latency == pytest.approx(full.latency)

    def test_censored_latency_equals_timeout(self, tiny_database, tiny_query):
        result = tiny_database.execute(tiny_query, timeout=1e-6)
        assert result.timed_out and result.latency == pytest.approx(1e-6)

    def test_cross_join_plan_times_out(self, tiny_database):
        query = Query(
            "cross",
            [TableRef("orders#1", "orders"), TableRef("shipment#1", "shipment")],
            [],  # no join predicate: a forced cross join
        )
        plan = JoinTree.join(JoinTree.leaf("orders#1"), JoinTree.leaf("shipment#1"), JoinOp.NESTED_LOOP)
        result = tiny_database.execute(query, plan, timeout=0.01)
        assert result.timed_out

    def test_work_cap_without_timeout_raises(self, tiny_database, monkeypatch):
        import repro.db.executor as executor_module

        monkeypatch.setattr(executor_module, "MAX_MATERIALIZED_ROWS", 10)
        query = Query(
            "cap",
            [TableRef("orders#1", "orders"), TableRef("customer#1", "customer")],
            [JoinPredicate("orders#1", "customer_id", "customer#1", "id")],
        )
        with pytest.raises(ExecutionError):
            tiny_database.execute(query)

    def test_true_latency_raises_on_timeout_plans(self, tiny_database, tiny_query):
        # true_latency refuses to report a latency for plans that cannot finish.
        assert tiny_database.executor.true_latency(tiny_query, tiny_database.plan(tiny_query)) > 0


class TestNoise:
    def test_noise_is_deterministic_per_plan(self, tiny_schema, tiny_database, tiny_query):
        from repro.db.executor import Executor

        noisy = Executor(tiny_schema, tiny_database.relations, noise_sigma=0.2, seed=5)
        plan = tiny_database.plan(tiny_query)
        first = noisy.execute(tiny_query, plan).latency
        second = noisy.execute(tiny_query, plan).latency
        assert first == second

    def test_noise_changes_latency(self, tiny_schema, tiny_database, tiny_query):
        from repro.db.executor import Executor

        clean = Executor(tiny_schema, tiny_database.relations, noise_sigma=0.0)
        noisy = Executor(tiny_schema, tiny_database.relations, noise_sigma=0.3, seed=5)
        plan = tiny_database.plan(tiny_query)
        assert clean.execute(tiny_query, plan).latency != noisy.execute(tiny_query, plan).latency

    def test_materialization_cap_is_large(self):
        assert MAX_MATERIALIZED_ROWS >= 1_000_000


class TestMaterializeOnRead:
    """Joins write an output array only when something reads it."""

    @staticmethod
    def _constant_key_database(rows: dict[str, int], exec_cache: bool = False):
        """Tables whose ``k`` column is all zeros: ``a.k = b.k`` matches every pair."""
        from repro.db.catalog import Column, Schema, Table
        from repro.db.engine import Database
        from repro.db.relation import Relation

        tables = [Table(name, [Column("id"), Column("k")]) for name in rows]
        relations = {
            table.name: Relation(
                table,
                {"id": np.arange(rows[table.name]), "k": np.zeros(rows[table.name], dtype=np.int64)},
            )
            for table in tables
        }
        return Database(Schema("flat", tables), relations, exec_cache=exec_cache)

    @staticmethod
    def _peak_bytes(run) -> tuple[object, int]:
        import tracemalloc

        tracemalloc.start()
        try:
            result = run()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_root_join_counts_without_materializing(self):
        database = self._constant_key_database({"a": 1500, "b": 1200})
        query = Query(
            "root",
            [TableRef("a#1", "a"), TableRef("b#1", "b")],
            [JoinPredicate("a#1", "k", "b#1", "k")],
        )
        plan = JoinTree.join(JoinTree.leaf("a#1"), JoinTree.leaf("b#1"), JoinOp.HASH)
        result, peak = self._peak_bytes(lambda: database.execute(query, plan))
        assert result.output_rows == 1500 * 1200 >= 10**6
        # One int64 index over the output would already be 8 bytes per row.
        assert peak < 8 * result.output_rows

    def test_cross_join_under_a_censored_parent_is_never_written(self):
        """``(a x b) |x| c`` with a timeout that falls inside the parent's
        pre-charge: the 10^6-row product is charged, counted and dropped."""
        sizes = {"a": 1000, "b": 1000, "c": 2}
        query = Query(
            "cross_then_censor",
            [TableRef("a#1", "a"), TableRef("b#1", "b"), TableRef("c#1", "c")],
            [JoinPredicate("a#1", "k", "c#1", "k")],
        )
        plan = JoinTree.join(
            JoinTree.join(JoinTree.leaf("a#1"), JoinTree.leaf("b#1"), JoinOp.HASH),
            JoinTree.leaf("c#1"),
            JoinOp.NESTED_LOOP,
        )
        # The recorded charge log ends: ..., parent pre-charge, parent output, node.
        recorder = self._constant_key_database(sizes, exec_cache=True)
        recorder.execute(query, plan, timeout=None)
        (_, events, *_), = recorder.execution_cache.export_outcomes()
        assert [category for category, _ in events[-3:]] == ["join", "join", "__node__"]
        before_parent = 0.0
        for _, cost in events[:-3]:
            before_parent += cost
        database = self._constant_key_database(sizes)
        result, peak = self._peak_bytes(
            lambda: database.execute(query, plan, timeout=before_parent)
        )
        assert result.timed_out and result.nodes_executed == 4  # three scans + the product
        assert peak < 8 * sizes["a"] * sizes["b"]

    @pytest.mark.parametrize("predicates", [[JoinPredicate("a#1", "k", "b#1", "k")], []])
    def test_work_cap_still_recorded_and_enforced(self, monkeypatch, predicates):
        """A root join (equi or cross) past the cap is counted, not expanded —
        and still leaves its cap event, censors under a timeout and raises without."""
        import repro.db.executor as executor_module
        from repro.db.plan_cache import CAP_EVENT

        monkeypatch.setattr(executor_module, "MAX_MATERIALIZED_ROWS", 10_000)
        database = self._constant_key_database({"a": 300, "b": 200}, exec_cache=True)
        query = Query("cap", [TableRef("a#1", "a"), TableRef("b#1", "b")], predicates)
        plan = JoinTree.join(JoinTree.leaf("a#1"), JoinTree.leaf("b#1"), JoinOp.HASH)
        result = database.execute(query, plan, timeout=1e9)
        assert result.timed_out and result.latency == 1e9 and result.output_rows is None
        (_, events, completed, _, _, work_capped), = database.execution_cache.export_outcomes()
        assert events[-1] == (CAP_EVENT, 300.0 * 200.0) and work_capped and not completed
        with pytest.raises(ExecutionError):
            database.execute(query, plan, timeout=None)
