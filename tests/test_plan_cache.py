"""Tests for the execution-memoization layer (repro.db.plan_cache).

Covers the tentpole guarantees: fingerprint identity/collision behaviour,
bit-for-bit cache-on/off equivalence (including noise, timeouts and the
materialization work cap), the censored-result reuse rules, LRU eviction
under the byte budget, adaptive batch sizing, and per-worker cache isolation
and determinism under the process-pool backend.
"""

from __future__ import annotations

import copy
import importlib
import os
import pickle

import numpy as np
import pytest

from repro.core import ExecutionServiceConfig
from repro.core.protocol import BudgetSpec, ExecutionOutcome
from repro.db.engine import Database
from repro.db.plan_cache import (
    CacheStats,
    ExecutionCache,
    ExecutionCacheConfig,
    Fingerprint,
    plan_fingerprint,
    query_fingerprint,
)
from repro.db.query import FilterPredicate, JoinPredicate, Query, TableRef
from repro.exceptions import OptimizationError
from repro.harness import WorkloadSession
from repro.plans.jointree import JoinOp
from repro.plans.sampling import random_join_trees


def _result_key(result):
    """Everything observable about an execution except the cache stats."""
    return (
        result.latency,
        result.timed_out,
        result.output_rows,
        result.nodes_executed,
        result.timeout,
        tuple(sorted(result.breakdown.items())),
    )


def _clone(database: Database, **kwargs) -> Database:
    return Database(
        database.schema,
        database.relations,
        database.cost_params,
        noise_sigma=database.executor.noise_sigma,
        seed=database.executor.seed,
        **kwargs,
    )


# --------------------------------------------------------------------- fingerprints
class TestFingerprints:
    def test_query_fingerprint_ignores_name_and_order(self, tiny_query):
        clone = Query(
            name="renamed",
            table_refs=list(reversed(tiny_query.table_refs)),
            join_predicates=[p.reversed() for p in reversed(tiny_query.join_predicates)],
            filters=list(reversed(tiny_query.filters)),
        )
        assert query_fingerprint(clone) == query_fingerprint(tiny_query)

    def test_query_fingerprint_is_computed_once_per_object(self, tiny_query, monkeypatch):
        import repro.db.plan_cache as plan_cache

        query = Query(
            name="fresh",
            table_refs=tiny_query.table_refs,
            join_predicates=tiny_query.join_predicates,
            filters=tiny_query.filters,
        )
        first = query_fingerprint(query)
        monkeypatch.setattr(
            plan_cache, "sorted", lambda *a, **k: pytest.fail("fingerprint recomputed"),
            raising=False,
        )
        assert query_fingerprint(query) is first

    def test_a_fingerprint_and_its_plain_tuple_are_one_key(self, tiny_database, tiny_query):
        fingerprint = query_fingerprint(tiny_query)
        plain = tuple(fingerprint)
        assert type(fingerprint) is Fingerprint and type(plain) is tuple
        assert fingerprint == plain and plain == fingerprint
        assert hash(fingerprint) == hash(plain)
        assert {plain: "old"}[fingerprint] == "old" and {fingerprint: "new"}[plain] == "new"
        assert plain in {fingerprint} and fingerprint in {plain}
        # Keys that nest it — outcome logs, a node's imported set — match too,
        # whichever side was written before fingerprints cached their hash.
        plan = tiny_database.plan(tiny_query)
        assert (plain, plan.canonical()) in {plan_fingerprint(tiny_query, plan)}
        assert plan_fingerprint(tiny_query, plan) in {(plain, plan.canonical())}
        assert repr(fingerprint) == repr(plain)

    def test_a_fingerprint_copies_and_pickles_as_its_content(self, tiny_query):
        fingerprint = query_fingerprint(tiny_query)
        data = pickle.dumps(fingerprint, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"_hash" not in data
        for clone in (copy.copy(fingerprint), copy.deepcopy(fingerprint), pickle.loads(data)):
            assert type(clone) is Fingerprint
            assert clone == fingerprint and hash(clone) == hash(fingerprint)
        # A memo pickled as a plain tuple (before this class) is wrapped once.
        query = Query("old", tiny_query.table_refs, tiny_query.join_predicates, tiny_query.filters)
        query._fingerprint = tuple(fingerprint)
        assert type(query_fingerprint(query)) is Fingerprint
        assert query_fingerprint(query) is query_fingerprint(query) == fingerprint

    def test_query_from_before_the_memo_fingerprints_the_same(self, tiny_query,
                                                              tiny_three_table_query):
        # The format-1 plan store in tests/data was pickled by the parent of
        # the memo: its queries hold lists and no `_fingerprint`.
        path = os.path.join(os.path.dirname(__file__), "data", "plan_store_v1.pkl")
        with open(path, "rb") as handle:
            entries = pickle.load(handle)["entries"]
        assert len(entries) == 2
        for (stored_fingerprint, entry), current in zip(
            entries.items(), (tiny_query, tiny_three_table_query)
        ):
            assert isinstance(entry.query.filters, list)
            assert "_fingerprint" not in entry.query.__dict__
            assert query_fingerprint(entry.query) == stored_fingerprint
            assert query_fingerprint(entry.query) == query_fingerprint(current)
            assert query_fingerprint(entry.query) is query_fingerprint(entry.query)

    def test_query_fingerprint_separates_filters(self, tiny_query):
        changed = Query(
            name=tiny_query.name,
            table_refs=list(tiny_query.table_refs),
            join_predicates=list(tiny_query.join_predicates),
            filters=[FilterPredicate("customer#1", "region", "=", 3)],
        )
        assert query_fingerprint(changed) != query_fingerprint(tiny_query)

    def test_plan_fingerprint_separates_operators(self, tiny_database, tiny_query):
        plan = tiny_database.plan(tiny_query)
        flipped = plan.with_operators([JoinOp.NESTED_LOOP] * plan.num_joins)
        assert plan_fingerprint(tiny_query, plan) != plan_fingerprint(tiny_query, flipped)

    def test_same_content_query_objects_share_outcome_entries(self, tiny_database, tiny_query):
        database = _clone(tiny_database, exec_cache=True)
        plan = database.plan(tiny_query)
        first = database.execute(tiny_query, plan)
        renamed = Query(
            name="other_name",
            table_refs=list(tiny_query.table_refs),
            join_predicates=list(tiny_query.join_predicates),
            filters=list(tiny_query.filters),
        )
        second = database.execute(renamed, plan)
        assert second.cache is not None and second.cache.outcome_hit
        assert second.latency == first.latency


# --------------------------------------------------------------------- equivalence
class TestCacheEquivalence:
    def test_repeated_execution_is_replayed_and_identical(self, tiny_database, tiny_query):
        database = _clone(tiny_database, exec_cache=True)
        plan = database.plan(tiny_query)
        first = database.execute(tiny_query, plan)
        second = database.execute(tiny_query, plan)
        assert not first.cache.outcome_hit and second.cache.outcome_hit
        assert _result_key(first) == _result_key(second)

    def test_cache_on_off_bit_for_bit(self, tiny_database, tiny_query, tiny_three_table_query):
        on = _clone(tiny_database, exec_cache=True)
        off = _clone(tiny_database, exec_cache=False)
        for query in (tiny_query, tiny_three_table_query):
            for i, plan in enumerate(random_join_trees(query, 12, seed=3)):
                timeout = [None, 300.0, 0.05][i % 3]
                base = off.execute(query, plan, timeout=timeout)
                assert base.cache is None
                for _ in range(2):  # scratch-with-memo, then outcome replay
                    cached = on.execute(query, plan, timeout=timeout)
                    assert _result_key(cached) == _result_key(base)

    def test_overlapping_plans_share_subtrees(self, tiny_database, tiny_query):
        database = _clone(tiny_database, exec_cache=True)
        plan = database.plan(tiny_query)
        database.execute(tiny_query, plan)
        # Same join order, one operator flipped: every subtree below the
        # changed node replays from the memo.
        ops = plan.operators()
        ops[-1] = JoinOp.NESTED_LOOP if ops[-1] != JoinOp.NESTED_LOOP else JoinOp.HASH
        edited = plan.with_operators(ops)
        result = database.execute(tiny_query, edited)
        assert result.cache.subplan_hits > 0
        off = _clone(tiny_database, exec_cache=False)
        assert _result_key(result) == _result_key(off.execute(tiny_query, edited))

    def test_noise_identical_with_cache(self, tiny_database, tiny_query):
        on = _clone(tiny_database, exec_cache=True)
        off = _clone(tiny_database, exec_cache=False)
        on.executor.noise_sigma = off.executor.noise_sigma = 0.3
        plan = on.plan(tiny_query)
        base = off.execute(tiny_query, plan, timeout=600.0)
        assert on.execute(tiny_query, plan, timeout=600.0).latency == base.latency
        assert on.execute(tiny_query, plan, timeout=600.0).latency == base.latency

    def test_work_cap_censoring_replays(self, tiny_database, monkeypatch):
        import repro.db.executor as executor_module

        monkeypatch.setattr(executor_module, "MAX_MATERIALIZED_ROWS", 10)
        query = Query(
            "cap",
            [TableRef("orders#1", "orders"), TableRef("customer#1", "customer")],
            [JoinPredicate("orders#1", "customer_id", "customer#1", "id")],
        )
        database = _clone(tiny_database, exec_cache=True)
        plan = database.plan(query)
        first = database.execute(query, plan, timeout=600.0)
        assert first.timed_out
        second = database.execute(query, plan, timeout=600.0)
        assert second.cache.outcome_hit
        assert _result_key(first) == _result_key(second)
        # The cap fires for every finite timeout, so a *larger* timeout is
        # served too; no timeout still raises like an uncached run.
        third = database.execute(query, plan, timeout=10_000.0)
        assert third.cache.outcome_hit and third.timed_out


# --------------------------------------------------------------------- censored reuse
class TestCensoredReuse:
    def test_censored_entry_serves_smaller_timeouts_only(self, tiny_database, tiny_query):
        database = _clone(tiny_database, exec_cache=True)
        off = _clone(tiny_database, exec_cache=False)
        plan = database.plan(tiny_query)
        full_latency = off.execute(tiny_query, plan).latency
        censored = database.execute(tiny_query, plan, timeout=full_latency / 10)
        assert censored.timed_out and not censored.cache.outcome_hit
        # T' < T: replayed, censored at T'.
        tighter = database.execute(tiny_query, plan, timeout=full_latency / 20)
        assert tighter.cache.outcome_hit and tighter.timed_out
        assert tighter.latency == pytest.approx(full_latency / 20)
        # T'' > T: not servable; the fresh run completes and upgrades the entry.
        looser = database.execute(tiny_query, plan, timeout=full_latency * 2)
        assert not looser.cache.outcome_hit and not looser.timed_out
        # A completed entry serves everything, including no timeout at all.
        final = database.execute(tiny_query, plan)
        assert final.cache.outcome_hit and final.latency == full_latency

    def test_completed_entry_serves_any_timeout(self, tiny_database, tiny_query):
        database = _clone(tiny_database, exec_cache=True)
        off = _clone(tiny_database, exec_cache=False)
        plan = database.plan(tiny_query)
        full = database.execute(tiny_query, plan)
        for factor in (0.1, 0.5, 2.0):
            timeout = full.latency * factor
            replayed = database.execute(tiny_query, plan, timeout=timeout)
            base = off.execute(tiny_query, plan, timeout=timeout)
            assert replayed.cache.outcome_hit
            assert _result_key(replayed) == _result_key(base)


# --------------------------------------------------------------------- outcome interchange
class TestOutcomeInterchange:
    """export_outcomes / import_outcomes round-trips (the plan-store path)."""

    def test_export_import_roundtrip_primes_fresh_database(self, tiny_database, tiny_query):
        source = _clone(tiny_database, exec_cache=True)
        off = _clone(tiny_database, exec_cache=False)
        plan = source.plan(tiny_query)
        first = source.execute(tiny_query, plan)
        payload = source.execution_cache.export_outcomes()
        assert payload

        target = _clone(tiny_database, exec_cache=True)
        assert target.execution_cache.import_outcomes(payload) == len(payload)
        replayed = target.execute(tiny_query, plan)
        assert replayed.cache.outcome_hit
        assert replayed.latency == first.latency
        assert _result_key(replayed) == _result_key(off.execute(tiny_query, plan))

    def test_import_is_an_upsert_completed_beats_censored(self):
        key = ("k",)
        events = [(0.0, 1.0)]
        censored = ExecutionCache(ExecutionCacheConfig())
        censored.store_outcome(key, events, completed=False, observed_to=0.5,
                               output_rows=None)
        completed = ExecutionCache(ExecutionCacheConfig())
        completed.store_outcome(key, events, completed=True, observed_to=None,
                                output_rows=10)

        # Importing a completed log over a censored one upgrades the entry...
        censored.import_outcomes(completed.export_outcomes())
        exported = {k: (comp, obs) for k, _, comp, obs, _, _ in censored.export_outcomes()}
        assert exported[key] == (True, None)

        # ...and importing a censored log over a completed one changes nothing.
        completed.import_outcomes(
            [(key, events, False, 0.5, None, False)]
        )
        exported = {k: (comp, obs) for k, _, comp, obs, _, _ in completed.export_outcomes()}
        assert exported[key] == (True, None)

    def test_import_prefers_longer_censored_observation(self):
        key = ("k",)
        events = [(0.0, 1.0)]
        cache = ExecutionCache(ExecutionCacheConfig())
        cache.store_outcome(key, events, completed=False, observed_to=0.5, output_rows=None)
        # A log observed further into the execution replaces a shorter one.
        cache.import_outcomes([(key, events, False, 2.0, None, False)])
        exported = {k: (comp, obs) for k, _, comp, obs, _, _ in cache.export_outcomes()}
        assert exported[key] == (False, 2.0)
        # A shorter observation is discarded.
        cache.import_outcomes([(key, events, False, 1.0, None, False)])
        exported = {k: (comp, obs) for k, _, comp, obs, _, _ in cache.export_outcomes()}
        assert exported[key] == (False, 2.0)


    def test_export_since_a_stamp_returns_what_was_stored_since(self):
        cache = ExecutionCache(ExecutionCacheConfig())
        events = [("scan", 1.0)]
        assert cache.stamp == 0 and cache.export_outcomes(since=0) == []
        for name in "abc":
            cache.store_outcome((name,), events, completed=False, observed_to=1.0,
                                output_rows=None)
        mark = cache.stamp
        assert cache.export_outcomes(since=mark) == []
        # A rejected store (a shorter observation) is not news ...
        cache.store_outcome(("a",), events, completed=False, observed_to=0.5, output_rows=None)
        assert cache.stamp == mark
        # ... an upgrade of an old entry and a new entry both are.
        cache.store_outcome(("a",), events, completed=True, observed_to=None, output_rows=7)
        cache.store_outcome(("d",), events, completed=True, observed_to=None, output_rows=1)
        newer = cache.export_outcomes(since=mark)
        assert [(key, completed) for key, _, completed, *_ in newer] == [
            (("a",), True), (("d",), True)
        ]
        # The full export is unchanged in content, and a snapshot plus what
        # came since rebuilds the cache.
        assert {key for key, *_ in cache.export_outcomes()} == {("a",), ("b",), ("c",), ("d",)}
        assert cache.export_outcomes(since=0) == cache.export_outcomes()
        # `clear` empties the cache without turning the stamp back.
        cache.clear()
        assert cache.stamp == mark + 2 and cache.export_outcomes(since=mark) == []

    def test_export_since_does_not_walk_the_cache(self):
        class Counting(dict):
            walked = 0

            def items(self):
                outer = self

                class Items:
                    def __len__(self):
                        return dict.__len__(outer)

                    def __iter__(self):
                        for item in dict.items(outer):
                            Counting.walked += 1
                            yield item

                    def __reversed__(self):
                        for item in reversed(dict.items(outer)):
                            Counting.walked += 1
                            yield item

                return Items()

        cache = ExecutionCache(ExecutionCacheConfig())
        cache._outcomes = Counting()
        for index in range(500):
            cache.store_outcome((index,), [], completed=True, observed_to=None, output_rows=0)
        mark = cache.stamp
        cache.store_outcome(("new",), [], completed=True, observed_to=None, output_rows=0)
        assert [key for key, *_ in cache.export_outcomes(since=mark)] == [("new",)]
        assert Counting.walked == 1


# --------------------------------------------------------------------- LRU eviction
class TestSubplanLRU:
    def test_eviction_respects_byte_budget(self, tiny_database, tiny_query):
        budget = 64 * 1024
        database = _clone(
            tiny_database,
            exec_cache=ExecutionCacheConfig(max_bytes=budget, max_entry_bytes=budget),
        )
        for plan in random_join_trees(tiny_query, 20, seed=11):
            database.execute(tiny_query, plan, timeout=300.0)
        cache = database.execution_cache
        assert cache.subplan_bytes <= budget
        assert cache.counters.evictions > 0

    def test_oversized_intermediates_become_events_only(self, tiny_database, tiny_query):
        # A tiny per-entry cap forces every intermediate to events-only
        # storage; execution stays bit-for-bit identical, and replays of a
        # tight-timeout execution can still censor from the charge log alone.
        database = _clone(
            tiny_database,
            exec_cache=ExecutionCacheConfig(max_entry_bytes=0),
        )
        off = _clone(tiny_database, exec_cache=False)
        plan = database.plan(tiny_query)
        full = off.execute(tiny_query, plan)
        for timeout in (None, full.latency / 10):
            base = off.execute(tiny_query, plan, timeout=timeout)
            first = database.execute(tiny_query, plan, timeout=timeout)
            assert _result_key(first) == _result_key(base)
        cache = database.execution_cache
        assert cache.num_subplans > 0
        entries = [cache._subplans[key] for key in cache.subplan_keys()]
        assert any(entry.intermediate is None for entry in entries)
        # Only zero-byte intermediates (empty/pruned position sets) may keep
        # their arrays under a zero entry cap.
        from repro.db.plan_cache import intermediate_nbytes

        assert all(
            entry.intermediate is None or intermediate_nbytes(entry.intermediate) == 0
            for entry in entries
        )
        # A different plan sharing the censoring subtree is cut short by the
        # events-only probe — identical result, no materialization needed.
        ops = plan.operators()
        ops[-1] = JoinOp.NESTED_LOOP if ops[-1] != JoinOp.NESTED_LOOP else JoinOp.HASH
        edited = plan.with_operators(ops)
        tight = full.latency / 100
        assert _result_key(database.execute(tiny_query, edited, timeout=tight)) == _result_key(
            off.execute(tiny_query, edited, timeout=tight)
        )

    def test_lru_order_evicts_oldest(self):
        # Each entry charges 80 array bytes + 64 bytes for its (empty) event
        # log = 144; budget fits exactly three.
        cache = ExecutionCache(
            ExecutionCacheConfig(max_bytes=3 * 144, max_entry_bytes=80)
        )

        class FakeIntermediate:
            def __init__(self):
                self.positions = {"a": np.zeros(10, dtype=np.int64)}  # 80 bytes

        keys = [("q", f"p{i}") for i in range(3)]
        for key in keys:
            cache.put_subplan(key, FakeIntermediate(), [])
        # Touch the oldest so it becomes most recent, then overflow.
        assert cache.get_subplan(keys[0]) is not None
        cache.put_subplan(("q", "p3"), FakeIntermediate(), [])
        assert cache.get_subplan(keys[1]) is None  # evicted (was oldest)
        assert cache.get_subplan(keys[0]) is not None  # survived the touch

    def test_oversized_entry_is_not_cached(self):
        cache = ExecutionCache(ExecutionCacheConfig(max_bytes=16))

        class FakeIntermediate:
            positions = {"a": np.zeros(100, dtype=np.int64)}

        cache.put_subplan(("q", "big"), FakeIntermediate(), [])
        assert cache.num_subplans == 0 and cache.subplan_bytes == 0


# --------------------------------------------------------------------- deferred intermediates
class TestMemoHoldsPlainArrays:
    """A join output is deferred only while one execution owns it: whatever
    the memo stores is plain arrays, and what it refuses is never written."""

    @staticmethod
    def _deferred_join(tiny_database, tiny_query):
        """An unread two-join intermediate and the events that produced it."""
        from repro.db.executor import _ExecutionState
        from repro.plans.jointree import JoinTree

        database = _clone(tiny_database, exec_cache=False)
        state = _ExecutionState(timeout=None, events=[])
        subtree = JoinTree.left_deep(["orders#1", "customer#1", "product#1"])
        intermediate = database.executor._execute_node(tiny_query, subtree, state, None)
        return intermediate, state.events

    def test_every_memoized_intermediate_is_materialized(self, tiny_database, tiny_query):
        database = _clone(tiny_database, exec_cache=True)
        for plan in random_join_trees(tiny_query, 12, seed=5):
            database.execute(tiny_query, plan, timeout=300.0)
        cache = database.execution_cache
        stored = [cache._subplans[key].intermediate for key in cache.subplan_keys()]
        joins = [inter for inter in stored if inter is not None and len(inter.covered) > 1]
        assert joins and any(inter.positions for inter in joins)
        for intermediate in joins:
            for positions in intermediate.positions.values():
                assert type(positions) is np.ndarray and len(positions) == intermediate.count

    def test_put_materializes_what_it_stores(self, tiny_database, tiny_query):
        from repro.db.plan_cache import intermediate_nbytes

        intermediate, events = self._deferred_join(tiny_database, tiny_query)
        array_bytes = intermediate_nbytes(intermediate)
        assert array_bytes > 0
        cache = ExecutionCache(ExecutionCacheConfig(max_entry_bytes=array_bytes))
        cache.put_subplan(("q", "fits"), intermediate, events)
        entry = cache.get_subplan(("q", "fits"))
        assert entry.intermediate is intermediate
        assert all(type(value) is np.ndarray for value in intermediate.positions.values())
        assert cache.subplan_bytes == entry.nbytes > array_bytes  # arrays + event log

    def test_oversized_entry_is_refused_before_it_is_written(self, tiny_database, tiny_query):
        from repro.db.executor import _Gather
        from repro.db.plan_cache import intermediate_nbytes

        intermediate, events = self._deferred_join(tiny_database, tiny_query)
        limit = intermediate_nbytes(intermediate) - 1
        cache = ExecutionCache(ExecutionCacheConfig(max_entry_bytes=limit))
        cache.put_subplan(("q", "big"), intermediate, events)
        entry = cache.get_subplan(("q", "big"))
        assert entry.intermediate is None and entry.events == events
        assert all(isinstance(value, _Gather) for value in intermediate.positions.values())

    @pytest.mark.slow
    def test_smoke_stream_counters_repeat(self):
        """The ``bench_plan_cache.py --smoke`` stream hits, misses and caches
        exactly what it did when every join output was written eagerly."""
        from benchmarks.bench_plan_cache import (
            MIN_TABLES,
            SMOKE_PROPOSALS,
            SMOKE_QUERIES,
            execute_stream,
            trust_region_stream,
        )
        from repro.workloads import build_job_workload

        workload = build_job_workload(scale=0.15, seed=0, num_queries=24)
        database = workload.database
        queries = [q for q in workload.queries if q.num_tables >= MIN_TABLES][:SMOKE_QUERIES]
        for index, query in enumerate(queries):
            proposals = trust_region_stream(query, database.plan(query), SMOKE_PROPOSALS, seed=index)
            execute_stream(database, query, proposals)
        cache = database.execution_cache
        assert cache.counters.snapshot() == {
            "outcome_hits": 67, "outcome_misses": 53,
            "subplan_hits": 232, "subplan_misses": 181, "evictions": 0,
        }
        assert cache.subplan_bytes == 90_892_384  # the 90.9 MB the bench prints


# --------------------------------------------------------------------- config plumbing
class TestConfigPlumbing:
    def test_exec_config_validates_knobs(self):
        for batch_size in ("auto", "wide", 2.0):
            with pytest.raises(OptimizationError):
                ExecutionServiceConfig(batch_size=batch_size)
        with pytest.raises(OptimizationError):
            ExecutionServiceConfig(batch_size=0)
        with pytest.raises(OptimizationError):
            ExecutionServiceConfig(plan_cache_bytes=-1)

    def test_session_rejects_a_string_batch_size(self, tiny_workload):
        for batch_size in ("auto", "wide"):
            with pytest.raises(OptimizationError):
                WorkloadSession(tiny_workload, batch_size=batch_size)

    @pytest.mark.parametrize("module", ["repro.harness.batching", "repro.core.cache"])
    def test_the_auto_controller_and_the_old_online_planner_are_gone(self, module):
        # A fixed q and serve/PlanServer are the one way to do each.
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_plan_cache_false_disables_database_cache(self, tiny_workload):
        with WorkloadSession(
            tiny_workload,
            budget=BudgetSpec(max_executions=2),
            exec_config=ExecutionServiceConfig(plan_cache=False),
        ) as session:
            assert session.database.execution_cache is None
            session.run("random")
            assert session.cache_report.cached_executions == 0
        with WorkloadSession(
            tiny_workload,
            budget=BudgetSpec(max_executions=2),
            exec_config=ExecutionServiceConfig(plan_cache=True, plan_cache_bytes=1 << 20),
        ) as session:
            cache = session.database.execution_cache
            assert cache is not None and cache.config.max_bytes == 1 << 20
            session.run("random")
            assert session.cache_report.cached_executions > 0

    def test_default_exec_config_respects_database_cache_setting(self, tiny_workload):
        import dataclasses

        disabled_db = _clone(tiny_workload.database, exec_cache=False)
        workload = dataclasses.replace(tiny_workload, database=disabled_db)
        # plan_cache defaults to None: the database's explicit choice stands.
        with WorkloadSession(
            workload,
            budget=BudgetSpec(max_executions=2),
            exec_config=ExecutionServiceConfig(),
        ) as session:
            assert session.database.execution_cache is None
        # Reconfiguring to an equivalent config keeps the warm cache object.
        cached_db = _clone(tiny_workload.database, exec_cache=True)
        before = cached_db.execution_cache
        cached_db.set_execution_cache(cached_db.exec_cache_config)
        assert cached_db.execution_cache is before

    def test_outcome_carries_cache_stats(self, tiny_database, tiny_query):
        database = _clone(tiny_database, exec_cache=True)
        plan = database.plan(tiny_query)
        database.execute(tiny_query, plan)
        outcome = ExecutionOutcome.from_execution(database.execute(tiny_query, plan))
        assert isinstance(outcome.cache, CacheStats) and outcome.cache.outcome_hit

    def test_warmup_primes_subplan_memo(self, tiny_database, tiny_query):
        database = _clone(tiny_database, exec_cache=True)
        database.warmup([tiny_query])
        assert database.execution_cache.num_subplans > 0
        # The first "real" execution of the default plan is already a replay.
        result = database.execute(tiny_query, database.plan(tiny_query))
        assert result.cache.outcome_hit

    def test_pickle_ships_config_not_state(self, tiny_database, tiny_query):
        import pickle

        database = _clone(
            tiny_database, exec_cache=ExecutionCacheConfig(max_bytes=12345)
        )
        database.execute(tiny_query, database.plan(tiny_query))
        clone = pickle.loads(pickle.dumps(database))
        assert clone.exec_cache_config.max_bytes == 12345
        assert clone.execution_cache.num_outcomes == 0  # fresh cache
        assert clone.execution_cache is not database.execution_cache

    def test_older_pickles_still_load(self, tiny_database, tiny_query, monkeypatch):
        """A pickle whose state predates the cache config, or still carries the
        flag of the removed second join path, loads; the flag is ignored."""
        database = _clone(tiny_database, exec_cache=False)
        plan = database.plan(tiny_query)
        older = {**database.__getstate__(), "use_kernels": False}
        del older["exec_cache"]
        monkeypatch.setattr(Database, "__getstate__", lambda self: older)
        payload = pickle.dumps(database)
        monkeypatch.undo()
        clone = pickle.loads(payload)
        assert clone.exec_cache_config == ExecutionCacheConfig()
        got, want = clone.execute(tiny_query, plan), database.execute(tiny_query, plan)
        assert (got.latency, got.output_rows, got.breakdown) == (
            want.latency, want.output_rows, want.breakdown
        )


# --------------------------------------------------------------------- process pool
@pytest.mark.slow
class TestProcessPoolIsolation:
    def test_process_traces_match_inline_and_cache_off(self, tiny_workload):
        def run(**kwargs):
            with WorkloadSession(
                tiny_workload, budget=BudgetSpec(max_executions=6), seed=0, **kwargs
            ) as session:
                return session.run("random"), session.cache_report

        base, base_report = run(exec_config=ExecutionServiceConfig(plan_cache=False))
        cached, cached_report = run()
        pooled, pooled_report = run(
            exec_config=ExecutionServiceConfig(backend="process", max_workers=2)
        )
        for name in base:
            assert base[name].trace_signature() == cached[name].trace_signature()
            assert base[name].trace_signature() == pooled[name].trace_signature()
        assert base_report.cached_executions == 0
        assert cached_report.cached_executions == cached_report.executions > 0
        # Worker caches are private: their stats still reach the scheduler
        # through the outcomes.
        assert pooled_report.cached_executions == pooled_report.executions > 0
