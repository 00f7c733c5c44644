"""Plan serving: store persistence, admission triage, server semantics, streams."""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.db.plan_cache as plan_cache_module
import repro.harness.checkpoint as checkpoint_module
import repro.serve.store as store_module
from repro.core import BayesQO, BayesQOConfig, reoptimize
from repro.core.protocol import BudgetSpec
from repro.db.query import FilterPredicate, Query
from repro.exceptions import OptimizationError
from repro.harness.checkpoint import atomic_pickle_save
from repro.serve import (
    STORE_FORMAT_VERSION,
    AdmissionConfig,
    AdmissionPolicy,
    DriftEvent,
    PlanServer,
    PlanStore,
    ServeConfig,
    ServeDecision,
    StoredObservation,
    StoreEntry,
    StoreFormatError,
    TrafficConfig,
    TrafficGenerator,
    data_signature,
    drive_stream,
    read_store_header,
)
from repro.utils.logging import get_logger
from repro.workloads.drift import rollback_to_date

V1_STORE = os.path.join(os.path.dirname(__file__), "data", "plan_store_v1.pkl")


def _serve_config(**overrides) -> ServeConfig:
    defaults = dict(
        technique="bao",
        budget=BudgetSpec(max_executions=6),
        drift_factor=1.3,
        seed=0,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


# --------------------------------------------------------------------- store
class TestPlanStore:
    def test_fingerprint_keyed_lookup(self, tiny_database, tiny_query, tiny_three_table_query):
        store = PlanStore()
        entry = store.ensure(tiny_query)
        assert store.get(tiny_query) is entry
        assert tiny_query in store
        assert tiny_three_table_query not in store
        # Same content under a different name shares the entry.
        renamed = dataclasses.replace(tiny_query, name="other_name")
        assert store.get(renamed) is entry
        # So does the same content built separately, in another order.
        shuffled = Query(
            name="built_elsewhere",
            table_refs=reversed(tiny_query.table_refs),
            join_predicates=[p.reversed() for p in reversed(tiny_query.join_predicates)],
            filters=reversed(tiny_query.filters),
        )
        assert store.ensure(shuffled) is entry
        assert len(store) == 1
        assert entry.ordinal == 0 and store.ensure(tiny_three_table_query).ordinal == 1

    def test_roundtrip(self, tmp_path, tiny_database, tiny_query):
        store = PlanStore(observation_window=8)
        entry = store.ensure(tiny_query)
        entry.best_plan = tiny_database.plan(tiny_query)
        entry.recorded_latency = 0.5
        entry.optimized = True
        entry.observe(0.4)
        entry.history.append(
            StoredObservation(plan=entry.best_plan, latency=0.5, censored=False,
                              timeout=None, source="bo")
        )
        store.server_state = {"arrivals": 7}
        path = os.path.join(tmp_path, "store.pkl")
        store.save(path)

        loaded = PlanStore.load(path)
        assert loaded is not None
        assert loaded.observation_window == 8
        restored = loaded.get(tiny_query)
        assert restored.best_plan.canonical() == entry.best_plan.canonical()
        assert restored.recorded_latency == 0.5
        assert restored.optimized
        assert list(restored.observed) == [0.4]
        assert len(restored.history) == 1
        assert loaded.server_state == {"arrivals": 7}

    def test_missing_and_corrupt_load_as_none(self, tmp_path):
        missing = os.path.join(tmp_path, "nope.pkl")
        assert PlanStore.load(missing) is None
        corrupt = os.path.join(tmp_path, "corrupt.pkl")
        with open(corrupt, "wb") as handle:
            handle.write(b"not a pickle")
        assert PlanStore.load(corrupt) is None
        # A pickle that is not a store payload is also "no store".
        other = os.path.join(tmp_path, "other.pkl")
        atomic_pickle_save(other, {"format": "something.else"})
        assert PlanStore.load(other) is None

    def test_version_mismatch_fails_loudly(self, tmp_path, tiny_query, monkeypatch):
        store = PlanStore()
        store.ensure(tiny_query)
        path = os.path.join(tmp_path, "store.pkl")
        written = store.save(path)
        header = read_store_header(path)
        assert header.version == STORE_FORMAT_VERSION == 2
        assert header.snapshot_bytes == written == os.path.getsize(path)
        assert PlanStore.load(path) is not None
        # The same store as a later build would write it.
        monkeypatch.setattr(store_module, "STORE_FORMAT_VERSION", STORE_FORMAT_VERSION + 1)
        store.save(path)
        monkeypatch.undo()
        assert read_store_header(path).version == STORE_FORMAT_VERSION + 1
        with pytest.raises(StoreFormatError, match="version 3.*version 2"):
            PlanStore.load(path)

    def test_v1_store_is_refused_without_unpickling(self, monkeypatch):
        # A plain-pickle store as the parent of the record log wrote it.
        assert read_store_header(V1_STORE).version == 1
        monkeypatch.setattr(
            store_module.pickle, "loads", lambda data: pytest.fail("unpickled a v1 store")
        )
        with pytest.raises(StoreFormatError, match="version 1.*version 2"):
            PlanStore.load(V1_STORE)

    def test_header_of_a_missing_or_foreign_file_is_none(self, tmp_path):
        assert read_store_header(os.path.join(tmp_path, "absent.pkl")) is None
        other = os.path.join(tmp_path, "other.pkl")
        atomic_pickle_save(other, {"format": "something.else"})
        assert read_store_header(other) is None

    def test_snapshot_failure_keeps_the_previous_file_and_no_temp(self, tmp_path, tiny_query):
        store = PlanStore()
        entry = store.ensure(tiny_query)
        path = os.path.join(tmp_path, "store.pkl")
        store.save(path)
        with open(path, "rb") as handle:
            before = handle.read()
        entry.optimizer = lambda: None  # an optimizer state that does not pickle
        with pytest.raises(Exception, match="pickle"):
            store.save(path)
        with open(path, "rb") as handle:
            assert handle.read() == before
        assert os.listdir(tmp_path) == ["store.pkl"]

    def test_interrupted_write_removes_its_temp_file(self, tmp_path, monkeypatch):
        path = os.path.join(tmp_path, "artifact.bin")
        checkpoint_module.atomic_write_bytes(path, b"first")

        def failing_replace(src, dst):
            raise OSError("disk says no")

        monkeypatch.setattr(checkpoint_module.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk says no"):
            checkpoint_module.atomic_write_bytes(path, b"second")
        monkeypatch.undo()
        with open(path, "rb") as handle:
            assert handle.read() == b"first"
        assert os.listdir(tmp_path) == ["artifact.bin"]

    def test_save_refuses_to_drop_an_unapplied_tail(self, tmp_path, tiny_database, tiny_query):
        database = tiny_database.snapshot()
        path = os.path.join(tmp_path, "store.pkl")
        server = PlanServer(database, config=_serve_config())
        server.checkpoint(path)
        server.serve(tiny_query)
        server.checkpoint(path)
        loaded = PlanStore.load(path)
        # The snapshot predates the serve; the serve waits in the tail.
        assert len(loaded) == 0 and len(loaded.tail) == 1
        with pytest.raises(StoreFormatError, match="tail"):
            loaded.save(os.path.join(tmp_path, "copy.pkl"))
        assert len(PlanServer.resume(path, database).store) == 1

    def test_cache_sync_and_prime(self, tmp_path, tiny_database, tiny_query):
        database = tiny_database.snapshot()
        plan = database.plan(tiny_query)
        first = database.execute(tiny_query, plan, timeout=600.0)
        store = PlanStore()
        assert store.sync_cache(database) > 0

        path = os.path.join(tmp_path, "store.pkl")
        store.save(path)
        loaded = PlanStore.load(path)

        fresh = tiny_database.snapshot()  # same data, empty cache
        assert fresh.execution_cache.export_outcomes() == []
        assert loaded.prime(fresh) > 0
        assert len(fresh.execution_cache.export_outcomes()) > 0
        replay = fresh.execute(tiny_query, plan, timeout=600.0)
        assert replay.latency == first.latency

    def test_fastest_history_plans(self, tiny_database, tiny_query, tiny_three_table_query):
        best = tiny_database.plan(tiny_query)
        other = tiny_database.plan(tiny_three_table_query)
        entry = StoreEntry(fingerprint=("fp",), query=tiny_query, best_plan=best)
        entry.history = [
            StoredObservation(plan=best, latency=0.1, censored=False, timeout=None, source="bo"),
            StoredObservation(plan=other, latency=0.3, censored=False, timeout=None, source="bo"),
            StoredObservation(plan=other, latency=0.2, censored=False, timeout=None, source="bo"),
            StoredObservation(plan=other, latency=0.05, censored=True, timeout=0.05, source="bo"),
        ]
        plans = entry.fastest_history_plans(4)
        # The incumbent and censored runs are excluded; duplicates collapse.
        assert [plan.canonical() for plan in plans] == [other.canonical()]

    def test_observed_median(self, tiny_query):
        entry = StoreEntry(fingerprint=("fp",), query=tiny_query)
        assert entry.observed_median() is None
        entry.observe(3.0)
        entry.observe(1.0)
        assert entry.observed_median() == pytest.approx(2.0)
        entry.observe(10.0)
        assert entry.observed_median() == pytest.approx(3.0)


# --------------------------------------------------------------------- admission
class TestAdmission:
    def test_popularity_ranks_unseen(self):
        policy = AdmissionPolicy(config=AdmissionConfig(min_arrivals=2, max_tasks_per_cycle=4))
        for _ in range(5):
            policy.note_arrival(("hot",), optimized=False)
        for _ in range(2):
            policy.note_arrival(("warm",), optimized=False)
        policy.note_arrival(("once",), optimized=False)
        tasks = policy.triage()
        assert [task.fingerprint for task in tasks] == [("hot",), ("warm",)]
        assert all(task.reason == "unseen" for task in tasks)

    def test_regression_outranks_unseen(self):
        policy = AdmissionPolicy(config=AdmissionConfig(min_arrivals=2, cooldown_arrivals=0))
        for _ in range(3):
            policy.note_arrival(("fresh",), optimized=False)
            policy.note_arrival(("drifted",), optimized=True)
        policy.flag_regression(("drifted",), severity=2.0)
        tasks = policy.triage()
        assert tasks[0].fingerprint == ("drifted",)
        assert tasks[0].reason == "regressed"

    def test_slo_pressure_admits_optimized_entries(self):
        policy = AdmissionPolicy(config=AdmissionConfig(min_arrivals=2, cooldown_arrivals=0))
        for _ in range(4):
            policy.note_arrival(("slow",), optimized=True)
            policy.note_latency(("slow",), slo_violated=True)
        tasks = policy.triage()
        assert tasks[0].fingerprint == ("slow",)
        assert tasks[0].reason == "slo"

    def test_cooldown_and_reset(self):
        policy = AdmissionPolicy(config=AdmissionConfig(min_arrivals=1, cooldown_arrivals=3))
        for _ in range(4):
            policy.note_arrival(("q",), optimized=False)
        assert policy.triage()
        policy.note_optimized(("q",))
        # Inside the cooldown nothing is admitted, even with a fresh signal.
        policy.note_arrival(("q",), optimized=True)
        policy.flag_regression(("q",), severity=3.0)
        assert policy.triage() == []
        for _ in range(3):
            policy.note_arrival(("q",), optimized=True)
        tasks = policy.triage()
        assert tasks and tasks[0].reason == "regressed"

    def test_deterministic_tie_break(self):
        policy = AdmissionPolicy(config=AdmissionConfig(min_arrivals=1, max_tasks_per_cycle=8))
        for name in ("b", "a", "c"):
            policy.note_arrival((name,), optimized=False)
        tasks = policy.triage()
        # Equal scores: first-arrival order wins, not lexicographic order.
        assert [task.fingerprint for task in tasks] == [("b",), ("a",), ("c",)]

    def test_validation(self):
        with pytest.raises(OptimizationError):
            AdmissionConfig(max_tasks_per_cycle=0)
        with pytest.raises(OptimizationError):
            AdmissionConfig(min_arrivals=0)


# --------------------------------------------------------------------- server
class _PoisonedDatabase:
    def __getattr__(self, name: str):
        raise AssertionError(f"fast path touched database.{name}")


class TestPlanServer:
    def test_miss_promotes_then_fast_path(self, tiny_database, tiny_query):
        server = PlanServer(tiny_database.snapshot(), config=_serve_config())
        first = server.serve(tiny_query)
        assert first.source == "default"
        second = server.serve(tiny_query)
        assert second.source == "store"
        assert second.plan.canonical() == first.plan.canonical()
        assert server.counters.misses == 1
        assert server.counters.fast_path == 1
        assert server.counters.planner_calls == 1

    def test_fast_path_never_touches_database(self, tiny_database, tiny_query):
        server = PlanServer(tiny_database.snapshot(), config=_serve_config())
        server.serve(tiny_query)
        server.database = _PoisonedDatabase()
        decision = server.serve(tiny_query)
        assert decision.source == "store"

    def test_fast_path_is_dict_probes(self, tmp_path, tiny_workload, monkeypatch):
        """Over known Query objects a serve plans nothing, executes nothing
        and rebuilds no fingerprint — with a journal to feed or without."""
        server = PlanServer(tiny_workload.database.snapshot(), config=_serve_config())
        for query in tiny_workload.queries:
            server.serve(query)
        server.checkpoint(os.path.join(tmp_path, "store.pkl"))
        monkeypatch.setattr(server, "database", _PoisonedDatabase())
        monkeypatch.setattr(
            plan_cache_module, "sorted", lambda *a, **k: pytest.fail("fingerprint rebuilt"),
            raising=False,
        )
        for journal in (server._journal, None):
            assert journal is None or not journal.pending
            server._journal = journal
            for _ in range(3):
                for query in tiny_workload.queries:
                    decision = server.serve(query)
                    assert decision.source == "store"
                    server.report(decision, 0.01)
            assert journal is None or len(journal.pending) == 3 * 2 * (5 + 14)

    def test_report_flags_drift(self, tiny_database, tiny_query):
        server = PlanServer(tiny_database.snapshot(), config=_serve_config(drift_factor=1.5))
        decision = server.serve(tiny_query)
        server.report(decision, 1.0)  # becomes the drift baseline
        assert server.store.get(tiny_query).recorded_latency == 1.0
        server.report(decision, 1.2)  # within tolerance
        assert server.counters.drift_flags == 0
        server.report(decision, 2.0)
        server.report(decision, 2.0)
        assert server.counters.drift_flags > 0
        stats = server.admission.stats[decision.fingerprint]
        assert stats.regression > 1.5

    def test_timed_out_report_counts_slo_not_drift(self, tiny_database, tiny_query):
        server = PlanServer(tiny_database.snapshot(), config=_serve_config(slo_latency=0.5))
        decision = server.serve(tiny_query)
        server.report(decision, 10.0, timed_out=True)
        assert server.counters.slo_violations == 1
        # Censored latencies never enter the drift window.
        assert len(server.store.get(tiny_query).observed) == 0

    def test_maintenance_optimizes_popular_entry(self, tiny_database, tiny_query):
        server = PlanServer(
            tiny_database.snapshot(),
            config=_serve_config(admission=AdmissionConfig(min_arrivals=2)),
        )
        for _ in range(3):
            decision = server.serve(tiny_query)
        records = server.run_maintenance()
        assert len(records) == 1
        assert records[0].reason == "unseen"
        assert records[0].technique == "bao"
        entry = server.store.get(tiny_query)
        assert entry.optimized
        assert entry.history  # the run's trace landed in the store
        assert entry.source == "bao"
        assert server.counters.maintenance_executions > 0
        # The stored optimizer state is detached from the live database.
        assert entry.optimizer is not None
        assert entry.optimizer.database is None
        # Post-maintenance the entry is inside its cooldown: no new tasks.
        assert server.run_maintenance() == []
        server.close()

    def test_checkpoint_resume_restores_state(self, tmp_path, tiny_database, tiny_query):
        database = tiny_database.snapshot()
        server = PlanServer(database, config=_serve_config())
        decision = server.serve(tiny_query)
        execution = database.execute(tiny_query, decision.plan, timeout=600.0)
        server.report(decision, execution.latency)
        path = os.path.join(tmp_path, "store.pkl")
        server.checkpoint(path)

        resumed = PlanServer.resume(path, database, config=_serve_config())
        assert resumed.counters.arrivals == 1
        assert resumed.counters.reports == 1
        assert len(resumed.slo_store) + len(resumed.slo_default) == 1
        assert decision.fingerprint in resumed.admission.stats
        # Same data signature: the execution cache was primed from the store.
        assert len(database.execution_cache.export_outcomes()) > 0
        assert len(resumed.database.execution_cache.export_outcomes()) > 0

    def test_resume_skips_priming_on_data_drift(self, tmp_path, tiny_database, tiny_query):
        database = tiny_database.snapshot()
        server = PlanServer(database, config=_serve_config())
        decision = server.serve(tiny_query)
        database.execute(tiny_query, decision.plan, timeout=600.0)
        path = os.path.join(tmp_path, "store.pkl")
        server.checkpoint(path)

        drifted = rollback_to_date(tiny_database, 500, date_column="order_date")
        assert data_signature(drifted) != data_signature(database)
        resumed = PlanServer.resume(path, drifted, config=_serve_config())
        # Stale outcome logs must not replay against different data.
        assert resumed.database.execution_cache.export_outcomes() == []
        # The store itself (plans, counters) still restores.
        assert resumed.counters.arrivals == 1

    def test_resume_missing_store_raises(self, tmp_path, tiny_database):
        with pytest.raises(OptimizationError):
            PlanServer.resume(os.path.join(tmp_path, "absent.pkl"), tiny_database)

    def test_config_validation(self):
        with pytest.raises(OptimizationError):
            ServeConfig(drift_factor=0.5)
        with pytest.raises(OptimizationError):
            ServeConfig(slo_latency=0.0)
        with pytest.raises(OptimizationError):
            ServeConfig(observation_window=0)


# --------------------------------------------------------------------- traffic + streams
class TestTraffic:
    def test_schedule_is_deterministic(self, tiny_workload):
        config = TrafficConfig(num_arrivals=50, seed=3)
        first = TrafficGenerator(tiny_workload.queries, config)
        second = TrafficGenerator(tiny_workload.queries, config)
        assert [a.query.name for a in first.arrivals()] == [
            a.query.name for a in second.arrivals()
        ]
        different = TrafficGenerator(
            tiny_workload.queries, TrafficConfig(num_arrivals=50, seed=4)
        )
        assert [a.query.name for a in first.arrivals()] != [
            a.query.name for a in different.arrivals()
        ] or first.ranked != different.ranked

    def test_bursts_concentrate_on_hot_set(self, job_workload_small):
        config = TrafficConfig(
            num_arrivals=300, seed=0, burst_every=100, burst_length=50,
            burst_hot_fraction=0.125, zipf_alpha=0.5,
        )
        generator = TrafficGenerator(job_workload_small.queries, config)
        hot = max(1, int(round(0.125 * len(job_workload_small.queries))))
        hot_names = {query.name for query in generator.ranked[:hot]}
        for arrival in generator.arrivals():
            if generator._in_burst(arrival.index):
                assert arrival.query.name in hot_names

    def test_arrival_slicing(self, tiny_workload):
        generator = TrafficGenerator(tiny_workload.queries, TrafficConfig(num_arrivals=20))
        full = generator.arrivals()
        assert [a.index for a in full] == list(range(20))
        tail = generator.arrivals(start=15)
        assert [a.index for a in tail] == list(range(15, 20))
        assert [a.query.name for a in tail] == [a.query.name for a in full[15:]]

    def test_validation(self, tiny_workload):
        with pytest.raises(OptimizationError):
            TrafficConfig(num_arrivals=0)
        with pytest.raises(OptimizationError):
            TrafficConfig(burst_hot_fraction=0.0)
        with pytest.raises(OptimizationError):
            TrafficGenerator([], TrafficConfig())


class TestStream:
    def test_stream_with_drift_and_resume_bitforbit(self, tmp_path, tiny_workload):
        future = tiny_workload.database.snapshot()
        past = rollback_to_date(future, 500, date_column="order_date")
        config = _serve_config(
            admission=AdmissionConfig(min_arrivals=2, cooldown_arrivals=4),
        )
        traffic = TrafficConfig(
            num_arrivals=40, seed=0, burst_every=0,
            drift_events=(DriftEvent(index=20, cutoff=None),),
        )
        generator = TrafficGenerator(tiny_workload.queries, traffic)

        with PlanServer(past, config=config, workload=tiny_workload) as reference_server:
            reference = drive_stream(
                reference_server, generator, future, maintenance_every=10
            )
        assert reference.drift_firings == [20]
        # Fast path: every arrival after first sight of each query is a hit.
        counters = reference_server.counters
        assert counters.fast_path == 40 - counters.misses
        assert counters.planner_calls == counters.misses

        kill_at = 28
        path = os.path.join(tmp_path, "store.pkl")
        with PlanServer(past, config=config, workload=tiny_workload) as victim:
            drive_stream(
                victim, generator, future, stop_index=kill_at,
                maintenance_every=10, checkpoint_path=path,
            )

        with PlanServer.resume(path, future, config=config, workload=tiny_workload) as resumed:
            assert resumed.counters.arrivals == kill_at
            tail = drive_stream(
                resumed, generator, future, start_index=kill_at, maintenance_every=10
            )
        reference_tail = [r for r in reference.records if r.index >= kill_at]
        assert tail.trace() == [
            (r.index, r.query_name, r.fingerprint, r.source, r.latency, r.timed_out)
            for r in reference_tail
        ]

    def test_resume_before_drift_reapplies_nothing(self, tmp_path, tiny_workload):
        future = tiny_workload.database.snapshot()
        past = rollback_to_date(future, 500, date_column="order_date")
        traffic = TrafficConfig(
            num_arrivals=12, seed=0, burst_every=0,
            drift_events=(DriftEvent(index=8, cutoff=None),),
        )
        generator = TrafficGenerator(tiny_workload.queries, traffic)
        with PlanServer(past, config=_serve_config(), workload=tiny_workload) as server:
            result = drive_stream(
                server, generator, future, stop_index=6, maintenance_every=0
            )
            assert result.drift_firings == []
            assert data_signature(server.database) == data_signature(past)


# --------------------------------------------------------------------- kill anywhere, resume exactly
def _reservoir(tracker) -> tuple:
    return (list(tracker._values), tracker._count, tracker._rng.bit_generator.state)


def _server_state(server) -> dict:
    """Everything a resumed server must agree on with the one that was killed."""
    return {
        "counters": server.counters.snapshot(),
        "admission": [
            (fingerprint, dataclasses.asdict(stats))
            for fingerprint, stats in server.admission.stats.items()
        ],
        "slo_store": _reservoir(server.slo_store),
        "slo_default": _reservoir(server.slo_default),
        "entries": [
            (
                fingerprint, entry.ordinal, entry.serves, list(entry.observed),
                entry.recorded_latency, entry.best_plan.canonical(), len(entry.history),
                entry.optimized, entry.source, entry.optimizations,
            )
            for fingerprint, entry in server.store.entries.items()
        ],
        "outcomes": {key for key, *_ in server.database.execution_cache.export_outcomes()},
    }


class _Recording:
    """A server stand-in for ``drive_stream`` that keeps, after every
    checkpoint, the file as it is on disk and the state the server is in: a
    process killed after arrival ``k`` leaves exactly ``files[k]``."""

    def __init__(self, server) -> None:
        self._server = server
        self.files: dict[int, bytes] = {}
        self.states: dict[int, dict] = {}

    def __getattr__(self, name: str):
        return getattr(self._server, name)

    def checkpoint(self, path: str) -> None:
        self._server.checkpoint(path)
        arrivals = self._server.counters.arrivals
        with open(path, "rb") as handle:
            self.files[arrivals] = handle.read()
        self.states[arrivals] = _server_state(self._server)


class _Scenario:
    """One stream with a drift event: the uninterrupted reference, and a
    victim that checkpointed after every arrival (see :class:`_Recording`)."""

    def __init__(self, queries, database, *, arrivals, drift_at, maintenance_every, config,
                 workload=None, **traffic) -> None:
        self._future = database
        self.config = config
        self.workload = workload
        self.arrivals = arrivals
        self.drift_at = drift_at
        self.maintenance_every = maintenance_every
        self.generator = TrafficGenerator(
            queries,
            TrafficConfig(
                num_arrivals=arrivals, seed=0,
                drift_events=(DriftEvent(index=drift_at, cutoff=None),), **traffic,
            ),
        )
        with PlanServer(self.past(), config=config, workload=workload) as server:
            self.reference = drive_stream(
                server, self.generator, self.future(), maintenance_every=maintenance_every
            )
        with tempfile.TemporaryDirectory() as tmp:
            with PlanServer(self.past(), config=config, workload=workload) as server:
                victim = _Recording(server)
                checkpointed = drive_stream(
                    victim, self.generator, self.future(), maintenance_every=maintenance_every,
                    checkpoint_path=os.path.join(tmp, "store.pkl"),
                )
        # Checkpointing observes; it never decides.
        assert checkpointed.trace() == self.reference.trace()
        assert checkpointed.maintenance == self.reference.maintenance
        self.files, self.states = victim.files, victim.states

    def future(self):
        """The post-drift database, with a cold execution cache."""
        return self._future.snapshot()

    def past(self):
        return rollback_to_date(self._future, 500, date_column="order_date")

    def resume(self, path: str, arrivals_served: int, **kwargs):
        """A server resumed from ``path`` on cold copies of the databases it
        faces after ``arrivals_served`` arrivals; and the stream's base."""
        future = self.future()
        database = future if arrivals_served > self.drift_at else self.past()
        kwargs.setdefault("config", self.config)
        return PlanServer.resume(path, database, workload=self.workload, **kwargs), future

    def check_kill(self, kill_at: int, second_kill_at: int) -> None:
        """Kill after ``kill_at`` arrivals, resume, go on *with* checkpoints
        to the same path, kill again, resume again, finish the stream."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "store.pkl")
            with open(path, "wb") as handle:
                handle.write(self.files[kill_at])
            resumed, future = self.resume(path, kill_at)
            with resumed:
                assert _server_state(resumed) == self.states[kill_at]
                first = drive_stream(
                    resumed, self.generator, future, start_index=kill_at,
                    stop_index=second_kill_at, maintenance_every=self.maintenance_every,
                    checkpoint_path=path,
                )
                at_second_kill = _server_state(resumed)
            again, future = self.resume(path, second_kill_at)
            with again:
                assert _server_state(again) == at_second_kill
                second = drive_stream(
                    again, self.generator, future, start_index=second_kill_at,
                    maintenance_every=self.maintenance_every,
                )
        assert first.trace() + second.trace() == self.reference.trace()[kill_at:]
        assert first.maintenance + second.maintenance == [
            record for record in self.reference.maintenance if record.arrival_index >= kill_at
        ]


@pytest.fixture(scope="module")
def tiny_scenario(tiny_workload):
    return _Scenario(
        tiny_workload.queries, tiny_workload.database, workload=tiny_workload,
        arrivals=40, drift_at=20, maintenance_every=10, burst_every=0,
        config=_serve_config(admission=AdmissionConfig(min_arrivals=2, cooldown_arrivals=4)),
    )


class TestKillAnywhere:
    @settings(max_examples=30, deadline=None)
    @given(kill_at=st.integers(1, 39), gap=st.integers(1, 39))
    @example(kill_at=28, gap=40)
    def test_resume_is_bitforbit_at_a_drawn_arrival(self, tiny_scenario, kill_at, gap):
        tiny_scenario.check_kill(kill_at, min(kill_at + gap, tiny_scenario.arrivals))

    def test_resume_is_bitforbit_at_the_named_arrivals(self, tiny_scenario):
        scenario = tiny_scenario
        after_a_miss = {r.index + 1 for r in scenario.reference.records if r.source == "default"}
        after_maintenance = {r.arrival_index + 1 for r in scenario.reference.maintenance}
        after_the_drift = {scenario.drift_at, scenario.drift_at + 1}
        assert len(after_a_miss) == 2 and len(after_maintenance) >= 2
        for kill_at in sorted(after_a_miss | after_maintenance | after_the_drift):
            if kill_at < scenario.arrivals:
                scenario.check_kill(kill_at, kill_at + 1)
                scenario.check_kill(kill_at, scenario.arrivals)

    def test_the_stream_exercises_appends_and_snapshots(self, tiny_scenario):
        headers = [
            store_module._parse_header(data, len(data)) for data in tiny_scenario.files.values()
        ]
        appended = sum(len(data) > header.snapshot_bytes
                       for data, header in zip(tiny_scenario.files.values(), headers))
        assert 0 < appended < len(headers)

    def test_a_path_that_holds_another_servers_file(self, tmp_path, tiny_scenario, tiny_database,
                                                    tiny_two_table_query):
        scenario = tiny_scenario
        path = os.path.join(tmp_path, "store.pkl")
        other_database = tiny_database.snapshot()
        with PlanServer(other_database, config=_serve_config()) as other:
            other.checkpoint(path)
            other.serve(tiny_two_table_query)
            other.checkpoint(path)  # snapshot and a tail record, not ours
        kill_at = 7
        with PlanServer(scenario.past(), config=scenario.config, workload=scenario.workload) as victim:
            drive_stream(
                victim, scenario.generator, scenario.future(), stop_index=kill_at,
                maintenance_every=scenario.maintenance_every, checkpoint_path=path,
            )
            at_kill = _server_state(victim)
        assert at_kill == scenario.states[kill_at]
        resumed, _ = scenario.resume(path, kill_at)
        with resumed:
            assert _server_state(resumed) == at_kill
            assert tiny_two_table_query not in resumed.store

    def test_tail_replays_under_the_recorded_config(self, tmp_path, tiny_scenario):
        scenario = tiny_scenario
        kill_at = 9  # a snapshot (first checkpoint) and eight appended records
        path = os.path.join(tmp_path, "store.pkl")
        with open(path, "wb") as handle:
            handle.write(scenario.files[kill_at])
        assert len(PlanStore.load(path).tail) == kill_at - 1
        # Under `other` every one of the nine reports would be an SLO violation
        # and none a drift flag.
        other = dataclasses.replace(scenario.config, slo_latency=1e-9, drift_factor=1e9)
        resumed, _ = scenario.resume(path, kill_at, config=other)
        with resumed:
            assert _server_state(resumed) == scenario.states[kill_at]
            assert resumed.counters.slo_violations == 0
            assert resumed.config is other
            decision = resumed.serve(scenario.generator.arrivals(0, 1)[0].query)
            resumed.report(decision, 0.001)
            assert resumed.counters.slo_violations == 1
        # No config given: the recorded one stays in force.
        resumed, _ = scenario.resume(path, kill_at, config=None)
        with resumed:
            assert resumed.config == scenario.config

    @pytest.mark.slow
    def test_every_arrival_of_a_longer_stream(self, tiny_workload, tiny_query,
                                              tiny_three_table_query):
        queries = [
            dataclasses.replace(
                query, name=f"{query.name}_v{value}",
                filters=[FilterPredicate(query.filters[0].alias, query.filters[0].column, "=", value)],
            )
            for query in (tiny_query, tiny_three_table_query)
            for value in range(5)
        ]
        scenario = _Scenario(
            queries, tiny_workload.database, arrivals=120, drift_at=60, maintenance_every=15,
            burst_every=40, burst_length=10, zipf_alpha=0.8,
            config=_serve_config(admission=AdmissionConfig(min_arrivals=2, cooldown_arrivals=4)),
        )
        assert len(scenario.reference.maintenance) >= 6
        for kill_at in range(1, scenario.arrivals):
            scenario.check_kill(kill_at, min(kill_at + 11, scenario.arrivals))


# --------------------------------------------------------------------- what a checkpoint costs
class TestCheckpointCost:
    def _serving(self, database, queries, path):
        """A server with every query optimized, served, reported and in the
        snapshot at ``path``."""
        server = PlanServer(
            database, config=_serve_config(admission=AdmissionConfig(min_arrivals=1))
        )
        for query in queries:
            decision = server.serve(query)
            execution = database.execute(query, decision.plan, timeout=600.0)
            server.report(decision, execution.latency)
        assert len(server.run_maintenance(limit=len(queries))) == len(queries)
        server.checkpoint(path)
        return server

    @staticmethod
    def _steady_arrival(server, query, path, monkeypatch) -> int:
        """Bytes one fast-path arrival + report + checkpoint add to the file."""
        replaced = []
        monkeypatch.setattr(checkpoint_module.os, "replace", lambda *args: replaced.append(args))
        before = os.path.getsize(path)
        decision = server.serve(query)
        assert decision.source == "store"
        server.report(decision, 0.01)
        server.checkpoint(path)
        monkeypatch.undo()
        assert replaced == []
        return os.path.getsize(path) - before

    def test_an_arrival_costs_the_same_with_ten_times_the_history(
        self, tmp_path, monkeypatch, tiny_workload
    ):
        database = tiny_workload.database.snapshot()
        path = os.path.join(tmp_path, "store.pkl")
        server = self._serving(database, tiny_workload.queries, path)
        query = tiny_workload.queries[0]
        small_store = read_store_header(path).snapshot_bytes
        small = self._steady_arrival(server, query, path, monkeypatch)
        assert 0 < small <= 256

        # Ten times the optimisation history and ten times the outcome logs.
        cache = database.execution_cache
        for entry in server.store.entries.values():
            entry.history = entry.history * 10
        for copy_index in range(9):
            for key, events, *rest in cache.export_outcomes()[: cache.num_outcomes]:
                cache.store_outcome(("copy", copy_index, key), list(events), *rest)
        assert server.run_maintenance() == []  # nothing new to optimize ...
        server._journal = None  # ... so ask for the snapshot a finished task would
        server.checkpoint(path)
        assert read_store_header(path).snapshot_bytes > 5 * small_store
        assert self._steady_arrival(server, query, path, monkeypatch) == small
        server.close()

    def test_the_file_never_exceeds_twice_its_snapshot(self, tmp_path, tiny_workload):
        database = tiny_workload.database.snapshot()
        path = os.path.join(tmp_path, "store.pkl")
        server = self._serving(database, tiny_workload.queries, path)
        snapshots = set()
        for index in range(3000):
            decision = server.serve(tiny_workload.queries[index % 2])
            server.report(decision, 0.01)
            server.checkpoint(path)
            header = read_store_header(path)
            assert os.path.getsize(path) <= 2 * header.snapshot_bytes
            snapshots.add(header.snapshot_bytes)
        # The tail was folded into a new snapshot now and then, not every time.
        assert 2 <= len(snapshots) <= 30
        resumed = PlanServer.resume(path, database)
        assert _server_state(resumed) == _server_state(server)
        server.close()

    def test_a_server_that_never_checkpoints_records_nothing(self, tiny_database, tiny_query):
        server = PlanServer(tiny_database.snapshot(), config=_serve_config())
        for _ in range(100_000):
            server.serve(tiny_query)
        assert server._journal is None

    def test_a_server_that_stops_checkpointing_stops_recording(self, tmp_path, tiny_database,
                                                               tiny_query):
        database = tiny_database.snapshot()
        path = os.path.join(tmp_path, "store.pkl")
        server = PlanServer(database, config=_serve_config())
        server.serve(tiny_query)
        server.checkpoint(path)
        journal = server._journal
        held = []
        for index in range(100_000):
            decision = server.serve(tiny_query)
            if index % 1000 == 0:
                server.report(decision, 0.01)
                held.append(0 if journal.pending is None else len(journal.pending))
        assert max(held) <= journal.snapshot_bytes
        assert held[0] > 0 and held[-1] == 0 and journal.pending is None
        # What was not recorded is not lost: the next checkpoint is a snapshot.
        server.checkpoint(path)
        assert server._journal is not journal
        assert os.path.getsize(path) == read_store_header(path).snapshot_bytes
        assert _server_state(PlanServer.resume(path, database)) == _server_state(server)

    def test_a_file_the_journal_did_not_leave_gets_a_snapshot(self, tmp_path, tiny_database,
                                                             tiny_query):
        database = tiny_database.snapshot()
        path = os.path.join(tmp_path, "store.pkl")
        server = PlanServer(database, config=_serve_config())
        server.serve(tiny_query)
        server.checkpoint(path)

        def arrive_and_checkpoint():
            server.report(server.serve(tiny_query), 0.01)
            server.checkpoint(path)
            assert _server_state(PlanServer.resume(path, database)) == _server_state(server)
            return os.path.getsize(path) > read_store_header(path).snapshot_bytes

        assert arrive_and_checkpoint()  # appended
        os.remove(path)
        assert not arrive_and_checkpoint()  # a missing file: a snapshot
        assert arrive_and_checkpoint()
        with open(path, "r+b") as handle:  # an append that did not finish
            handle.truncate(os.path.getsize(path) - 3)
        assert not arrive_and_checkpoint()
        assert arrive_and_checkpoint()
        with open(path, "ab") as handle:  # somebody else's bytes
            handle.write(b"stray")
        assert not arrive_and_checkpoint()
        assert os.listdir(tmp_path) == ["store.pkl"]

    def test_new_outcomes_are_exported_by_stamp_not_by_scan(self, tmp_path, tiny_database,
                                                            tiny_query, tiny_three_table_query):
        database = tiny_database.snapshot()
        path = os.path.join(tmp_path, "store.pkl")
        server = PlanServer(database, config=_serve_config())
        decision = server.serve(tiny_query)
        database.execute(tiny_query, decision.plan, timeout=600.0)
        server.checkpoint(path)
        exports = []
        real_export = database.execution_cache.export_outcomes
        database.execution_cache.export_outcomes = lambda since=0: (
            exports.append(since), real_export(since))[1]
        server.serve(tiny_query)
        server.checkpoint(path)  # nothing was executed: the cache is not asked
        assert exports == []
        decision = server.serve(tiny_three_table_query)
        database.execute(tiny_three_table_query, decision.plan, timeout=600.0)
        server.checkpoint(path)
        assert exports == [1]
        fresh = tiny_database.snapshot()
        PlanServer.resume(path, fresh)
        assert {key for key, *_ in fresh.execution_cache.export_outcomes()} == {
            key for key, *_ in real_export()
        }


# --------------------------------------------------------------------- hostile bytes
class TestHostileBytes:
    @pytest.fixture(scope="class")
    def written(self, tiny_database, tiny_query, tiny_three_table_query, tiny_two_table_query):
        """A file with a snapshot and two tail records; the file and the
        server's state as of the checkpoint before the last."""
        database = tiny_database.snapshot()
        server = PlanServer(database, config=_serve_config())

        def arrive(query, report=True):
            decision = server.serve(query)
            execution = database.execute(query, decision.plan, timeout=600.0)
            if report:
                server.report(decision, execution.latency)

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "store.pkl")
            arrive(tiny_query)
            arrive(tiny_three_table_query)
            server.checkpoint(path)
            arrive(tiny_query)
            server.checkpoint(path)
            with open(path, "rb") as handle:
                previous = handle.read()
            previous_state = _server_state(server)
            arrive(tiny_two_table_query)  # a miss, a new outcome log,
            arrive(tiny_query, report=False)  # a hit
            orphan = ServeDecision(tiny_query, None, source="store", fingerprint=("unknown",))
            server.report(orphan, 0.5)  # and a report the store has no entry for
            server.checkpoint(path)
            with open(path, "rb") as handle:
                complete = handle.read()
        assert complete.startswith(previous) and len(complete) > len(previous)
        assert len(previous) > read_header(previous).snapshot_bytes
        return previous, previous_state, complete, _server_state(server)

    @staticmethod
    def _resume(tmp_path, database, data: bytes):
        path = os.path.join(tmp_path, "store.pkl")
        with open(path, "wb") as handle:
            handle.write(data)
        return PlanServer.resume(path, database, config=_serve_config())

    def test_the_complete_file_resumes_to_the_last_checkpoint(self, tmp_path, tiny_database,
                                                              written):
        previous, previous_state, complete, complete_state = written
        for data, state in ((complete, complete_state), (previous, previous_state)):
            assert _server_state(self._resume(tmp_path, tiny_database.snapshot(), data)) == state

    def test_a_torn_last_record_resumes_to_the_checkpoint_before(self, tmp_path, tiny_database,
                                                                 written):
        previous, previous_state, complete, _ = written
        # One cold database for every cut: each resume primes it with the
        # same outcome logs, or fails the comparison there and then.
        database = tiny_database.snapshot()
        for cut in range(len(previous) + 1, len(complete)):
            with _repro_warnings() as warnings:
                resumed = self._resume(tmp_path, database, complete[:cut])
            assert _server_state(resumed) == previous_state, cut
            (warning,) = warnings
            message = warning.getMessage()
            assert os.path.join(tmp_path, "store.pkl") in message
            assert f"byte {len(previous)}" in message

    def test_a_file_cut_inside_its_snapshot_is_refused(self, tmp_path, tiny_database, written):
        previous, *_ = written
        snapshot_bytes = read_header(previous).snapshot_bytes
        for cut in range(12, snapshot_bytes):
            with pytest.raises(StoreFormatError):
                self._resume(tmp_path, tiny_database, previous[:cut])
        # Cut inside the 12-byte header it is not a store at all.
        path = os.path.join(tmp_path, "store.pkl")
        for cut in range(12):
            with open(path, "wb") as handle:
                handle.write(previous[:cut])
            assert PlanStore.load(path) is None
            with pytest.raises(OptimizationError):
                PlanServer.resume(path, tiny_database)

    def test_a_flipped_bit_anywhere_is_refused_before_unpickling(self, tmp_path, tiny_database,
                                                                 written, monkeypatch):
        *_, complete, _ = written
        monkeypatch.setattr(
            store_module.pickle, "loads", lambda data: pytest.fail("unpickled a damaged file")
        )
        path = os.path.join(tmp_path, "store.pkl")
        for offset in range(8, len(complete)):  # behind the magic
            damaged = bytearray(complete)
            damaged[offset] ^= 1 << (offset % 8)
            with open(path, "wb") as handle:
                handle.write(damaged)
            with pytest.raises(StoreFormatError):
                PlanStore.load(path)
        # A damaged magic: not a store.
        with open(path, "wb") as handle:
            handle.write(b"X" + complete[1:])
        assert PlanStore.load(path) is None

    def test_a_record_kind_out_of_place_is_refused(self, tmp_path, tiny_database, written):
        previous, *_ = written
        header = previous[:12]
        snapshot = previous[12 : read_header(previous).snapshot_bytes]
        tail = previous[read_header(previous).snapshot_bytes :]
        for data in (
            previous + store_module._frame(7, b"from a later build?"),
            previous + snapshot,  # a second snapshot
            header + tail,  # no snapshot
            header,
        ):
            with pytest.raises(StoreFormatError, match="record kinds"):
                self._resume(tmp_path, tiny_database, data)
        # A tail record that checks out but holds no operation of ours: the
        # store carries it, the server refuses it.
        foreign = previous + store_module._frame(store_module._TAIL_RECORD, b"\x09junk")
        path = os.path.join(tmp_path, "store.pkl")
        with open(path, "wb") as handle:
            handle.write(foreign)
        assert len(PlanStore.load(path).tail) == 2
        with pytest.raises(StoreFormatError, match="operation kind 9"):
            PlanServer.resume(path, tiny_database)
        cut_short = previous + store_module._frame(store_module._TAIL_RECORD, b"\x01\x00")
        with pytest.raises(StoreFormatError, match="does not decode"):
            self._resume(tmp_path, tiny_database, cut_short)


@contextlib.contextmanager
def _repro_warnings():
    """Warnings of the ``repro`` logger (it does not propagate: caplog never
    sees it)."""
    records: list[logging.LogRecord] = []
    handler = logging.Handler(level=logging.WARNING)
    handler.emit = records.append
    logger = get_logger()
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


def read_header(data: bytes):
    return store_module._parse_header(data[:64], len(data))


# --------------------------------------------------------------------- reoptimize satellite
class TestWarmStartFromStore:
    def test_reoptimize_seeds_from_deserialized_history(
        self, tmp_path, tiny_database, tiny_schema_model, tiny_query
    ):
        database = tiny_database.snapshot()
        # An "earlier session": maintenance optimizes the query, the store
        # (with its observation history) is persisted.
        server = PlanServer(
            database,
            config=_serve_config(admission=AdmissionConfig(min_arrivals=1)),
        )
        for _ in range(2):
            server.serve(tiny_query)
        assert server.run_maintenance()
        path = os.path.join(tmp_path, "store.pkl")
        server.checkpoint(path)
        server.close()

        # A "later session": nothing in memory but the store file.
        store = PlanStore.load(path)
        entry = store.get(tiny_query)
        assert entry.optimized and entry.history
        history = entry.fastest_history_plans(3)

        optimizer = BayesQO(
            database,
            tiny_schema_model,
            config=BayesQOConfig(max_executions=6, num_candidates=16, seed=0),
        )
        outcome = reoptimize(
            optimizer, tiny_query, entry.best_plan, max_executions=6, history=history,
            include_bao=False,
        )
        sources = {record.source for record in outcome.result.trace}
        assert "init:past_plan" in sources
        if history:
            assert "init:history" in sources
        assert outcome.result.best_latency_or(float("inf")) <= entry.recorded_latency * 2
