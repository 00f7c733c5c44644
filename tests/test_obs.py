"""Observability: tracer semantics, metrics registry, exporters, determinism.

The layer's contract has two halves and both are pinned here: the telemetry
*works* (spans link causally, worker spans fold in without id collisions,
registries merge, exports round-trip) and the telemetry *does not perturb*
(session and serve-stream traces are bit-for-bit identical with tracing on
or off).
"""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest

from repro.core.protocol import BudgetSpec
from repro.harness import WorkloadSession
from repro.harness.metrics import StreamingPercentiles
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    SpanRecord,
    Tracer,
    chrome_trace,
    read_jsonl,
    render_report,
    span_stats,
    write_chrome_trace,
    write_jsonl,
)
from repro.serve import (
    AdmissionConfig,
    DriftEvent,
    PlanServer,
    ServeConfig,
    TrafficConfig,
    TrafficGenerator,
    drive_stream,
)
from repro.workloads.drift import rollback_to_date


class FakeClock:
    """A manually advanced clock: deterministic span durations in tests."""

    def __init__(self) -> None:
        self.time = 0.0

    def __call__(self) -> float:
        return self.time

    def tick(self, dt: float = 1.0) -> float:
        self.time += dt
        return self.time


# ------------------------------------------------------------------ tracer
class TestTracer:
    def test_span_context_manager_records_on_exit(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", category="test", answer=42) as span:
            clock.tick(2.0)
            span.annotate(extra="yes")
        [record] = tracer.spans()
        assert record.name == "outer"
        assert record.category == "test"
        assert record.duration == 2.0
        assert record.attrs == {"answer": 42, "extra": "yes"}
        assert record.parent_id is None

    def test_nesting_links_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner", parent=outer):
                pass
        inner, outer_record = tracer.spans()
        assert inner.name == "inner"
        assert inner.parent_id == outer_record.span_id
        # Accepts raw ids too.
        tracer.instant("marker", parent=outer_record.span_id)
        assert tracer.spans()[-1].parent_id == outer_record.span_id

    def test_exception_annotates_error(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("fails"):
                raise ValueError("boom")
        [record] = tracer.spans()
        assert record.attrs["error"] == "ValueError"

    def test_record_with_explicit_start_and_end(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        start = tracer.now()
        clock.tick(3.0)
        record = tracer.record("direct", start, category="test", hit=True)
        assert record.duration == 3.0
        assert record.attrs == {"hit": True}
        explicit = tracer.record("explicit", 1.0, end=1.5)
        assert explicit.duration == 0.5

    def test_instant_is_zero_duration(self):
        tracer = Tracer(clock=FakeClock())
        record = tracer.instant("mark", category="test")
        assert record.duration == 0.0

    def test_ids_are_unique_and_increasing(self):
        tracer = Tracer(clock=FakeClock())
        ids = [tracer.instant(f"s{i}").span_id for i in range(10)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 10

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=3, clock=FakeClock())
        for i in range(5):
            tracer.instant(f"s{i}")
        assert [r.name for r in tracer.spans()] == ["s2", "s3", "s4"]
        assert len(tracer) == 3

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_drain_empties_buffer(self):
        tracer = Tracer(clock=FakeClock())
        tracer.instant("a")
        drained = tracer.drain()
        assert [r.name for r in drained] == ["a"]
        assert len(tracer) == 0

    def test_adopt_reissues_ids_and_remaps_links(self):
        worker = Tracer(clock=FakeClock())
        outer = worker.span("w.outer").done()
        inner = worker.instant("w.inner", parent=outer)
        worker.instant("w.follower", follows=inner.span_id)

        scheduler = Tracer(clock=FakeClock())
        # Burn scheduler ids so worker ids would collide without remapping.
        for i in range(5):
            scheduler.instant(f"s{i}")
        root = scheduler.spans()[0]
        adopted = scheduler.adopt(worker.drain(), parent=root)

        by_name = {r.name: r for r in adopted}
        scheduler_ids = {r.span_id for r in scheduler.spans()}
        assert len(scheduler_ids) == len(scheduler.spans())  # no collisions
        # Roots re-parented under the given parent; intra-batch links remapped.
        assert by_name["w.outer"].parent_id == root.span_id
        assert by_name["w.inner"].parent_id == by_name["w.outer"].span_id
        assert by_name["w.follower"].attrs["follows"] == by_name["w.inner"].span_id

    def test_pickle_roundtrip_keeps_records_and_fresh_ids(self):
        tracer = Tracer(capacity=8, clock=FakeClock())
        tracer.instant("before", key="value")
        clone = pickle.loads(pickle.dumps(tracer))
        assert clone.spans() == tracer.spans()
        assert clone.capacity == 8
        taken = {r.span_id for r in clone.spans()}
        new = clone.instant("after")
        assert new.span_id not in taken

    def test_unpicklable_clock_falls_back(self):
        tracer = Tracer(clock=lambda: 0.0)
        clone = pickle.loads(pickle.dumps(tracer))
        assert clone.now() >= 0.0  # perf_counter fallback

    def test_span_record_roundtrip(self):
        record = SpanRecord(1, None, "n", "c", 0.0, 1.0, {"a": 1})
        assert pickle.loads(pickle.dumps(record)) == record
        assert record.replace(name="m").name == "m"
        assert record.replace(name="m") != record


class TestNullTracer:
    def test_is_inert(self, tmp_path):
        tracer = NullTracer()
        assert not tracer.enabled
        with tracer.span("ignored", category="x") as span:
            span.annotate(anything=1)
        assert tracer.record("ignored", 0.0) is None
        assert tracer.instant("ignored") is None
        assert tracer.adopt([SpanRecord(1, None, "n", "c", 0.0, 1.0, {})]) == []
        assert tracer.spans() == [] and tracer.drain() == [] and len(tracer) == 0

    def test_shared_singleton(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


# ------------------------------------------------------------------ metrics
class TestMetricsRegistry:
    def test_instruments_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_sections(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(3)
        registry.gauge("depth").set(2.5)
        for value in [1.0, 2.0, 3.0, 4.0]:
            registry.histogram("lat").observe(value)
        snap = registry.snapshot()
        assert snap["counters"] == {"events": 3}
        assert snap["gauges"] == {"depth": 2.5}
        assert snap["histograms"]["lat"]["count"] == 4
        assert snap["histograms"]["lat"]["p50"] == pytest.approx(2.5)

    def test_timer_uses_injected_clock(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        with registry.timer("step"):
            clock.tick(4.0)
        assert registry.histogram("step").percentile(50) == pytest.approx(4.0)

    def test_providers_surface_and_failures_are_contained(self):
        registry = MetricsRegistry()
        registry.register_provider("good", lambda: {"ok": 1})

        def bad():
            raise RuntimeError("subsystem down")

        registry.register_provider("bad", bad)
        providers = registry.snapshot()["providers"]
        assert providers["good"] == {"ok": 1}
        assert providers["bad"] == {"error": "RuntimeError: subsystem down"}

    def test_merge_folds_worker_registry(self):
        main, worker = MetricsRegistry(), MetricsRegistry()
        main.counter("n").inc(2)
        worker.counter("n").inc(5)
        worker.gauge("depth").set(7.0)
        for value in [1.0, 2.0]:
            main.histogram("lat").observe(value)
        for value in [3.0, 4.0]:
            worker.histogram("lat").observe(value)
        worker.histogram("worker_only").observe(9.0)
        main.merge(worker)
        snap = main.snapshot()
        assert snap["counters"]["n"] == 7
        assert snap["gauges"]["depth"] == 7.0
        assert snap["histograms"]["lat"]["count"] == 4
        assert snap["histograms"]["worker_only"]["count"] == 1

    def test_pickle_drops_providers_keeps_instruments(self):
        registry = MetricsRegistry(clock=lambda: 0.0)
        registry.counter("n").inc(4)
        registry.register_provider("p", lambda: {"x": 1})
        clone = pickle.loads(pickle.dumps(registry))
        snap = clone.snapshot()
        assert snap["counters"]["n"] == 4
        assert snap["providers"] == {}


# ------------------------------------------- StreamingPercentiles.merge
class TestStreamingPercentilesMerge:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("sizes", [(5, 5), (0, 20), (30, 1), (64, 64)])
    def test_under_capacity_merge_is_exact_vs_numpy(self, seed, sizes):
        rng = np.random.default_rng(seed)
        left_data = rng.exponential(size=sizes[0])
        right_data = rng.exponential(size=sizes[1])
        left = StreamingPercentiles(capacity=256, seed=seed)
        right = StreamingPercentiles(capacity=256, seed=seed + 1)
        for value in left_data:
            left.add(value)
        for value in right_data:
            right.add(value)
        left.merge(right)
        combined = np.concatenate([left_data, right_data])
        assert len(left) == len(combined)
        for q in (10, 50, 90, 99):
            assert left.percentile(q) == pytest.approx(
                float(np.percentile(combined, q)), rel=1e-12
            )

    def test_over_capacity_merge_is_deterministic_and_bounded(self):
        def build():
            rng = np.random.default_rng(3)
            left = StreamingPercentiles(capacity=32, seed=0)
            right = StreamingPercentiles(capacity=32, seed=1)
            for value in rng.normal(10.0, 1.0, size=200):
                left.add(value)
            for value in rng.normal(20.0, 1.0, size=200):
                right.add(value)
            left.merge(right)
            return left

        first, second = build(), build()
        assert len(first) == 400
        assert first._values == second._values  # seeded: same merge, same reservoir
        # The subsample still spans both streams.
        assert first.percentile(10) < 15.0 < first.percentile(90)

    def test_merge_empty_is_noop(self):
        left = StreamingPercentiles(capacity=8, seed=0)
        left.add(1.0)
        left.merge(StreamingPercentiles(capacity=8, seed=1))
        assert len(left) == 1 and left.percentile(50) == 1.0

    def test_pickle_roundtrip_preserves_stream_state(self):
        tracker = StreamingPercentiles(capacity=16, seed=5)
        for value in range(40):
            tracker.add(float(value))
        clone = pickle.loads(pickle.dumps(tracker))
        assert len(clone) == len(tracker)
        assert clone.snapshot() == tracker.snapshot()
        # Continued streams evolve identically: the RNG state travelled.
        tracker.add(99.0)
        clone.add(99.0)
        assert clone.snapshot() == tracker.snapshot()


# ------------------------------------------------------------------ export
class TestExport:
    def _records(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", category="exec", query="q1") as outer:
            clock.tick(1.0)
            tracer.instant("inner", category="serve", parent=outer, follows=7)
            clock.tick(1.0)
        return tracer.spans()

    def test_jsonl_roundtrip(self, tmp_path):
        records = self._records()
        path = os.path.join(tmp_path, "spans.jsonl")
        write_jsonl(records, path)
        assert read_jsonl(path) == records
        write_jsonl(records, path, append=True)
        assert read_jsonl(path) == records + records

    def test_chrome_trace_layout(self, tmp_path):
        records = self._records()
        trace = chrome_trace(records, process_name="unit")
        events = trace["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {"unit", "exec", "serve"} <= {e["args"]["name"] for e in metadata}
        by_name = {e["name"]: e for e in spans}
        # Categories map to distinct tracks; µs timestamps; attrs land in args.
        assert by_name["outer"]["tid"] != by_name["inner"]["tid"]
        assert by_name["outer"]["dur"] == pytest.approx(2e6)
        assert by_name["inner"]["args"]["follows"] == 7
        assert by_name["inner"]["args"]["parent_id"] == by_name["outer"]["args"]["span_id"]

        path = os.path.join(tmp_path, "trace.json")
        write_chrome_trace(records, path, process_name="unit")
        with open(path) as handle:
            assert json.load(handle)["traceEvents"]


class TestReport:
    def test_span_stats_subtracts_child_self_time(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("parent") as parent:
            clock.tick(1.0)
            with tracer.span("child", parent=parent):
                clock.tick(3.0)
        stats = span_stats(tracer.spans())
        assert stats["parent"]["total"] == pytest.approx(4.0)
        assert stats["parent"]["self"] == pytest.approx(1.0)
        assert stats["child"]["self"] == pytest.approx(3.0)

    def test_render_report_sections(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work", category="exec"):
            clock.tick(1.0)
        registry = MetricsRegistry()
        registry.counter("served").inc(2)
        registry.histogram("lat").observe(0.5)
        registry.register_provider("cache", lambda: {"hits": 3})
        text = render_report(tracer.spans(), registry.snapshot())
        for needle in ("observability report", "work", "exec", "served", "lat", "cache", "hits"):
            assert needle in text

    def test_render_report_without_spans(self):
        assert "no spans buffered" in render_report([], None)


# ------------------------------------------------- integration: determinism
def _serve_setup(workload):
    future = workload.database.snapshot()
    past = rollback_to_date(future, 500, date_column="order_date")
    config = ServeConfig(
        technique="bao",
        budget=BudgetSpec(max_executions=6),
        drift_factor=1.3,
        seed=0,
        admission=AdmissionConfig(min_arrivals=2, cooldown_arrivals=4),
    )
    traffic = TrafficConfig(
        num_arrivals=40, seed=0, burst_every=0,
        drift_events=(DriftEvent(index=20, cutoff=None),),
    )
    generator = TrafficGenerator(workload.queries, traffic)
    return past, future, config, generator


class TestTracingDeterminism:
    def test_serve_stream_identical_traced_and_untraced(self, tiny_workload):
        past, future, config, generator = _serve_setup(tiny_workload)
        with PlanServer(past, config=config, workload=tiny_workload) as untraced:
            reference = drive_stream(untraced, generator, future, maintenance_every=10)
        tracer = Tracer()
        with PlanServer(past, config=config, workload=tiny_workload, tracer=tracer) as server:
            traced = drive_stream(server, generator, future, maintenance_every=10)
        assert traced.trace() == reference.trace()
        assert len(tracer) > 0

    def test_serve_stream_causal_chain_reconstructs(self, tiny_workload):
        past, future, config, generator = _serve_setup(tiny_workload)
        tracer = Tracer()
        with PlanServer(past, config=config, workload=tiny_workload, tracer=tracer) as server:
            drive_stream(server, generator, future, maintenance_every=10)
        from benchmarks.bench_obs import count_causal_chains

        spans = tracer.spans()
        names = {record.name for record in spans}
        assert {
            "serve.arrival", "serve.admission", "serve.reoptimize", "store.upsert",
            "optimize.suggest", "optimize.observe",
        } <= names
        assert count_causal_chains(spans) >= 1

    def test_session_identical_traced_and_untraced(self, tiny_workload):
        budget = BudgetSpec(max_executions=6)
        reference = WorkloadSession(tiny_workload, budget=budget, seed=0).run("random")
        tracer = Tracer()
        session = WorkloadSession(tiny_workload, budget=budget, seed=0, tracer=tracer)
        traced = session.run("random")
        assert {n: r.trace_signature() for n, r in traced.items()} == {
            n: r.trace_signature() for n, r in reference.items()
        }
        names = {record.name for record in tracer.spans()}
        assert {"optimize.suggest", "optimize.observe", "exec.request"} <= names
        assert "== observability report ==" in session.obs_report()

    @pytest.mark.slow
    def test_process_pool_worker_spans_are_adopted(self, tiny_workload):
        budget = BudgetSpec(max_executions=6)
        tracer = Tracer()
        with WorkloadSession(
            tiny_workload, budget=budget, seed=0, backend="process",
            max_workers=2, tracer=tracer,
        ) as session:
            session.run("random")
        spans = tracer.spans()
        worker_runs = [r for r in spans if r.name == "exec.run"]
        requests = {r.span_id: r for r in spans if r.name in ("exec.request", "exec.complete")}
        assert worker_runs, "worker spans never made it back to the scheduler"
        # Every adopted worker span hangs off a scheduler-side request span.
        assert all(run.parent_id in requests for run in worker_runs)
        ids = [r.span_id for r in spans]
        assert len(ids) == len(set(ids))


class TestServerHealthReport:
    def test_health_report_surfaces_execution_cache(self, tiny_database, tiny_query):
        config = ServeConfig(
            technique="bao", budget=BudgetSpec(max_executions=6),
            drift_factor=1.3, seed=0,
        )
        server = PlanServer(tiny_database.snapshot(), config=config)
        try:
            server.serve(tiny_query)
            health = server.health_report()
            cache = getattr(server.database, "execution_cache", None)
            if cache is not None:
                assert health["execution_cache"] == cache.counters.snapshot()
            assert server.summary()["health"] == health
        finally:
            server.close()

    def test_metrics_snapshot_carries_serve_counters(self, tiny_database, tiny_query):
        config = ServeConfig(
            technique="bao", budget=BudgetSpec(max_executions=6),
            drift_factor=1.3, seed=0,
        )
        server = PlanServer(tiny_database.snapshot(), config=config)
        try:
            server.serve(tiny_query)
            providers = server.metrics.snapshot()["providers"]
            assert providers["serve"]["arrivals"] == 1
            assert "admission" in providers and "backend_health" in providers
        finally:
            server.close()
