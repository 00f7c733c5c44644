"""Tests of the end-to-end benchmark's own machinery (collected by tier-1)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from concurrent.futures import Future

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import e2e_metrics  # noqa: E402
import e2e_workloads  # noqa: E402
from e2e_layers import TimedBackend, inflight_profile  # noqa: E402

from repro.core import BudgetSpec, ExecutionServiceConfig  # noqa: E402
from repro.exec import make_backend  # noqa: E402
from repro.harness import WorkloadSession  # noqa: E402
from repro.obs import NULL_TRACER, Tracer  # noqa: E402
from repro.workloads import build_job_workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_matches_the_declarations_and_the_contract_limits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert contract == e2e_metrics.benchmark_contract(contract["run_seconds"])
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    for entry in contract["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert any(
        entry == {"name": "setup_s", "unit": "s", "better": "lower", "bound": entry["bound"]}
        for entry in contract["end_to_end"]
    )
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"] for entry in contract["workloads"])


def test_every_moves_reference_resolves():
    for name, (_, _, layer, source, moves) in e2e_metrics.PER_LAYER.items():
        assert source in ("span", "counter", "probe") and layer, name
        for metric, workload in moves:
            assert metric in e2e_metrics.END_TO_END, (name, metric)
            assert workload in e2e_metrics.WORKLOADS, (name, workload)


def test_compare_verdicts():
    def summary(value, q1, q3):
        return {"value": value, "q1": q1, "q3": q3}

    base = summary(1.0, 0.98, 1.02)
    assert compare.verdict(base, summary(1.2, 1.18, 1.22), "lower", 0.25) == "ok"
    assert compare.verdict(base, summary(1.3, 1.28, 1.32), "lower", 0.25) == "regressed"
    assert compare.verdict(base, summary(0.7, 0.68, 0.72), "higher", 0.25) == "regressed"
    assert compare.verdict(base, summary(0.7, 0.68, 0.72), "lower", 0.25) == "ok"
    # Quartiles wider than the bound that overlap the base's: the runs cannot tell.
    assert compare.verdict(base, summary(1.3, 1.0, 1.4), "lower", 0.25) == "unresolved"


def test_inflight_arithmetic_on_synthetic_timestamps():
    # Two overlapping requests in a window of 4: one second idle at the end.
    mean, idle = inflight_profile([(0.0, 2.0), (1.0, 3.0)], 0.0, 4.0)
    assert mean == pytest.approx(1.0) and idle == pytest.approx(0.25)
    # Clipped to the window; a gap in the middle counts as idle.
    mean, idle = inflight_profile([(-1.0, 1.0), (3.0, 9.0)], 0.0, 4.0)
    assert mean == pytest.approx(0.5) and idle == pytest.approx(0.5)
    assert inflight_profile([], 0.0, 2.0) == (0.0, 1.0)


class _FailingBackend:
    def capacity(self):
        return 1

    def healthy(self):
        return True

    def close(self):
        pass

    def submit(self, request):
        future = Future()
        future.set_exception(ValueError("plan failed"))
        return future


def test_timed_backend_propagates_exceptions_and_counts_them():
    ticks = iter(range(100))
    backend = TimedBackend(_FailingBackend(), clock=lambda: float(next(ticks)))
    with pytest.raises(ValueError, match="plan failed"):
        backend.submit(object()).result()
    metrics = backend.metrics(0.0, 10.0)
    assert metrics["exec.requests"] == 1 and metrics["exec.failed"] == 1
    assert metrics["exec.request_ms_p50"] == pytest.approx(1000.0)


def test_timed_backend_preserves_submit_batch_grouping():
    workload = build_job_workload(scale=0.05, seed=0, num_queries=6)
    queries = [q for q in workload.queries if q.num_tables <= 6][:2]
    config = ExecutionServiceConfig(backend="thread", max_workers=4, batch_size=4)
    backend = TimedBackend(make_backend(config, workload.database, queries))
    with WorkloadSession(
        workload, queries=queries, budget=BudgetSpec(max_executions=8), seed=0,
        backend=backend, exec_config=config,
    ) as session:
        results = session.run("random")
        assert session.cache_report.batched_executions > 0
    assert sum(r.num_executions for r in results.values()) == len(backend.requests)
    assert max(backend.batch_sizes) > 1
    assert all(done is not None and not failed for _, done, failed in backend.requests)


def test_serve_proxy_leaves_the_stream_trace_identical(tmp_path):
    sizes = e2e_workloads.Sizes().smoke()
    setup = e2e_workloads.setup_stack(sizes, NULL_TRACER)
    plain = e2e_workloads.pass_serve("serve_stream", setup, sizes, 3, NULL_TRACER, str(tmp_path))
    tracer = Tracer(capacity=4096)
    proxied = e2e_workloads.pass_serve("serve_stream", setup, sizes, 3, tracer, str(tmp_path))
    assert proxied.keep["stream"].trace() == plain.keep["stream"].trace()
    assert proxied.digest == plain.digest and not plain.failures and not proxied.failures
    arrivals = [r.attrs["arrival"] for r in tracer.spans() if r.name == "serve.serve"]
    assert arrivals == list(range(sizes.arrivals))


@pytest.mark.slow
def test_smoke_run_prints_every_declared_metric_once_per_workload():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    sections: dict = {}
    for line in done.stdout.splitlines():
        if line.startswith("== "):
            current = sections.setdefault(line.split()[1], [])
        elif line.startswith("  ") and not line.startswith("  note:"):
            current.append(line.split())
    assert set(sections) == set(e2e_metrics.WORKLOADS)
    units = {name: spec[0] for name, spec in {**e2e_metrics.END_TO_END, **e2e_metrics.PER_LAYER}.items()}
    for workload, rows in sections.items():
        printed = [row[0] for row in rows if row[0] != "failed_share"]
        assert sorted(printed) == sorted(units), workload
        assert all(row[2] == units[row[0]] for row in rows if row[0] != "failed_share")
        shares = [float(row[1]) for row in rows if row[0] == "failed_share"]
        assert shares == [0.0, 0.0], workload
