"""Observability benchmark: the acceptance gates of the telemetry layer.

The observability layer's contract is "free when off, cheap when on, and it
never perturbs what it observes".  This benchmark drives the serve stream of
``bench_serve.py`` twice — once untraced, once through a live
:class:`~repro.obs.Tracer` — and gates on what that contract means, each
check deterministic:

* **free when off** — with tracing disabled, ``serve()`` reads the tracer's
  ``enabled`` flag and nothing else: a stand-in tracer on which every other
  attribute raises serves the whole probe (over a poisoned database, so the
  fast path is also shown to plan and execute nothing).
* **cheap when on** — with a live tracer the steady state records only
  *causally novel* arrivals (first arrival per fingerprint, first after each
  admission/upsert): a repeat arrival whose last chain event is already an
  arrival records no span, so the probe's span count stops growing after its
  first round.
* **determinism** — the traced and untraced streams produce bit-for-bit
  identical serve traces: telemetry observes, never decides.
* **causal chains** — from the traced stream's flat span list, at least one
  complete chain reconstructs by links alone: a fast-path arrival *follows*
  a store upsert, the upsert's *parent* is a re-optimization span, which
  *follows* an admission verdict, which *follows* the arrival that tripped
  it.

``disabled_serve_us`` and ``traced_serve_us`` (min-of-trials cost of one
fast-path serve) are reported as plain numbers and tracked, warn-only, by
``bench_trend.py``.  They are not gated: a fast-path serve is a few dict
probes, and a ratio of two ~2 us loops measures the machine's mood.  The
budget for tracing overhead is ``obs.trace_overhead_ratio`` of the
end-to-end benchmark (``benchmarks/e2e``).

Run:  PYTHONPATH=src python benchmarks/bench_obs.py [--smoke] [--json PATH] [--trace PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter as TallyCounter

from repro.core.protocol import BudgetSpec
from repro.db.query import Query
from repro.obs import Tracer, write_chrome_trace
from repro.serve import (
    DriftEvent,
    PlanServer,
    ServeConfig,
    TrafficConfig,
    TrafficGenerator,
    drive_stream,
)
from repro.utils import get_logger
from repro.workloads.drift import rollback_to_date
from repro.workloads.stack import STACK_DATE_2017, build_stack_workload

logger = get_logger("bench")

SEED = 0
FULL_ARRIVALS = 500
SMOKE_ARRIVALS = 160
FULL_QUERIES = 16
SMOKE_QUERIES = 10
MAINTENANCE_EVERY = 25
QPS_PROBES = 20_000
PROBE_TRIALS = 7


class _PoisonedDatabase:
    """Any attribute access raises — the probe must stay a pure store lookup."""

    def __getattr__(self, name: str):
        raise AssertionError(f"fast path touched database.{name}")


class _DisabledTracer:
    """A disabled tracer on which everything but ``enabled`` raises."""

    enabled = False

    def __getattr__(self, name: str):
        raise AssertionError(f"serve() with tracing off touched tracer.{name}")


def _serve_config() -> ServeConfig:
    return ServeConfig(
        technique="bao",
        budget=BudgetSpec(max_executions=16),
        drift_factor=1.3,
        seed=SEED,
    )


def _traffic_config(arrivals: int) -> TrafficConfig:
    return TrafficConfig(
        num_arrivals=arrivals,
        zipf_alpha=1.1,
        seed=SEED,
        burst_every=120,
        burst_length=40,
        drift_events=(DriftEvent(index=arrivals // 2, cutoff=None),),
    )


def _probe(serve, queries: list[Query]) -> float:
    """Min-of-trials wall time of ``QPS_PROBES`` fast-path serves."""
    best = float("inf")
    for _ in range(PROBE_TRIALS):
        start = time.perf_counter()
        for i in range(QPS_PROBES):
            serve(queries[i % len(queries)])
        best = min(best, time.perf_counter() - start)
    return best


def count_causal_chains(spans) -> int:
    """Complete arrival -> admission -> reopt -> upsert -> serve chains."""
    by_id = {span.span_id: span for span in spans}
    chains = 0
    for span in spans:
        if span.name != "serve.arrival" or span.attrs.get("source") != "store":
            continue
        upsert = by_id.get(span.attrs.get("follows"))
        if upsert is None or upsert.name != "store.upsert":
            continue
        reopt = by_id.get(upsert.parent_id)
        if reopt is None or reopt.name != "serve.reoptimize":
            continue
        verdict = by_id.get(reopt.attrs.get("follows"))
        if verdict is None or verdict.name != "serve.admission":
            continue
        origin = by_id.get(verdict.attrs.get("follows"))
        if origin is None or origin.name != "serve.arrival":
            continue
        chains += 1
    return chains


def run_benchmark(arrivals: int, num_queries: int, trace_path: str | None = None) -> dict:
    workload = build_stack_workload(
        scale=0.05, seed=SEED, num_templates=8, num_queries=num_queries
    )
    future = workload.database
    past = rollback_to_date(future, STACK_DATE_2017)
    config = _serve_config()
    generator = TrafficGenerator(workload.queries, _traffic_config(arrivals))

    # ---------------------------------------------------------- untraced reference
    with PlanServer(past, config=config, workload=workload) as untraced_server:
        untraced_result = drive_stream(
            untraced_server, generator, future, maintenance_every=MAINTENANCE_EVERY
        )

    # ---------------------------------------------------------- traced stream
    tracer = Tracer(capacity=262_144)
    with PlanServer(past, config=config, workload=workload, tracer=tracer) as server:
        traced_result = drive_stream(
            server, generator, future, maintenance_every=MAINTENANCE_EVERY
        )
        spans = tracer.spans()
        if trace_path is not None:
            write_chrome_trace(spans, trace_path, process_name="bench_obs")

        # ------------------------------------------------------ fast-path probes
        # All against a poisoned database: pure store lookups, no execution.
        known = [entry.query for entry in server.store.entries.values()]
        live_database = server.database
        server.database = _PoisonedDatabase()
        try:
            server.tracer = _DisabledTracer()
            disabled_s = _probe(server.serve, known)
            server.tracer = probe_tracer = Tracer(capacity=262_144)
            for query in known:
                server.serve(query)
            first_round_spans = len(probe_tracer.spans())
            traced_s = _probe(server.serve, known)
            repeat_arrival_spans = len(probe_tracer.spans()) - first_round_spans
        finally:
            server.database = live_database
            server.tracer = tracer

    categories = TallyCounter(span.category for span in spans)
    names = TallyCounter(span.name for span in spans)
    return {
        "arrivals": arrivals,
        "distinct_queries": generator.distinct_queries(),
        "spans": len(spans),
        "span_categories": dict(sorted(categories.items())),
        "span_names": dict(sorted(names.items())),
        "complete_chains": count_causal_chains(spans),
        "traced_equals_untraced": traced_result.trace() == untraced_result.trace(),
        # The probes above would have raised on any touch.
        "fast_path_pure": True,
        "disabled_touches_only_enabled": True,
        "first_round_spans": first_round_spans,
        "repeat_arrival_spans": repeat_arrival_spans,
        "disabled_serve_us": disabled_s / QPS_PROBES * 1e6,
        "traced_serve_us": traced_s / QPS_PROBES * 1e6,
    }


def gate_failures(report: dict, smoke: bool) -> list[str]:
    failures = []
    if not smoke and report["arrivals"] < 500:
        failures.append("stream shorter than the 500-arrival gate")
    if report["first_round_spans"] > report["distinct_queries"]:
        failures.append("a probe arrival recorded more than one span")
    if report["repeat_arrival_spans"]:
        failures.append(
            f"{report['repeat_arrival_spans']} spans recorded by repeat arrivals "
            "whose last chain event was an arrival"
        )
    if not report["traced_equals_untraced"]:
        failures.append("tracing changed the serve stream (determinism broken)")
    if report["complete_chains"] < 1:
        failures.append("no complete causal chain reconstructs from the trace")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="smaller stream (CI smoke mode)")
    parser.add_argument("--json", metavar="PATH", help="write the result breakdown to PATH")
    parser.add_argument(
        "--trace", metavar="PATH", help="export the traced stream as a Chrome/Perfetto trace"
    )
    args = parser.parse_args(argv)

    arrivals = SMOKE_ARRIVALS if args.smoke else FULL_ARRIVALS
    num_queries = SMOKE_QUERIES if args.smoke else FULL_QUERIES
    report = run_benchmark(arrivals, num_queries, trace_path=args.trace)

    print(
        f"observability @ {report['arrivals']} arrivals, "
        f"{report['distinct_queries']} distinct queries"
    )
    print(
        f"  fast path   tracing off {report['disabled_serve_us']:.2f}us per serve "
        f"(reads tracer.enabled only), on {report['traced_serve_us']:.2f}us "
        f"({report['first_round_spans']} spans in the first probe round, "
        f"{report['repeat_arrival_spans']} in {QPS_PROBES * PROBE_TRIALS} repeats)"
    )
    print(
        f"  trace       {report['spans']} spans across "
        f"{len(report['span_categories'])} layers: {report['span_categories']}"
    )
    print(
        f"  causality   {report['complete_chains']} complete "
        f"arrival->admission->reopt->upsert->serve chains"
    )
    print(f"  determinism traced == untraced stream: {report['traced_equals_untraced']}")

    if args.trace:
        logger.info("wrote Chrome trace to %s", args.trace)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        logger.info("wrote %s", args.json)

    failures = gate_failures(report, args.smoke)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
