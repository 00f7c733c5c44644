"""Batched-ask benchmark: single-query BayesQO at q=4 vs q=1.

PR 3's execution service parallelizes *across* queries, so a single-query
workload left every worker but one idle.  The batched ask
(``suggest_batch``/``batch_size``) keeps q of one query's own plans in flight
— the q latent candidates come from one joint acquisition round, outcomes
resolve out of order by proposal id, and budget is still charged per
completed execution.

The bench runs BayesQO on ONE CPU-bound query (same GIL-holding burn wrapper
as ``bench_exec_backends``) twice with the same seed and budget:

* **q=1 inline** — the sequential baseline (scheduler-thread executions),
* **q=4 process** — ``ProcessPoolBackend`` workers, four plans in flight.

Gates: the q=4 run must be at least ``REQUIRED_SPEEDUP`` faster, and its
final best latency must be within ``REGRET_TOLERANCE`` of the sequential
run's (batching staleness may cost sample efficiency, but not more than
10%).  The speed-up gate needs a core per worker: with ``MAX_WORKERS`` = 4 on
exactly 2 cores, 2.0x is the ceiling and the gate would pass or fail on
noise, so it is recorded as skipped below ``MAX_WORKERS`` effective CPUs.
The regret gate is unconditional.

Run:  PYTHONPATH=src python benchmarks/bench_batch_ask.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from bench_exec_backends import build_bench_workload, effective_cpus

from repro.core import BayesQOConfig, VAETrainingConfig
from repro.core.optimizer import train_schema_model
from repro.core.protocol import BudgetSpec
from repro.harness import WorkloadSession
from repro.utils import get_logger

EXECUTIONS = 24
SMOKE_EXECUTIONS = 16
MAX_WORKERS = 4
BATCH_SIZE = 4
REQUIRED_SPEEDUP = 2.0
REGRET_TOLERANCE = 0.10
#: GIL-held CPU burned per plan execution (see bench_exec_backends).
BURN_ITERATIONS = 1_500_000
SMOKE_BURN_ITERATIONS = 1_000_000


def build_single_query_workload(burn_iterations: int):
    """The bench_exec workload narrowed to one CPU-bound query."""
    workload = build_bench_workload(burn_iterations)
    return type(workload)(
        name="bench_batch",
        database=workload.database,
        queries=workload.queries[:1],
        max_aliases=workload.max_aliases,
        description="single-query batched-ask bench workload",
    )


def timed_run(workload, schema_model, config, budget, seed, **session_kwargs):
    with WorkloadSession(
        workload,
        budget=budget,
        seed=seed,
        schema_model=schema_model,
        bayes_config=config,
        **session_kwargs,
    ) as session:
        start = time.perf_counter()
        results = session.run("bayesqo")
        return time.perf_counter() - start, results


def run_benchmark(executions: int, burn_iterations: int, seed: int = 0) -> dict:
    workload = build_single_query_workload(burn_iterations)
    query_name = workload.queries[0].name
    # The per-schema VAE is shared by both runs and excluded from timing.
    schema_model = train_schema_model(
        workload.database,
        workload.queries,
        VAETrainingConfig(
            training_steps=400, corpus_queries=60, latent_dim=8, hidden_dim=64
        ),
        max_aliases=workload.max_aliases,
    )
    config = BayesQOConfig(max_executions=executions, num_candidates=64, seed=seed)
    budget = BudgetSpec(max_executions=executions)

    inline_s, inline = timed_run(workload, schema_model, config, budget, seed)
    # batch_execution=False: this gate measures parallel FAN-OUT of q distinct
    # plan executions across workers (the batched-ask claim).  One-pass batch
    # execution would instead group the q siblings onto a single worker to
    # dedup shared subtrees — a different (orthogonal) speedup, measured by
    # bench_exec_kernels.py.
    batch_s, batched = timed_run(
        workload, schema_model, config, budget, seed,
        backend="process", max_workers=MAX_WORKERS,
        batch_size=BATCH_SIZE, interleave=True, batch_execution=False,
    )

    inline_best = inline[query_name].best_latency
    batch_best = batched[query_name].best_latency
    cpus = effective_cpus()
    return {
        "technique": "bayesqo",
        "query": query_name,
        "executions": executions,
        "burn_iterations": burn_iterations,
        "max_workers": MAX_WORKERS,
        "batch_size": BATCH_SIZE,
        "effective_cpus": cpus,
        "inline_s": inline_s,
        "batch_s": batch_s,
        "speedup": inline_s / batch_s,
        "inline_executions": inline[query_name].num_executions,
        "batch_executions": batched[query_name].num_executions,
        "inline_best_latency": inline_best,
        "batch_best_latency": batch_best,
        "regret": (batch_best - inline_best) / inline_best,
        "required_speedup": REQUIRED_SPEEDUP,
        "regret_tolerance": REGRET_TOLERANCE,
        "speedup_gate_enforced": cpus >= MAX_WORKERS,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="smaller budget (CI smoke mode)")
    parser.add_argument("--json", metavar="PATH", help="write the result breakdown to PATH")
    args = parser.parse_args(argv)

    executions = SMOKE_EXECUTIONS if args.smoke else EXECUTIONS
    burn = SMOKE_BURN_ITERATIONS if args.smoke else BURN_ITERATIONS
    report = run_benchmark(executions, burn)
    print(
        f"batched ask @ 1 query x {report['executions']} executions "
        f"(q={report['batch_size']}, {report['max_workers']} workers, "
        f"{report['effective_cpus']} cpus)"
    )
    print(f"  q=1 inline   {report['inline_s'] * 1e3:8.1f} ms  "
          f"(best {report['inline_best_latency']:.4f}s, "
          f"{report['inline_executions']} execs)")
    print(f"  q=4 process  {report['batch_s'] * 1e3:8.1f} ms  "
          f"(best {report['batch_best_latency']:.4f}s, "
          f"{report['batch_executions']} execs)")
    print(f"  speedup {report['speedup']:.2f}x, regret {report['regret'] * 100:+.1f}%")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        get_logger("bench").info("wrote %s", args.json)

    failures = []
    if report["regret"] > REGRET_TOLERANCE:
        failures.append(
            f"q={BATCH_SIZE} best latency {report['batch_best_latency']:.4f}s is "
            f"{report['regret'] * 100:.1f}% worse than sequential "
            f"{report['inline_best_latency']:.4f}s (tolerance {REGRET_TOLERANCE * 100:.0f}%)"
        )
    if report["speedup_gate_enforced"]:
        if report["speedup"] < REQUIRED_SPEEDUP:
            failures.append(
                f"batched speedup {report['speedup']:.2f}x below the required "
                f"{REQUIRED_SPEEDUP}x"
            )
    else:
        print(
            f"  NOTE: speedup gate skipped — {report['effective_cpus']} effective CPU(s); "
            f"{REQUIRED_SPEEDUP}x over {MAX_WORKERS} workers needs >= {MAX_WORKERS}"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
