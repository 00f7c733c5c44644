"""Executor batch-execution benchmark: the columnar hot path at q=1 and q=4.

The offline tuner's inner loop is plan execution, and with the batched ask
each acquisition round hands the executor q sibling plans — local edits of
one incumbent that share most of their join subtrees.  This bench replays
that pattern (streams of q=4 sibling batches around a drifting incumbent)
through the columnar kernels, sequentially and as one-pass batches, with
execution memoization off and on, and reports:

* **batch_speedup_ratio** — sequential execution at q=1 over one-pass batch
  execution (``Executor.run_batch`` at q=4, shared subtrees executed once
  per batch), both **cache-cold** (memoization off, so the ratio is the
  batch path itself, not the memo layer).  Reported, not gated: on two
  cores it moves with the machine more than with the code;
* **equivalence** (the gate) — every arm of the grid batch on/off x cache
  on/off produces the bit-for-bit identical trace (latency, censoring,
  output rows), including timeout censoring and work-cap aborts (random
  sibling edits routinely produce catastrophic join orders that hit the
  materialization cap under a finite timeout).

Run:  PYTHONPATH=src python benchmarks/bench_exec_kernels.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from bench_plan_cache import MIN_TABLES, _edit, _timeout_for

from repro.db.engine import Database
from repro.plans.sampling import random_join_tree
from repro.utils import get_logger
from repro.workloads import build_job_workload

NUM_QUERIES = 3
BATCHES_PER_QUERY = 20
SMOKE_QUERIES = 2
SMOKE_BATCHES = 12
#: Plans per batch (the batched-ask q the scheduler groups into one pass).
Q = 4
#: Every RESTART_EVERY batches the incumbent re-centers on a fresh random
#: plan — the cold exploration every arm pays for identically.
RESTART_EVERY = 8


def sibling_batches(query, start_plan, num_batches: int, seed: int) -> list[list]:
    """Streams of q=4 sibling plans around a drifting incumbent.

    Each batch is the incumbent plus q-1 local edits of it (edit distance
    1-2) — the trust-region neighbourhood one acquisition round decodes to,
    whose members share most of their join subtrees.  After each batch the
    incumbent drifts to a random member; periodic restarts re-center on a
    fresh random plan.
    """
    rng = np.random.default_rng(seed)
    incumbent = start_plan
    batches: list[list] = []
    for index in range(num_batches):
        if index and index % RESTART_EVERY == 0:
            incumbent = random_join_tree(query, rng)
        batch = [incumbent]
        for _ in range(Q - 1):
            batch.append(_edit(incumbent, int(rng.integers(1, 3)), rng))
        batches.append(batch)
        incumbent = batch[int(rng.integers(0, Q))]
    return batches


def clear_kernel_caches(database: Database) -> None:
    """Drop the per-relation kernel caches (relations are shared across arms)."""
    for relation in database.relations.values():
        relation._mask_cache.clear()
        relation._select_cache.clear()
        relation._index_cache.clear()


def make_arm(base: Database, *, exec_cache: bool) -> Database:
    return Database(
        base.schema,
        base.relations,
        base.cost_params,
        noise_sigma=base.executor.noise_sigma,
        seed=base.executor.seed,
        exec_cache=exec_cache,
    )


def execute_stream(database: Database, query, batches, *, use_batch: bool):
    """Run every batch; return (executor wall-clock, observed trace).

    Timeouts are decided per batch from the best latency seen in *previous*
    batches (the scheduler fixes each round's timeouts before submitting
    it), so the sequential and batch arms apply identical timeouts and their
    traces are comparable bit-for-bit.
    """
    trace = []
    best_seen: float | None = None
    elapsed = 0.0
    step = 0
    for batch in batches:
        timeouts = [_timeout_for(step + slot, best_seen) for slot in range(len(batch))]
        step += len(batch)
        if use_batch:
            start = time.perf_counter()
            results = database.execute_batch(query, batch, timeouts)
            elapsed += time.perf_counter() - start
        else:
            results = []
            for plan, timeout in zip(batch, timeouts):
                start = time.perf_counter()
                results.append(database.execute(query, plan, timeout=timeout))
                elapsed += time.perf_counter() - start
        for result in results:
            if not result.timed_out:
                best_seen = (
                    result.latency if best_seen is None else min(best_seen, result.latency)
                )
            trace.append((result.latency, result.timed_out, result.output_rows))
    return elapsed, trace


#: The full equivalence grid: (name, use_batch, exec_cache).  The first two
#: arms are the cache-cold ones ``batch_speedup_ratio`` compares.
ARMS = [
    ("kernels", False, False),
    ("kernels+batch", True, False),
    ("kernels+cache", False, True),
    ("kernels+batch+cache", True, True),
]


def run_benchmark(num_queries: int, batches_per_query: int, seed: int = 0) -> dict:
    workload = build_job_workload(scale=0.15, seed=seed, num_queries=24)
    base = workload.database
    queries = [q for q in workload.queries if q.num_tables >= MIN_TABLES][:num_queries]

    per_query = []
    totals = {name: 0.0 for name, *_ in ARMS}
    equivalent = True
    for index, query in enumerate(queries):
        start_plan = base.plan(query)
        batches = sibling_batches(query, start_plan, batches_per_query, seed=seed + index)
        traces = {}
        query_s = {}
        for name, use_batch, exec_cache in ARMS:
            arm_db = make_arm(base, exec_cache=exec_cache)
            clear_kernel_caches(arm_db)
            query_s[name], traces[name] = execute_stream(
                arm_db, query, batches, use_batch=use_batch
            )
            totals[name] += query_s[name]
        sequential = traces["kernels"]
        query_equivalent = all(trace == sequential for trace in traces.values())
        equivalent = equivalent and query_equivalent
        per_query.append({
            "query": query.name,
            "num_tables": query.num_tables,
            "executions": batches_per_query * Q,
            "censored": sum(1 for _, timed_out, _ in sequential if timed_out),
            "arm_s": query_s,
            "traces_equivalent": query_equivalent,
        })

    kernels_s = totals["kernels"]
    batch_s = totals["kernels+batch"]
    return {
        "workload": "JOB sibling-batch proposal streams",
        "num_queries": len(queries),
        "batches_per_query": batches_per_query,
        "q": Q,
        "arm_s": totals,
        "kernels_s": kernels_s,
        "batch_s": batch_s,
        "batch_speedup_ratio": kernels_s / batch_s if batch_s > 0 else float("inf"),
        "traces_equivalent": equivalent,
        "per_query": per_query,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="smaller stream (CI smoke mode)")
    parser.add_argument("--json", metavar="PATH", help="write the result breakdown to PATH")
    args = parser.parse_args(argv)

    num_queries = SMOKE_QUERIES if args.smoke else NUM_QUERIES
    batches = SMOKE_BATCHES if args.smoke else BATCHES_PER_QUERY
    report = run_benchmark(num_queries, batches)

    print(
        f"exec-kernels @ {report['num_queries']} queries x "
        f"{report['batches_per_query']} batches x q={report['q']}"
    )
    for name, *_ in ARMS:
        print(f"  {name:<24} {report['arm_s'][name] * 1e3:9.1f} ms")
    print(
        f"  batch speedup (q={report['q']}, cache-cold)  "
        f"{report['batch_speedup_ratio']:.2f}x  (reported, not gated)"
    )
    print(f"  traces equivalent across all {len(ARMS)} arms: {report['traces_equivalent']}")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        get_logger("bench").info("wrote %s", args.json)

    if not report["traces_equivalent"]:
        print("FAIL: batch/cache traces diverge from sequential execution", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
