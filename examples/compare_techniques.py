"""Compare offline optimization techniques on a JOB-analogue workload sample.

Runs BayesQO, Random search and the simplified Balsa agent with the same
per-query execution budget (the Figure 3 methodology) and prints per-query
improvements over the best Bao hint-set plan plus the improvement CDF.

The loop owner is a :class:`repro.harness.WorkloadSession`: it resolves each
technique from the registry, drives it through the ask/tell protocol
(``start``/``suggest``/``observe``/``finish``), shares one schema model and
budget, and computes the Bao baseline exactly once.  Plan executions are
routed through a pluggable execution backend (:mod:`repro.exec`): inline on
the scheduler thread, a thread pool that overlaps DBMS waiting, or a process
pool whose workers hold warm database replicas (scales CPU-bound simulated
executions past the GIL).  Ready queries claim free execution slots in FIFO
order; every query has its own budget, so that order reaches no trace and
every backend produces identical per-query traces.  Techniques whose
registry entry is marked ``order_sensitive`` (Balsa shares its RNG and value
network across queries) are automatically kept sequential so their results
stay deterministic too.

For one query on one database without a session,
:func:`repro.core.drive_query` runs the same loop with inline execution; it
cannot share budgets, schema models or the execution backend.

Run with::

    python examples/compare_techniques.py [--backend inline|thread|process]
                                          [--workers N]
"""

from __future__ import annotations

import argparse

from repro.core import BayesQOConfig, ExecutionServiceConfig, VAETrainingConfig
from repro.harness import (
    BudgetSpec,
    WorkloadSession,
    format_cdf,
    format_table,
    improvement_cdf,
    improvement_distribution,
)
from repro.workloads import build_job_workload
from repro.utils import get_logger

logger = get_logger("examples.compare_techniques")

NUM_QUERIES = 4
EXECUTIONS = 40
TECHNIQUES = ("bayesqo", "random", "balsa")


def main() -> None:
    parser = argparse.ArgumentParser(description="Figure 3 style technique comparison")
    parser.add_argument("--backend", default="thread",
                        choices=["inline", "thread", "process"],
                        help="execution backend for plan executions")
    parser.add_argument("--workers", type=int, default=4,
                        help="concurrent plan executions")
    args = parser.parse_args()

    workload = build_job_workload(scale=0.15, seed=0, num_queries=20)
    # Fanout-capped data generation keeps most scaled-down queries executable,
    # so the comparison just takes the first few — no probing.  A genuinely
    # hard query (every plan censors within the budget) shows up honestly as
    # a `nan` best latency against the Bao fallback baseline, like any query
    # offline optimization fails to crack.
    queries = workload.queries[:NUM_QUERIES]
    logger.info(
        "comparing techniques on %d %s queries (%d plan executions each, "
        "backend=%s, workers=%d)",
        len(queries), workload.name, EXECUTIONS, args.backend, args.workers,
    )

    with WorkloadSession(
        workload,
        queries=queries,
        budget=BudgetSpec(max_executions=EXECUTIONS),
        bayes_config=BayesQOConfig(max_executions=EXECUTIONS, seed=0),
        vae_config=VAETrainingConfig(training_steps=1500, corpus_queries=120),
        seed=0,
        exec_config=ExecutionServiceConfig(backend=args.backend, max_workers=args.workers),
    ) as session:
        bao_latencies = session.bao_latencies()
        results = {technique: session.run(technique) for technique in TECHNIQUES}

    rows = []
    for query in queries:
        row = [query.name, f"{bao_latencies[query.name]:.4f}"]
        for technique in TECHNIQUES:
            best = results[technique][query.name].best_latency_or(float("nan"))
            row.append(f"{best:.4f}")
        rows.append(row)
    print()
    print(format_table(["query", "bao best (s)", "bayesqo (s)", "random (s)", "balsa (s)"], rows,
                       title="Best plan latency per technique"))

    series = {
        technique: improvement_cdf(improvement_distribution(technique_results, bao_latencies),
                                   thresholds=[0.0, 10.0, 25.0, 50.0])
        for technique, technique_results in results.items()
    }
    print()
    print(format_cdf(series, "Fraction of queries with >= x% improvement over Bao"))


if __name__ == "__main__":
    main()
