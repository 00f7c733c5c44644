"""Figure 7: plan runtimes on snapshots between the past and future endpoints.

The past-optimized and future-optimized plans for a set of Stack-analogue
queries are executed against a sequence of intermediate snapshots; the bench
prints the median (and top-3 worst) runtimes per date.  The shape to look
for: past and future plans track each other closely for most queries, while a
small number of past plans degrade visibly as the data grows.
"""

from __future__ import annotations

import numpy as np

from repro.core import BayesQO, BayesQOConfig, VAETrainingConfig, drive_query, train_schema_model
from repro.harness import format_table
from repro.workloads import STACK_DATE_2017, STACK_DATE_MAX, drift_timeline, rollback_to_date

NUM_QUERIES = 3
TIMELINE_STEPS = 3
EXECUTIONS = 25


def run_timeline(stack_workload):
    future_db = stack_workload.database
    past_db = rollback_to_date(future_db, STACK_DATE_2017)
    queries = stack_workload.queries[:NUM_QUERIES]
    vae_config = VAETrainingConfig(training_steps=1000, corpus_queries=80, latent_dim=16, hidden_dim=160)
    config = BayesQOConfig(max_executions=EXECUTIONS, num_candidates=128, seed=0)
    past_bayes = BayesQO(past_db, train_schema_model(past_db, stack_workload.queries, vae_config,
                                                     max_aliases=stack_workload.max_aliases), config=config)
    future_bayes = BayesQO(future_db, train_schema_model(future_db, stack_workload.queries, vae_config,
                                                         max_aliases=stack_workload.max_aliases), config=config)
    plans = {}
    for query in queries:
        past_plan = drive_query(past_bayes, past_db, query).best_record.plan
        future_plan = drive_query(future_bayes, future_db, query).best_record.plan
        plans[query.name] = (past_plan, future_plan)
    snapshots = drift_timeline(future_db, STACK_DATE_2017, STACK_DATE_MAX, TIMELINE_STEPS)
    series = []
    for cutoff, snapshot in snapshots:
        past_latencies, future_latencies = [], []
        for query in queries:
            past_plan, future_plan = plans[query.name]
            past_latencies.append(snapshot.execute(query, past_plan, timeout=600.0).latency)
            future_latencies.append(snapshot.execute(query, future_plan, timeout=600.0).latency)
        series.append((cutoff, past_latencies, future_latencies))
    return series


def test_fig7_drift_timeline(benchmark, stack_workload):
    series = benchmark.pedantic(run_timeline, args=(stack_workload,), rounds=1, iterations=1)
    rows = []
    for cutoff, past_latencies, future_latencies in series:
        rows.append(
            [
                cutoff,
                f"{np.median(past_latencies):.4f}",
                f"{np.median(future_latencies):.4f}",
                f"{max(past_latencies):.4f}",
                f"{max(future_latencies):.4f}",
            ]
        )
    print()
    print(
        format_table(
            ["snapshot (day)", "past plans median (s)", "future plans median (s)",
             "past plans worst (s)", "future plans worst (s)"],
            rows,
            title="Figure 7: plan runtimes vs snapshot date",
        )
    )
    # Data only grows over the timeline, so runtimes should not shrink dramatically.
    first_median = float(np.median(series[0][1]))
    last_median = float(np.median(series[-1][1]))
    assert last_median >= first_median * 0.5
