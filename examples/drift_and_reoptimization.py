"""Data drift and re-optimization on the Stack-analogue workload.

Simulates the paper's drift experiment (Section 5.5): optimize a query on a
"past" snapshot of the database, let the data drift forward two synthetic
years, measure how the stale plan performs on the "future" data, and then
re-optimize seeding the search with the stale plan.

Run with::

    python examples/drift_and_reoptimization.py
"""

from __future__ import annotations

from repro.baselines import bao_best_latency
from repro.core import (
    BayesQO,
    BayesQOConfig,
    OnlinePlanner,
    VAETrainingConfig,
    drive_query,
    reoptimize,
    train_schema_model,
)
from repro.workloads import STACK_DATE_2017, build_stack_workload, deletion_fraction, rollback_to_date
from repro.utils import get_logger

logger = get_logger("examples.drift")


def main() -> None:
    workload = build_stack_workload(scale=0.08, seed=0, num_templates=6, num_queries=12)
    future_db = workload.database
    past_db = rollback_to_date(future_db, STACK_DATE_2017)
    removed = deletion_fraction(future_db, past_db)
    logger.info("rolled the Stack database back to day %d: %.1f%% of rows removed "
                "(the 'past' snapshot)", STACK_DATE_2017, removed * 100)

    query = workload.queries[0]
    vae_config = VAETrainingConfig(training_steps=1200, corpus_queries=100)
    config = BayesQOConfig(max_executions=40, seed=0)

    # Optimize in the past.
    past_model = train_schema_model(past_db, workload.queries, vae_config,
                                    max_aliases=workload.max_aliases)
    past_bayes = BayesQO(past_db, past_model, config=config)
    past_run = drive_query(past_bayes, past_db, query)
    print(f"\nOffline optimization in the past: best latency {past_run.best_latency:.4f} s")

    # The data drifts; the online component notices the regression.
    stale_latency = future_db.execute(query, past_run.best_plan, timeout=600.0).latency
    bao_future = bao_best_latency(future_db, query)
    print(f"Stale plan on the future data   : {stale_latency:.4f} s "
          f"(best Bao hint on future data: {bao_future:.4f} s)")
    planner = OnlinePlanner(future_db)
    planner.cache.store_plan(query, past_run.best_plan, latency=past_run.best_latency)
    planner.execute(query)
    print(f"Online planner flags re-optimization: {planner.should_reoptimize(query)}")

    # Re-optimize on the future data, seeding BO with the stale plan.
    future_model = train_schema_model(future_db, workload.queries, vae_config,
                                      max_aliases=workload.max_aliases)
    future_bayes = BayesQO(future_db, future_model, config=config)
    outcome = reoptimize(future_bayes, query, past_run.best_plan, max_executions=25)
    print(f"\nRe-optimized plan latency       : {outcome.best_latency:.4f} s")
    print(f"Re-optimization budget          : {outcome.result.total_cost:.1f} simulated seconds")
    print(f"Improved over the stale plan    : {outcome.improved}")


if __name__ == "__main__":
    main()
