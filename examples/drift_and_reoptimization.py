"""Data drift and re-optimization on the Stack-analogue workload.

Simulates the paper's drift experiment (Section 5.5): a plan server
optimizes a query on a "past" snapshot of the database, the data drifts
forward two synthetic years, the server's drift detector judges the stale
plan on the "future" data, and the query is re-optimized seeding the search
with the stale plan.

Run with::

    python examples/drift_and_reoptimization.py
"""

from __future__ import annotations

from repro.baselines import bao_best_latency
from repro.core import (
    BayesQO,
    BayesQOConfig,
    BudgetSpec,
    VAETrainingConfig,
    reoptimize,
    train_schema_model,
)
from repro.serve import AdmissionConfig, PlanServer, ServeConfig
from repro.workloads import STACK_DATE_2017, build_stack_workload, deletion_fraction, rollback_to_date
from repro.utils import get_logger

logger = get_logger("examples.drift")


def serve_and_report(server: PlanServer, query, arrivals: int = 2) -> None:
    """Serve ``query`` ``arrivals`` times, reporting each served plan's latency."""
    for _ in range(arrivals):
        decision = server.serve(query)
        execution = server.database.execute(query, decision.plan, timeout=600.0)
        server.report(decision, execution.latency, timed_out=execution.timed_out)


def main() -> None:
    workload = build_stack_workload(scale=0.08, seed=0, num_templates=6, num_queries=12)
    future_db = workload.database
    past_db = rollback_to_date(future_db, STACK_DATE_2017)
    removed = deletion_fraction(future_db, past_db)
    logger.info("rolled the Stack database back to day %d: %.1f%% of rows removed "
                "(the 'past' snapshot)", STACK_DATE_2017, removed * 100)

    # STACK_Q6-001: its default plan runs ~19x slower on the future data.
    query = workload.queries[5]
    vae_config = VAETrainingConfig(training_steps=1200, corpus_queries=100)
    config = BayesQOConfig(max_executions=40, seed=0)

    # Optimize in the past: a plan server sees the query arrive, and its
    # maintenance cycle runs BayesQO on it and stores the best plan.
    past_model = train_schema_model(past_db, workload.queries, vae_config,
                                    max_aliases=workload.max_aliases)
    server = PlanServer(
        past_db,
        config=ServeConfig(
            technique="bayesqo",
            budget=BudgetSpec(max_executions=config.max_executions),
            admission=AdmissionConfig(min_arrivals=2),
        ),
        workload=workload,
        schema_model=past_model,
    )
    serve_and_report(server, query)
    [past_run] = server.run_maintenance()
    past_plan = server.store.get(query).best_plan
    print(f"\nOffline optimization in the past: best latency {past_run.best_latency:.4f} s")

    # The data drifts; the server keeps serving the stored plan, and its
    # drift detector compares what clients report with the recorded latency.
    server.update_database(future_db)
    serve_and_report(server, query)
    stale_latency = future_db.execute(query, past_plan, timeout=600.0).latency
    bao_future = bao_best_latency(future_db, query)
    print(f"Stale plan on the future data   : {stale_latency:.4f} s "
          f"(best Bao hint on future data: {bao_future:.4f} s)")
    print(f"Plan server flags the drift     : {server.counters.drift_flags > 0} "
          f"(rule: median > {server.config.drift_factor}x the recorded latency)")
    server.close()

    # Re-optimize on the future data, seeding BO with the stale plan.
    future_model = train_schema_model(future_db, workload.queries, vae_config,
                                      max_aliases=workload.max_aliases)
    future_bayes = BayesQO(future_db, future_model, config=config)
    outcome = reoptimize(future_bayes, query, past_plan, max_executions=25)
    print(f"\nRe-optimized plan latency       : {outcome.best_latency:.4f} s")
    print(f"Re-optimization budget          : {outcome.result.total_cost:.1f} simulated seconds")
    print(f"Improved over the stale plan    : {outcome.improved}")


if __name__ == "__main__":
    main()
