"""Quickstart: optimize one repeated analytics query offline with BayesQO.

Builds the scaled-down IMDB-analogue database, trains the per-schema plan VAE,
runs BayesQO on a single JOB-like query and compares the result against the
default optimizer plan and the best Bao hint-set plan — then runs the same
single query again with the batched ask (q=4 plans in flight on a process
pool): each round's four sibling plans run as one worker task that executes
their shared join subtrees once.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.baselines import BaoOptimizer
from repro.core import BayesQOConfig, ExecutionServiceConfig, PlanCache, VAETrainingConfig
from repro.core.protocol import BudgetSpec, drive_state, inline_execute
from repro.harness import WorkloadSession
from repro.utils import get_logger
from repro.workloads import build_job_workload

logger = get_logger("examples.quickstart")


def main() -> None:
    # 1. Build a workload: a populated database plus a set of benchmark queries.
    #    The data generator caps foreign-key fanout, so scaled-down queries
    #    stay executable — no need to probe for a usable query.
    workload = build_job_workload(scale=0.15, seed=0, num_queries=20)
    database = workload.database
    query = workload.queries[0]
    logger.info("optimizing query %s joining %d tables: %s...",
                query.name, query.num_tables, query.sql()[:160])

    # 2. Baselines: the default optimizer plan and the best of the 49 Bao hint
    #    sets, driven through the ask/tell protocol.
    default_latency = database.execute(query, timeout=600.0).latency
    bao_optimizer = BaoOptimizer(database)
    bao_state = bao_optimizer.start(query)
    drive_state(bao_optimizer, bao_state, inline_execute(database))
    bao = bao_optimizer.outcome(bao_state)
    print(f"\nDefault optimizer plan latency : {default_latency:.4f} s")
    print(f"Best Bao hint-set plan latency : {bao.best_latency:.4f} s ({bao.best_hint_set})")

    # 3. BayesQO through a WorkloadSession: the session trains the per-schema
    #    VAE once (shared by every run below) and owns the optimization loop.
    session = WorkloadSession(
        workload,
        queries=[query],
        budget=BudgetSpec(max_executions=60),
        bayes_config=BayesQOConfig(max_executions=60, seed=0),
        vae_config=VAETrainingConfig(training_steps=1500, corpus_queries=120),
    )
    result = session.run("bayesqo")[query.name]
    print(f"\nBayesQO best plan latency      : {result.best_latency:.4f} s")
    print(f"  improvement over Bao         : {result.improvement_over(bao.best_latency):.1f}%")
    print(f"  improvement over default     : {result.improvement_over(default_latency):.1f}%")
    print(f"  executions used              : {result.num_executions}")
    print(f"  optimization budget consumed : {result.total_cost:.1f} simulated seconds")
    print(f"  best plan                    : {result.best_plan.canonical()}")

    # 4. The batched ask: the same single query with q=4 plans in flight on a
    #    process pool.  With batch_size=4 the BO engine proposes 4 jointly
    #    informative candidates per acquisition round.  batch_execution=True
    #    (the default, spelled out here) sends each round's 4 proposals to
    #    the executor as ONE batch — one task on one worker: shared join
    #    subtrees across the sibling plans execute once, and every plan
    #    still gets its own bit-for-bit latency/censoring.  q widens a task;
    #    it takes several queries (or batch_execution=False, which fans the
    #    q plans out one worker each) to keep 4 workers busy.
    with WorkloadSession(
        workload,
        queries=[query],
        budget=BudgetSpec(max_executions=60),
        schema_model=session.ensure_schema_model(),  # reuse the trained VAE
        bayes_config=BayesQOConfig(max_executions=60, seed=0),
        exec_config=ExecutionServiceConfig(
            backend="process", max_workers=4, batch_size=4, batch_execution=True
        ),
    ) as batched_session:
        batched = batched_session.run("bayesqo")[query.name]
    print(f"\nBayesQO (q=4, process pool)    : {batched.best_latency:.4f} s "
          f"({batched.num_executions} executions)")
    print("  (batch_execution groups each round's q proposals into one "
          "executor pass; at q=1 there is nothing to group and submission "
          "falls back to per-request)")

    # 5. Cache the plan for the online component.
    cache = PlanCache()
    cache.store(query, result)
    print(f"\nPlan cached for signature {query.signature()[:2]}... "
          f"({len(cache)} entry in the plan cache)")


if __name__ == "__main__":
    main()
