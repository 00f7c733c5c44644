"""Cross-query learning: fine-tune the PlanLM on past BayesQO runs.

Reproduces the workflow of Section 4.4 / 5.6: optimize a handful of queries
with BayesQO, collect their best plans as a fine-tuning dataset, train the
PlanLM (the offline stand-in for the paper's fine-tuned GPT-4o-mini), and use
it to generate initialization points for a query it has never seen.

Run with::

    python examples/cross_query_llm.py
"""

from __future__ import annotations

from repro.baselines import bao_best_latency
from repro.core import BayesQO, BayesQOConfig, VAETrainingConfig, drive_query, train_schema_model
from repro.llm import PlanLM, PlanLMConfig, build_finetune_dataset
from repro.plans.encoding import sequence_length
from repro.workloads import build_ceb_workload
from repro.utils import get_logger

logger = get_logger("examples.cross_query_llm")


def main() -> None:
    workload = build_ceb_workload(scale=0.12, seed=0, num_templates=3, queries_per_template=4)
    database = workload.database
    schema_model = train_schema_model(
        database, workload.queries,
        VAETrainingConfig(training_steps=1200, corpus_queries=100),
        max_aliases=workload.max_aliases,
    )
    bayes = BayesQO(database, schema_model, config=BayesQOConfig(max_executions=35, seed=0))

    # 1. Optimize a few queries and collect their traces.
    train_queries = workload.queries[:4]
    runs = {query.name: drive_query(bayes, database, query) for query in train_queries}
    print("Collected optimization traces:")
    for name, run in runs.items():
        print(f"  {name}: best {run.best_latency:.4f} s over {run.num_executions} executions")

    # 2. Fine-tune the PlanLM on the top plans of those runs.
    max_length = sequence_length(max(query.num_tables for query in workload.queries))
    examples = build_finetune_dataset(
        runs, {query.name: query for query in train_queries},
        schema_model.vocabulary, max_length, top_k=5,
    )
    model = PlanLM(schema_model.vocabulary, max_length, PlanLMConfig(epochs=120, seed=0))
    model.fit(examples)
    logger.info("fine-tuned the PlanLM on %d (query, plan) examples", len(examples))

    # 3. Use the PlanLM to seed BayesQO on an unseen query of a seen template.
    target = workload.queries[4]
    bao_best = bao_best_latency(database, target)
    llm_bayes = BayesQO(
        database, schema_model,
        config=BayesQOConfig(max_executions=35, initialization="llm", num_initial_plans=15, seed=0),
        plan_generator=model,
    )
    run = drive_query(llm_bayes, database, target)
    print(f"\nTarget query {target.name}:")
    print(f"  best Bao hint-set plan : {bao_best:.4f} s")
    print(f"  BayesQO (LLM init)     : {run.best_latency:.4f} s")
    print(f"  initialization sources : {run.sources()}")


if __name__ == "__main__":
    main()
