"""Figure 8: the cross-query PlanLM on seen vs held-out query templates.

The PlanLM (standing in for the paper's fine-tuned GPT-4o-mini) is trained on
the best plans from BayesQO runs over a CEB-analogue workload.  For each test
query we sample plans from the model, execute the best one, and report the
percentage difference against the optimal Bao plan — once for queries whose
template was part of fine-tuning, and once for queries from held-out
templates.  The shape to look for: the same-template distribution is shifted
toward (or below) 0%, the held-out distribution is substantially worse.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import bao_best_latency
from repro.core import BayesQO, BayesQOConfig, VAETrainingConfig, drive_query, train_schema_model
from repro.harness import format_table, percentage_difference
from repro.llm import PlanLM, PlanLMConfig, build_finetune_dataset
from repro.plans.encoding import sequence_length
from repro.workloads import build_ceb_workload

TRAIN_QUERIES_PER_TEMPLATE = 3
SAMPLES_PER_QUERY = 8
EXECUTIONS = 25


def run_llm_experiment():
    workload = build_ceb_workload(scale=0.12, seed=0, num_templates=4, queries_per_template=5)
    database = workload.database
    vae_config = VAETrainingConfig(training_steps=1200, corpus_queries=100, latent_dim=16,
                                   hidden_dim=160)
    schema_model = train_schema_model(database, workload.queries, vae_config,
                                      max_aliases=workload.max_aliases)
    bayes = BayesQO(database, schema_model, config=BayesQOConfig(max_executions=EXECUTIONS, seed=0))

    templates = workload.templates()
    train_templates, holdout_templates = templates[:-1], templates[-1:]
    runs, queries_by_name = {}, {}
    for template in train_templates:
        for query in workload.queries_for_template(template)[:TRAIN_QUERIES_PER_TEMPLATE]:
            runs[query.name] = drive_query(bayes, database, query)
            queries_by_name[query.name] = query

    max_length = sequence_length(max(query.num_tables for query in workload.queries))
    examples = build_finetune_dataset(runs, queries_by_name, schema_model.vocabulary, max_length,
                                      top_k=5)
    model = PlanLM(schema_model.vocabulary, max_length, PlanLMConfig(epochs=120, seed=0))
    model.fit(examples)

    def evaluate(queries):
        differences = []
        for query in queries:
            bao_best = bao_best_latency(database, query)
            best = np.inf
            for plan in model.generate_plans(query, SAMPLES_PER_QUERY, seed=1):
                execution = database.execute(query, plan, timeout=bao_best * 8.0)
                if not execution.timed_out:
                    best = min(best, execution.latency)
            if not np.isfinite(best):
                best = bao_best * 8.0
            differences.append(percentage_difference(best, bao_best))
        return differences

    seen_queries = [
        workload.queries_for_template(template)[TRAIN_QUERIES_PER_TEMPLATE]
        for template in train_templates
    ]
    holdout_queries = workload.queries_for_template(holdout_templates[0])[:3]
    return evaluate(seen_queries), evaluate(holdout_queries)


def test_fig8_llm_template_generalization(benchmark):
    seen, holdout = benchmark.pedantic(run_llm_experiment, rounds=1, iterations=1)
    print()
    rows = [
        ["same-template queries", f"{np.median(seen):.1f}%", f"{np.mean(seen):.1f}%"],
        ["held-out-template queries", f"{np.median(holdout):.1f}%", f"{np.mean(holdout):.1f}%"],
    ]
    print(
        format_table(
            ["query group", "median % diff vs Bao", "mean % diff vs Bao"],
            rows,
            title="Figure 8: PlanLM plans vs optimal Bao plan (lower/negative is better)",
        )
    )
    # Shape: generalization within seen templates is no worse than to unseen ones.
    assert np.median(seen) <= np.median(holdout) + 1e-9
