"""Figure 4: case studies — best plan runtime vs optimization time.

Reproduces the per-query curves of Figure 4: for selected queries, the best
latency achieved by each technique as a function of consumed optimization
budget (plan-execution time only), with Bao shown as a flat line (it cannot
improve once its hint sets have been executed).
"""

from __future__ import annotations

#: Per-query plan-execution budget shared by the comparison benches.
BENCH_EXECUTIONS = 35
#: Number of workload queries sampled for the comparison benches.
BENCH_QUERIES = 6

import numpy as np

from repro.baselines import BalsaOptimizer, RandomSearch, bao_best_latency
from repro.core import BayesQO, BudgetSpec, drive_query
from repro.harness import format_table

NUM_CASE_STUDIES = 2
CURVE_POINTS = 6


def run_case_studies(job_workload, job_schema_model, bench_bayes_config):
    database = job_workload.database
    queries = job_workload.queries[:NUM_CASE_STUDIES]
    bayes = BayesQO(database, job_schema_model, config=bench_bayes_config)
    budget = BudgetSpec(max_executions=BENCH_EXECUTIONS)
    outcomes = {}
    for query in queries:
        outcomes[query.name] = {
            "bao": bao_best_latency(database, query),
            "bayes": drive_query(bayes, database, query, budget),
            "random": drive_query(RandomSearch(database, seed=1), database, query, budget),
            "balsa": drive_query(BalsaOptimizer(database), database, query, budget),
        }
    return outcomes


def test_fig4_case_studies(benchmark, job_workload, job_schema_model, bench_bayes_config):
    outcomes = benchmark.pedantic(
        run_case_studies, args=(job_workload, job_schema_model, bench_bayes_config),
        rounds=1, iterations=1,
    )
    print()
    for name, runs in outcomes.items():
        bao_best = runs["bao"]
        max_cost = max(
            runs[technique].total_cost for technique in ("bayes", "random", "balsa")
        )
        budgets = np.linspace(max_cost / CURVE_POINTS, max_cost, CURVE_POINTS)
        rows = []
        for technique in ("bayes", "random", "balsa"):
            result = runs[technique]
            curve = [result.best_latency_at_cost(budget) for budget in budgets]
            rows.append([technique] + [f"{value:.4f}" if np.isfinite(value) else "-" for value in curve])
        rows.append(["bao (flat)"] + [f"{bao_best:.4f}"] * CURVE_POINTS)
        headers = ["technique"] + [f"@{budget:.1f}s" for budget in budgets]
        print(format_table(headers, rows, title=f"Figure 4 case study: {name} (best runtime so far)"))
        print()
        # BayesQO ends at least as good as Bao's best plan.
        assert runs["bayes"].best_latency <= bao_best + 1e-9
