"""Figure 10: BayesQO vs LimeQO across a whole workload.

Both techniques optimize every query in a JOB-analogue sample; the bench
prints the workload-level sum / median / P90 of the best plan latencies as a
function of the optimization budget.  The shape to look for: LimeQO improves
quickly while cheap hint wins are available but plateaus once the 49 hint sets
are exhausted, whereas BayesQO keeps improving past that point.
"""

from __future__ import annotations

#: Per-query plan-execution budget shared by the comparison benches.
BENCH_EXECUTIONS = 35
#: Number of workload queries sampled for the comparison benches.
BENCH_QUERIES = 6

import numpy as np

from repro.baselines import LimeQOOptimizer
from repro.core import BayesQO, BudgetSpec, drive_query, drive_workload
from repro.harness import format_summaries, workload_curve

NUM_QUERIES = 4
CURVE_POINTS = 5


def run_figure10(job_workload, job_schema_model, bench_bayes_config):
    database = job_workload.database
    queries = job_workload.queries[:NUM_QUERIES]
    bayes = BayesQO(database, job_schema_model, config=bench_bayes_config)
    budget = BudgetSpec(max_executions=BENCH_EXECUTIONS)
    bayes_results = {query.name: drive_query(bayes, database, query, budget) for query in queries}
    limeqo_results = drive_workload(
        LimeQOOptimizer(database), database, queries, BudgetSpec(max_executions=49 * NUM_QUERIES)
    )
    defaults = {query.name: database.execute(query, timeout=600.0).latency for query in queries}
    return bayes_results, limeqo_results, defaults


def test_fig10_bayesqo_vs_limeqo(benchmark, job_workload, job_schema_model, bench_bayes_config):
    bayes_results, limeqo_results, defaults = benchmark.pedantic(
        run_figure10, args=(job_workload, job_schema_model, bench_bayes_config), rounds=1, iterations=1
    )
    max_budget = max(
        max(result.total_cost for result in bayes_results.values()),
        max(result.total_cost for result in limeqo_results.values()),
    )
    budgets = list(np.linspace(max_budget / CURVE_POINTS, max_budget, CURVE_POINTS))
    print()
    for label, results in (("BayesQO", bayes_results), ("LimeQO", limeqo_results)):
        summaries = workload_curve(results, budgets, fallback=defaults)
        print(format_summaries([f"@{budget:.0f}s" for budget in budgets], summaries,
                               f"Figure 10: {label} workload latency vs optimization budget"))
        print()
    # Shape: at the end of optimization BayesQO's aggregate latency is at least
    # as good as LimeQO's (its search space strictly contains the hint plans).
    final_bayes = workload_curve(bayes_results, [max_budget], fallback=defaults)[0]
    final_limeqo = workload_curve(limeqo_results, [max_budget], fallback=defaults)[0]
    assert final_bayes.total <= final_limeqo.total * 1.05 + 1e-9
