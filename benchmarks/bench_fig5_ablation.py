"""Figure 5: ablation of the timeout strategy and of trust-region local BO.

Figure 5a compares BayesQO's uncertainty-based timeouts against no timeouts,
10th-percentile timeouts and 0th-percentile (best-seen) timeouts on a single
JOB-analogue query.  Figure 5b compares trust-region local BO against global
BO.  An extra arm ablates learning from censored observations entirely.  The
shapes to look for: the uncertainty rule reaches the best final latency for
the least budget, and local BO dominates global BO.
"""

from __future__ import annotations

#: Per-query plan-execution budget shared by the comparison benches.
BENCH_EXECUTIONS = 30
#: Number of workload queries sampled for the comparison benches.
BENCH_QUERIES = 6

from repro.core import BayesQO, BayesQOConfig, drive_query
from repro.harness import format_table

TIMEOUT_ARMS = {
    "Our Method (uncertainty)": {"timeout_strategy": "uncertainty"},
    "No Timeouts": {"timeout_strategy": "none"},
    "10th Percentile Timeouts": {"timeout_strategy": "percentile", "timeout_percentile": 10.0},
    "0th Percentile Timeouts": {"timeout_strategy": "best_seen"},
    "No learning from timeouts": {"timeout_strategy": "uncertainty", "learn_from_timeouts": False},
}

TRUST_REGION_ARMS = {
    "Our Method (trust region)": {"use_trust_region": True},
    "Without Trust Region (global BO)": {"use_trust_region": False},
}


def _run_arms(job_workload, job_schema_model, arms):
    query = job_workload.queries[0]
    outcomes = {}
    for label, overrides in arms.items():
        config = BayesQOConfig(max_executions=BENCH_EXECUTIONS, num_candidates=128, seed=0, **overrides)
        optimizer = BayesQO(job_workload.database, job_schema_model, config=config)
        outcomes[label] = drive_query(optimizer, job_workload.database, query)
    return outcomes


def run_ablation(job_workload, job_schema_model):
    return (
        _run_arms(job_workload, job_schema_model, TIMEOUT_ARMS),
        _run_arms(job_workload, job_schema_model, TRUST_REGION_ARMS),
    )


def test_fig5_ablation(benchmark, job_workload, job_schema_model):
    timeout_runs, trust_runs = benchmark.pedantic(
        run_ablation, args=(job_workload, job_schema_model), rounds=1, iterations=1
    )
    print()
    for title, runs in (
        ("Figure 5a: timeout strategy ablation", timeout_runs),
        ("Figure 5b: trust region ablation", trust_runs),
    ):
        rows = []
        for label, result in runs.items():
            rows.append(
                [
                    label,
                    f"{result.best_latency_or(float('nan')):.4f}",
                    f"{result.total_cost:.1f}",
                    result.num_executions,
                    sum(1 for record in result.trace if record.censored),
                ]
            )
        print(format_table(
            ["strategy", "best runtime (s)", "budget used (s)", "executions", "timeouts"],
            rows, title=title,
        ))
        print()
    our_timeout = timeout_runs["Our Method (uncertainty)"]
    no_timeout = timeout_runs["No Timeouts"]
    # The uncertainty rule should not need more budget than running without timeouts.
    assert our_timeout.total_cost <= no_timeout.total_cost * 1.5 + 1e-9
    assert our_timeout.best_latency_or(1e9) <= no_timeout.best_latency_or(1e9) * 2.0
