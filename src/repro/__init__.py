"""BayesQO: learned offline query planning via Bayesian optimization.

A full reproduction of the SIGMOD 2025 paper by Tao et al., including the
database substrate (catalog, statistics, cost-based optimizer, executor with
timeouts), the plan string language, the plan VAE, the censored-observation
Bayesian optimization stack, the baselines (Bao, Random, Balsa, LimeQO) and
the cross-query PlanLM initializer.

Typical usage (``examples/quickstart.py`` is the full tour)::

    from repro.core import BayesQOConfig, VAETrainingConfig
    from repro.harness import BudgetSpec, WorkloadSession
    from repro.workloads import build_job_workload

    workload = build_job_workload(scale=0.15, seed=0, num_queries=20)
    query = workload.queries[0]
    session = WorkloadSession(
        workload,
        queries=[query],
        budget=BudgetSpec(max_executions=60),
        bayes_config=BayesQOConfig(max_executions=60, seed=0),
        vae_config=VAETrainingConfig(training_steps=1500, corpus_queries=120),
    )
    result = session.run("bayesqo")[query.name]  # trains the schema's plan VAE first
    print(result.best_latency, result.best_plan.canonical())
"""

__version__ = "1.0.0"
