"""Figure 9: per-iteration overhead of the BO loop.

The paper breaks BO overhead into surrogate update, timeout calculation, VAE
sampling and candidate generation, on CPU and GPU and at 1x / 5x simultaneous
runs.  Offline we have no GPU, so this bench reports the same breakdown for
the numpy implementation in two configurations: a single run and five
sequentially interleaved runs (the aggregate cost of serving five optimizations
from one process).  The shape to look for: overhead is dominated by the
surrogate update and stays in the sub-second range per iteration, i.e. small
relative to query execution for long-running queries.

An *iteration* is an acquisition round (``OverheadBreakdown.iterations``): one
candidate pool drawn, one plan proposed and executed at q=1 (a second pool
only when the trust region's held no unexecuted plan).  Every iteration
spends budget, so the table divides by what the paper's Fig. 9 divides by.

Under the per-iteration table the surrogate update is split where its cost
sits: per *full refit* (hyper-parameter optimization plus the complete EM
loop, every ``refit_every``-th observation) with the likelihood evaluations
L-BFGS spent on it, and per *warm update* (the rank-1 extension in between).
The split is read off the engine's own ``bo.refit`` spans; the evaluations
are counted here, around the objective.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.bo.gp import ExactGP
from repro.core import BayesQO, BayesQOConfig, drive_query
from repro.harness import format_table
from repro.obs import Tracer

EXECUTIONS = 20


@contextmanager
def counted_objective():
    """Count marginal-likelihood evaluations while the block runs."""
    calls = [0]
    objective = ExactGP._negative_log_marginal

    def counted(self, params):
        calls[0] += 1
        return objective(self, params)

    ExactGP._negative_log_marginal = counted
    try:
        yield calls
    finally:
        ExactGP._negative_log_marginal = objective


def run_overhead(job_workload, job_schema_model, simultaneous: int):
    database = job_workload.database
    queries = job_workload.queries[:simultaneous]
    optimizer = BayesQO(
        database, job_schema_model, config=BayesQOConfig(max_executions=EXECUTIONS, seed=0)
    )
    optimizer.tracer = Tracer()
    with counted_objective() as calls:
        for query in queries:
            drive_query(optimizer, database, query)
    refits = [span for span in optimizer.tracer.spans() if span.name == "bo.refit"]
    return optimizer.overhead, refits, calls[0]


def refit_rows(refits, objective_calls: int) -> list[list[str]]:
    rows = []
    for mode, label in (("full", "full refit"), ("incremental", "warm update")):
        spans = [span for span in refits if span.attrs["mode"] == mode]
        seconds = sum(span.duration for span in spans)
        rows.append([
            label,
            str(len(spans)),
            f"{seconds / max(len(spans), 1) * 1000:.2f} ms",
            f"{objective_calls / max(len(spans), 1):.1f}" if mode == "full" else "-",
        ])
    return rows


def test_fig9_overhead_breakdown(benchmark, job_workload, job_schema_model):
    single = run_overhead(job_workload, job_schema_model, simultaneous=1)
    five = benchmark.pedantic(
        run_overhead, args=(job_workload, job_schema_model, 5), rounds=1, iterations=1
    )
    print()
    for label, (overhead, refits, calls) in (
        ("1x simultaneous run", single), ("5x simultaneous runs", five)
    ):
        per_iteration = overhead.per_iteration()
        rows = [[component, f"{seconds * 1000:.1f} ms"] for component, seconds in per_iteration.items()]
        rows.append(["TOTAL", f"{sum(per_iteration.values()) * 1000:.1f} ms"])
        print(format_table(["component", "per-iteration wall clock"], rows,
                           title=f"Figure 9: BO overhead, {label} (CPU)"))
        print(format_table(
            ["surrogate_update", "count", "wall clock each", "likelihood evaluations each"],
            refit_rows(refits, calls),
        ))
        print()
    assert 0 < single[0].iterations <= 2 * EXECUTIONS
    assert 0 < five[0].iterations <= 2 * 5 * EXECUTIONS
    # The breakdown covers the four components the paper reports.
    assert set(single[0].per_iteration()) == {
        "surrogate_update", "calculate_timeout", "vae_sampling", "generate_candidates",
    }
    # A run's first surrogate fit is a full one.
    assert any(span.attrs["mode"] == "full" for span in single[1])
