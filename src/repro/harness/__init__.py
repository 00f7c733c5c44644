"""Benchmark harness: the workload scheduler, metrics and text reporting.

The loop owner is :class:`~repro.harness.runner.WorkloadSession`, which drives
every registered ask/tell technique over a workload under one shared
:class:`~repro.core.protocol.BudgetSpec` — sequentially, or interleaved with
plan executions routed through any :mod:`repro.exec` backend (thread pool,
process pool with warm database replicas, lease coordinator), ready queries
claiming free slots in FIFO order.  ``run_comparison`` is a thin wrapper that
runs the Figure 3 comparison through one session.
"""

from repro.harness.metrics import (
    StreamingPercentiles,
    WorkloadSummary,
    best_latency_curve,
    improvement_cdf,
    improvement_distribution,
    improvement_over_baseline,
    percentage_difference,
    workload_curve,
)
from repro.harness.checkpoint import CheckpointManager, SessionCheckpoint
from repro.harness.reporting import format_cdf, format_summaries, format_table
from repro.harness.runner import (
    ComparisonRun,
    ExecutionCacheReport,
    WorkloadSession,
    prepare_schema_model,
    run_comparison,
)
from repro.core.config import ExecutionServiceConfig
from repro.core.protocol import BudgetSpec, ExecutionOutcome, PlanProposal

__all__ = [
    "BudgetSpec",
    "CheckpointManager",
    "ExecutionServiceConfig",
    "ComparisonRun",
    "ExecutionCacheReport",
    "SessionCheckpoint",
    "StreamingPercentiles",
    "ExecutionOutcome",
    "PlanProposal",
    "WorkloadSession",
    "WorkloadSummary",
    "best_latency_curve",
    "format_cdf",
    "format_summaries",
    "format_table",
    "improvement_cdf",
    "improvement_distribution",
    "improvement_over_baseline",
    "percentage_difference",
    "prepare_schema_model",
    "run_comparison",
    "workload_curve",
]
