"""Shared fixtures for the benchmark harness.

Every benchmark prints the rows/series of the corresponding paper table or
figure and wraps the headline computation in ``pytest-benchmark`` so the whole
suite can be run with ``pytest benchmarks/ --benchmark-only``.

The workloads here are scaled down (both in data size and in number of
queries/executions) so the full suite completes in minutes on a laptop; the
*shape* of each result — who wins, by roughly what factor — is the
reproduction target, not the absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.core import BayesQOConfig, VAETrainingConfig
from repro.harness import prepare_schema_model
from repro.workloads import build_job_workload, build_stack_workload

#: Number of queries sampled from each workload for the comparison benches.
BENCH_QUERIES = 4
#: Per-query execution budget for the comparison benches.
BENCH_EXECUTIONS = 35


@pytest.fixture(scope="session")
def job_workload():
    """Scaled-down JOB workload shared by most benches."""
    return build_job_workload(scale=0.15, seed=0, num_queries=40)


@pytest.fixture(scope="session")
def stack_workload():
    """Scaled-down Stack workload (used by the drift benches)."""
    return build_stack_workload(scale=0.08, seed=0, num_templates=8, num_queries=24)


@pytest.fixture(scope="session")
def job_schema_model(job_workload):
    """The per-schema VAE/latent space for the JOB workload (trained once)."""
    return prepare_schema_model(
        job_workload,
        VAETrainingConfig(training_steps=1600, corpus_queries=120, latent_dim=16, hidden_dim=192),
    )


@pytest.fixture(scope="session")
def bench_bayes_config():
    return BayesQOConfig(max_executions=BENCH_EXECUTIONS, num_candidates=96, seed=0)
