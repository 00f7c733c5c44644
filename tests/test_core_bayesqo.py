"""Integration tests for the BayesQO optimizer on the tiny database."""

import inspect
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import BayesQO, BayesQOConfig, VAETrainingConfig, reoptimize
from repro.core.optimizer import train_schema_model
from repro.core.protocol import (
    BudgetSpec, ExecutionOutcome, drive, drive_query, inline_submit,
)
from repro.core.timeout import MAX_TIMEOUT_MULTIPLIER
from repro.exceptions import OptimizationError

#: What the parent of PR 16 did on these fixtures (``comment`` inside).
PARENT = json.loads((Path(__file__).parent / "data" / "parent_pr15.json").read_text())


@pytest.fixture(scope="module")
def bayes(tiny_database, tiny_schema_model):
    config = BayesQOConfig(max_executions=30, num_candidates=64, seed=0)
    return BayesQO(tiny_database, tiny_schema_model, config=config)


@pytest.fixture(scope="module")
def run(bayes, tiny_query):
    return drive_query(bayes, bayes.database, tiny_query)


@pytest.mark.slow
class TestBayesQORun:
    def test_budget_respected(self, run):
        assert 1 <= run.num_executions <= 30

    def test_best_plan_valid(self, run, tiny_query):
        run.best_plan.validate_for_query(tiny_query)
        assert run.best_latency > 0

    def test_initialization_contains_bao_plans(self, run):
        assert run.sources().get("init:bao", 0) >= 1

    def test_bo_phase_ran(self, run):
        assert run.sources().get("bo", 0) >= 1

    def test_never_worse_than_bao_best(self, bayes, run, tiny_query):
        from repro.baselines import bao_best_latency

        bao_best = bao_best_latency(bayes.database, tiny_query)
        assert run.best_latency <= bao_best + 1e-9

    def test_cumulative_cost_monotone(self, run):
        costs = [record.cumulative_cost for record in run.trace]
        assert costs == sorted(costs)

    def test_overhead_tracked(self, bayes):
        breakdown = bayes.overhead.per_iteration()
        assert set(breakdown) == {
            "surrogate_update", "calculate_timeout", "vae_sampling", "generate_candidates",
        }
        assert all(value >= 0 for value in breakdown.values())

    def test_time_budget_stops_early(self, bayes, tiny_query):
        result = drive_query(
            bayes, bayes.database, tiny_query, BudgetSpec(max_executions=None, time_budget=0.001)
        )
        assert result.total_cost >= 0.001 or result.num_executions <= 2

    def test_three_table_query(self, bayes, tiny_three_table_query):
        result = drive_query(
            bayes, bayes.database, tiny_three_table_query, BudgetSpec(max_executions=15)
        )
        result.best_plan.validate_for_query(tiny_three_table_query)

    def test_empty_initialization_rejected(self, bayes, tiny_query):
        with pytest.raises(OptimizationError):
            drive_query(bayes, bayes.database, tiny_query, initial_plans=[])


class TestInitPhaseTimeout:
    def test_init_plans_are_capped_at_the_shared_multiple_of_the_best(self, bayes, tiny_query):
        state = bayes.start(tiny_query)
        proposal = bayes.suggest(state)
        assert proposal.metadata["phase"] == "init" and proposal.timeout == 600.0
        execution = bayes.database.execute(tiny_query, proposal.plan, timeout=proposal.timeout)
        bayes.observe(state, ExecutionOutcome.from_execution(execution, proposal.timeout))
        assert bayes.suggest(state).timeout == execution.latency * MAX_TIMEOUT_MULTIPLIER

    def test_drive_takes_an_int_q_and_no_fill_hook(self, bayes):
        assert "after_fill" not in inspect.signature(drive).parameters
        with pytest.raises(OptimizationError):
            drive(bayes, [], inline_submit(bayes.database), q=0)


class TestCacheAndReoptimization:
    def test_reoptimize_with_past_plan(self, bayes, run, tiny_query):
        outcome = reoptimize(bayes, tiny_query, run.best_plan, max_executions=15)
        assert outcome.past_plan_latency > 0
        assert outcome.best_latency <= outcome.past_plan_latency + 1e-9
        sources = outcome.result.sources()
        assert "init:past_plan" in sources

    def test_reoptimize_without_bao(self, bayes, run, tiny_query):
        outcome = reoptimize(bayes, tiny_query, run.best_plan, max_executions=8, include_bao=False)
        assert outcome.result.num_executions <= 8

    def test_reoptimize_with_every_plan_censored_reports_no_improvement(
        self, tiny_database, tiny_schema_model, run, tiny_query, monkeypatch
    ):
        """Every join over the work cap: each plan, the past one included, is
        censored at its timeout, and the outcome says "not improved"."""
        from repro.db import executor as executor_module
        from repro.db.engine import Database

        monkeypatch.setattr(executor_module, "MAX_MATERIALIZED_ROWS", 0)
        # A cache of its own: capped outcomes must not reach the shared fixture's.
        database = Database(tiny_database.schema, tiny_database.relations)
        optimizer = BayesQO(
            database, tiny_schema_model, config=BayesQOConfig(max_executions=4, seed=0)
        )
        outcome = reoptimize(optimizer, tiny_query, run.best_plan, max_executions=4)
        assert outcome.result.num_executions > 0
        assert all(record.censored for record in outcome.result.trace)
        assert outcome.past_plan_latency == 600.0
        assert outcome.improved is False


@pytest.mark.slow
class TestConfigVariants:
    @pytest.mark.parametrize("strategy", ["none", "percentile", "best_seen", "multiplier"])
    def test_timeout_strategies_run(self, tiny_database, tiny_schema_model, tiny_three_table_query, strategy):
        config = BayesQOConfig(max_executions=12, timeout_strategy=strategy, seed=1)
        optimizer = BayesQO(tiny_database, tiny_schema_model, config=config)
        result = drive_query(optimizer, tiny_database, tiny_three_table_query)
        assert result.num_executions >= 1

    def test_global_bo_variant(self, tiny_database, tiny_schema_model, tiny_three_table_query):
        config = BayesQOConfig(max_executions=12, use_trust_region=False, seed=1)
        optimizer = BayesQO(tiny_database, tiny_schema_model, config=config)
        result = drive_query(optimizer, tiny_database, tiny_three_table_query)
        assert result.num_executions >= 1

    def test_random_initialization_variant(self, tiny_database, tiny_schema_model, tiny_three_table_query):
        config = BayesQOConfig(
            max_executions=12, initialization="random", num_initial_plans=5, seed=1
        )
        optimizer = BayesQO(tiny_database, tiny_schema_model, config=config)
        result = drive_query(optimizer, tiny_database, tiny_three_table_query)
        assert result.sources().get("init:random", 0) >= 1

    def test_no_learning_from_timeouts_variant(self, tiny_database, tiny_schema_model, tiny_three_table_query):
        config = BayesQOConfig(max_executions=12, learn_from_timeouts=False, seed=2)
        optimizer = BayesQO(tiny_database, tiny_schema_model, config=config)
        result = drive_query(optimizer, tiny_database, tiny_three_table_query)
        assert result.num_executions >= 1


# ------------------------------------------------- every BO proposal is a plan that has not run
def _optimize(database, schema_model, query, **config):
    """One q=1 run at the recording set-up of ``parent_pr15.json``."""
    config = {"max_executions": 35, "num_candidates": 64, "seed": 0, **config}
    optimizer = BayesQO(database, schema_model, config=BayesQOConfig(**config))
    state = optimizer.start(query)
    drive(optimizer, [state], inline_submit(database))
    return optimizer, state


@pytest.fixture(scope="module")
def job_small_schema_model(job_workload_small):
    config = VAETrainingConfig(
        latent_dim=8, embed_dim=8, hidden_dim=48, training_steps=120, corpus_queries=24, seed=3
    )
    return train_schema_model(
        job_workload_small.database, job_workload_small.queries, config,
        max_aliases=job_workload_small.max_aliases,
    )


class TestProposalsSpendBudget:
    @pytest.mark.parametrize("name", ["tiny_q1", "tiny_q2"])
    def test_budget_above_the_comfortable_plan_space_is_spent(
        self, name, tiny_workload, tiny_schema_model
    ):
        """The parent stranded 12 and 18 of these 35 executions: it met its
        ``5 * B`` iteration cap replaying plans that had already run."""
        parent = PARENT["budget_35_seed_0"][name]
        assert (parent["executions"], parent["iterations"]) in {(23, 175), (17, 175)}
        optimizer, state = _optimize(
            tiny_workload.database, tiny_schema_model, tiny_workload.query(name)
        )
        assert state.result.num_executions == 35
        assert not state.exhausted
        assert optimizer.overhead.iterations <= 2 * state.result.num_executions
        assert state.result.best_latency <= parent["best_latency"] * (1 + 1e-9)

    @pytest.mark.parametrize("name", ["JOB_2a", "JOB_3c", "JOB_4b"])
    def test_best_latency_at_equal_budget_is_no_worse_than_the_parents(
        self, name, job_workload_small, job_small_schema_model
    ):
        parent = PARENT["budget_35_seed_0"][name]
        optimizer, state = _optimize(
            job_workload_small.database, job_small_schema_model, job_workload_small.query(name)
        )
        assert state.result.num_executions == 35 >= parent["executions"]
        assert optimizer.overhead.iterations <= 2 * state.result.num_executions
        assert state.result.best_latency <= parent["best_latency"] * (1 + 1e-9)

    @pytest.mark.parametrize("key", sorted(PARENT["never_aliasing_traces"]))
    def test_where_the_parent_never_met_a_duplicate_the_trace_is_the_parents(
        self, key, tiny_workload, tiny_schema_model
    ):
        """Rank-ordered masking is "mask, then argmin": with nothing to mask
        the pick, the RNG stream and so the whole trace are the old loop's."""
        recorded = PARENT["never_aliasing_traces"][key]
        optimizer, state = _optimize(
            tiny_workload.database, tiny_schema_model, tiny_workload.query(key.split("/")[0]),
            max_executions=recorded["max_executions"], seed=recorded["seed"],
        )
        trace = state.result.trace_signature()
        assert len(trace) == len(recorded["trace"])
        for (plan, latency, censored, timeout, source), theirs in zip(trace, recorded["trace"]):
            assert [plan, censored, source] == [theirs[0], theirs[2], theirs[4]]
            assert [latency, timeout] == pytest.approx([theirs[1], theirs[3]], rel=1e-9)
        # One pool per BO execution, each candidate decoded was the top one.
        assert optimizer.overhead.iterations == state.result.sources()["bo"]

    def test_reachable_plan_space_smaller_than_the_budget_ends_the_run(
        self, tiny_database, tiny_schema_model, tiny_two_table_query
    ):
        query = tiny_two_table_query
        start = time.perf_counter()
        optimizer, state = _optimize(tiny_database, tiny_schema_model, query, max_executions=40)
        assert time.perf_counter() - start < 1.0
        # Two join orders x three join operators, each executed exactly once.
        plans = [record.plan.canonical() for record in state.result.trace]
        assert len(plans) == len(set(plans)) == len(state.executed) <= 6
        assert state.exhausted and state.budget.remaining_executions(state.result) > 0
        assert optimizer.suggest(state) is None
        # Exhaustion is a statement about what the latent space decodes to.
        latent_space = tiny_schema_model.latent_space
        sample = latent_space.random_vectors(512, np.random.default_rng(0))
        assert {p.canonical() for p in latent_space.decode_vectors(sample, query)} <= set(plans)
        # The asks that found nothing drew a trust-region and a global pool.
        assert optimizer.overhead.iterations <= 2 * (len(plans) + 2)


# ------------------------------------------------------------------ the decode memo
def _step(optimizer, state, database, steps=None):
    """``steps`` suggest -> execute -> observe rounds (all of them: the budget)."""
    while state.budget_left() and steps != 0:
        proposal = optimizer.suggest(state)
        if proposal is None:
            state.exhausted = True
            break
        execution = database.execute(state.query, proposal.plan, timeout=proposal.timeout)
        optimizer.observe(state, ExecutionOutcome.from_execution(execution, proposal.timeout))
        steps = None if steps is None else steps - 1


class TestDecodeMemo:
    """Token sequence -> (key, merges) per query: a cache that never reaches a pickle."""

    CONFIG = BayesQOConfig(max_executions=16, num_candidates=64, seed=0)

    def test_checkpoint_holds_no_memo_and_resumes_to_the_uninterrupted_trace(
        self, tiny_database, tiny_schema_model, tiny_query
    ):
        optimizer = BayesQO(tiny_database.snapshot(), tiny_schema_model, config=self.CONFIG)
        state = optimizer.start(tiny_query)
        _step(optimizer, state, optimizer.database)
        reference = optimizer.finish(state).trace_signature()
        assert "_decode_memo" not in state.__dict__

        optimizer = BayesQO(tiny_database.snapshot(), tiny_schema_model, config=self.CONFIG)
        state = optimizer.start(tiny_query)
        _step(optimizer, state, optimizer.database, steps=12)
        assert state.result.sources()["bo"] > 0 and state.decode_memo()
        blob = pickle.dumps((optimizer, state))
        checkpoint = pickle.dumps(state)
        state.clear_decode_memo()
        assert checkpoint == pickle.dumps(state)

        optimizer, resumed = pickle.loads(blob)
        assert "_decode_memo" not in resumed.__dict__
        _step(optimizer, resumed, optimizer.database)
        assert optimizer.finish(resumed).trace_signature() == reference

    def test_state_pickled_by_the_parent_build_resumes(
        self, tiny_database, tiny_schema_model, tiny_three_table_query, tmp_path
    ):
        # Pickled by the build before the memo: ``optimizer.start(tiny_q2,
        # BudgetSpec(max_executions=10))`` under CONFIG, six rounds of ``_step``.
        pickled = Path(__file__).parent / "data" / "bayesqo_state_pre_memo.pkl"
        with open(pickled, "rb") as handle:
            state = pickle.load(handle)
        assert state.query == tiny_three_table_query
        assert state.result.num_executions == 6 and state.budget.max_executions == 10
        optimizer = BayesQO(tiny_database.snapshot(), tiny_schema_model, config=self.CONFIG)
        _step(optimizer, state, optimizer.database)
        plans = [record.plan.canonical() for record in optimizer.finish(state).trace]
        assert len(plans) == len(set(plans))
        assert len(plans) == 10 or state.exhausted
        # In a fresh interpreter scipy's LAPACK is loaded at the surrogate's
        # first call, not by unpickling it, and the resumed run asks the same
        # plans.
        model = tmp_path / "model.pkl"
        model.write_bytes(pickle.dumps(tiny_schema_model))
        out = subprocess.run(
            [sys.executable, "-c", _FRESH_RESUME, str(pickled), str(model)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(pickled.parents[1]), *sys.path])),
            check=True, capture_output=True, text=True, timeout=300,
        ).stdout
        report = json.loads(out)
        assert report["unpickled_with"] == []
        assert report["query"] == "tiny_q2" and report["plans"] == plans
        assert "scipy.linalg._flapack" in report["finished_with"]


#: Resume ``argv[1]``'s BayesQO state with ``argv[2]``'s schema model in a
#: fresh interpreter; report the heavy modules loaded after unpickling and at
#: the end, and the plans run.
_FRESH_RESUME = """
import json, pickle, sys

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx"))

with open(sys.argv[1], "rb") as handle:
    state = pickle.load(handle)
with open(sys.argv[2], "rb") as handle:
    model = pickle.load(handle)
report = {"unpickled_with": heavy(), "query": state.query.name}
from conftest import _tiny_schema, _tiny_specs
from test_core_bayesqo import TestDecodeMemo, _step
from repro.core import BayesQO
from repro.db.datagen import DataGenerator
from repro.db.engine import Database

schema = _tiny_schema()
database = Database(schema, DataGenerator(schema, _tiny_specs(), seed=7).generate(), seed=7)
optimizer = BayesQO(database, model, config=TestDecodeMemo.CONFIG)
_step(optimizer, state, database)
report["plans"] = [record.plan.canonical() for record in optimizer.finish(state).trace]
report["finished_with"] = heavy()
print(json.dumps(report))
"""
