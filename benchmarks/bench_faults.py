"""Chaos benchmark: the fault-tolerance gate for the execution service.

The paper's premise is hours of offline machine time buying milliseconds at
query time — so a worker crash or a hung execution at hour three must not
discard the run.  This bench injects a seeded fault schedule (worker crashes,
transient infra errors, hangs, slow replicas — see
:mod:`repro.exec.faults`) into a supervised session — one inline member
behind the lease coordinator — and gates on the recovery guarantees:

* **completion + equivalence** — under the fault schedule the session
  completes every query, and its per-query observation traces are identical
  to the fault-free run (faults cost wall-clock, never results),
* **bounded retries** — the coordinator's dispatches stay within
  ``submissions * (1 + max_retries)`` and nothing gives up,
* **kill + resume is exact** — a session killed mid-run and resumed from its
  checkpoint finishes with traces bit-for-bit identical to the uninterrupted
  run, without re-executing completed work.

``overhead_ratio`` (chaos wall-clock / fault-free wall-clock) is the headline
metric tracked warn-only by ``bench_trend.py``.

Run:  PYTHONPATH=src python benchmarks/bench_faults.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.core.config import ExecutionServiceConfig
from repro.core.protocol import BudgetSpec
from repro.db.catalog import Column, ForeignKey, Schema, Table
from repro.db.datagen import ColumnSpec, DataGenerator, TableSpec
from repro.db.engine import Database
from repro.db.query import FilterPredicate, JoinPredicate, Query, TableRef
from repro.exec import FaultInjectionConfig, InlineBackend
from repro.harness import WorkloadSession
from repro.workloads.base import Workload
from repro.utils import get_logger

NUM_QUERIES = 4
EXECUTIONS_PER_QUERY = 8
SMOKE_EXECUTIONS = 5
TECHNIQUE = "random"
SEED = 0
KILL_AFTER = 6  # executions completed before the mid-run kill

#: The chaos scenario: every fault kind enabled, bounded per request so the
#: coordinator's lease attempts (MAX_RETRIES > max_faults_per_request) make
#: completion guaranteed, not probabilistic.
FAULTS = FaultInjectionConfig(
    seed=7,
    crash_rate=0.12,
    transient_rate=0.12,
    hang_rate=0.06,
    slow_rate=0.10,
    hang_seconds=3.0,
    slow_seconds=0.01,
    max_faults_per_request=2,
)
MAX_RETRIES = 4
REQUEST_DEADLINE = 0.5  # seconds before a hung execution is abandoned


def build_bench_workload() -> Workload:
    """A small star-schema workload with latency noise enabled."""
    tables = [
        Table("orders", [Column("id"), Column("customer_id"), Column("product_id"),
                         Column("quantity")]),
        Table("customer", [Column("id"), Column("region")]),
        Table("product", [Column("id"), Column("category")]),
    ]
    foreign_keys = [
        ForeignKey("orders", "customer_id", "customer", "id"),
        ForeignKey("orders", "product_id", "product", "id"),
    ]
    schema = Schema("bench_faults", tables, foreign_keys)
    schema.index_all_join_keys()
    specs = {
        "orders": TableSpec(3000, {
            "quantity": ColumnSpec("categorical", cardinality=16, skew=1.2),
        }, fk_skew=1.3),
        "customer": TableSpec(400, {
            "region": ColumnSpec("categorical", cardinality=8, skew=1.0),
        }),
        "product": TableSpec(350, {
            "category": ColumnSpec("categorical", cardinality=10, skew=1.1),
        }),
    }
    database = Database(schema, DataGenerator(schema, specs, seed=13).generate(),
                        noise_sigma=0.15, seed=13)
    queries = [
        Query(
            name=f"faults_q{i}",
            table_refs=[TableRef("orders#1", "orders"), TableRef("customer#1", "customer"),
                        TableRef("product#1", "product")],
            join_predicates=[
                JoinPredicate("orders#1", "customer_id", "customer#1", "id"),
                JoinPredicate("orders#1", "product_id", "product#1", "id"),
            ],
            filters=[FilterPredicate("customer#1", "region", "=", i % 8)],
            template="bench_faults_T1",
        )
        for i in range(NUM_QUERIES)
    ]
    return Workload(
        name="bench_faults",
        database=database,
        queries=queries,
        max_aliases=1,
        description="fault-injection bench workload",
    )


def signatures(results) -> dict:
    return {name: result.trace_signature() for name, result in results.items()}


class _SessionKilled(BaseException):
    """Simulated hard kill — a BaseException, so nothing swallows it."""


class _KillAfter:
    """Inline backend that raises (like a kill -9) after N executions."""

    name = "kill-after"

    def __init__(self, database, kills_at: int) -> None:
        self.inner = InlineBackend(database)
        self.kills_at = kills_at
        self.executed = 0

    def capacity(self) -> int:
        return 1

    def submit(self, request):
        if self.executed >= self.kills_at:
            raise _SessionKilled()
        self.executed += 1
        return self.inner.submit(request)

    def healthy(self) -> bool:
        return True

    def close(self) -> None:
        pass


def run_benchmark(executions: int, checkpoint_dir: str) -> dict:
    workload = build_bench_workload()
    budget = BudgetSpec(max_executions=executions)

    # Arm 1: fault-free reference (plain inline execution).
    with WorkloadSession(workload, budget=budget, seed=SEED) as session:
        start = time.perf_counter()
        reference = session.run(TECHNIQUE)
    reference_s = time.perf_counter() - start
    total_executions = sum(result.num_executions for result in reference.values())

    # Arm 2: the same run under the injected fault schedule, supervised.
    chaos_config = ExecutionServiceConfig(
        backend="inline",
        supervised=True,
        request_deadline=REQUEST_DEADLINE,
        max_retries=MAX_RETRIES,
        fault_injection=FAULTS,
    )
    with WorkloadSession(workload, budget=budget, seed=SEED,
                         exec_config=chaos_config) as session:
        start = time.perf_counter()
        chaos = session.run(TECHNIQUE)
        chaos_s = time.perf_counter() - start
        health = session.health_report()
    fabric = {
        key: health.get("fabric", {}).get(key, 0)
        for key in ("submissions", "dispatched", "lease_reassignments", "hangs", "give_ups")
    }
    faults = health.get("faults", {})

    # Arm 3: kill the session mid-run, then resume from its checkpoint.
    checkpoint_path = os.path.join(checkpoint_dir, "bench_faults.ckpt")
    killer = _KillAfter(workload.database, kills_at=KILL_AFTER)
    killed_session = WorkloadSession(
        workload, budget=budget, seed=SEED, backend=killer,
        checkpoint_path=checkpoint_path, checkpoint_every=1,
    )
    killed = False
    try:
        killed_session.run(TECHNIQUE)
    except _SessionKilled:
        killed = True
    resume_backend = _KillAfter(workload.database, kills_at=10**9)
    with WorkloadSession(
        workload, budget=budget, seed=SEED, backend=resume_backend,
        checkpoint_path=checkpoint_path, checkpoint_every=1,
    ) as session:
        resumed = session.run(TECHNIQUE)

    reference_sig = signatures(reference)
    attempts_bound = fabric["submissions"] * (1 + MAX_RETRIES)
    return {
        "technique": TECHNIQUE,
        "num_queries": NUM_QUERIES,
        "executions_per_query": executions,
        "total_executions": total_executions,
        "reference_s": reference_s,
        "chaos_s": chaos_s,
        "overhead_ratio": chaos_s / reference_s if reference_s > 0 else float("inf"),
        "fault_counters": faults,
        "fabric": fabric,
        "max_retries": MAX_RETRIES,
        "request_deadline": REQUEST_DEADLINE,
        "chaos_all_queries_completed": set(chaos) == set(reference),
        "chaos_traces_equivalent": signatures(chaos) == reference_sig,
        "faults_injected": faults.get("total_faults", 0),
        "retries_bounded": fabric["dispatched"] <= attempts_bound,
        "give_ups": fabric["give_ups"],
        "killed_mid_run": killed,
        "executions_before_kill": killer.executed,
        "executions_after_resume": resume_backend.executed,
        "resume_traces_equivalent": signatures(resumed) == reference_sig,
        "resume_repaid_no_work": resume_backend.executed == total_executions - KILL_AFTER,
    }


def gate_failures(report: dict) -> list[str]:
    failures = []
    if not report["chaos_all_queries_completed"]:
        failures.append("chaos run did not complete every query")
    if not report["chaos_traces_equivalent"]:
        failures.append("chaos traces diverge from the fault-free run")
    if report["faults_injected"] == 0:
        failures.append("fault schedule injected nothing — the chaos arm tested nothing")
    if not report["retries_bounded"]:
        failures.append("coordinator dispatches exceeded the retry bound")
    if report["give_ups"] != 0:
        failures.append(f"coordinator gave up on {report['give_ups']} request(s)")
    if not report["killed_mid_run"]:
        failures.append("mid-run kill never fired — the resume arm tested nothing")
    if not report["resume_traces_equivalent"]:
        failures.append("resumed traces diverge from the uninterrupted run")
    if not report["resume_repaid_no_work"]:
        failures.append("resume re-executed work the checkpoint had already paid for")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="smaller budget (CI smoke mode)")
    parser.add_argument("--json", metavar="PATH", help="write the result breakdown to PATH")
    args = parser.parse_args(argv)

    executions = SMOKE_EXECUTIONS if args.smoke else EXECUTIONS_PER_QUERY
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench_faults_") as checkpoint_dir:
        report = run_benchmark(executions, checkpoint_dir)

    print(
        f"fault tolerance @ {report['num_queries']} queries x "
        f"{report['executions_per_query']} executions"
    )
    print(f"  fault-free  {report['reference_s'] * 1e3:8.1f} ms")
    print(f"  chaos       {report['chaos_s'] * 1e3:8.1f} ms  "
          f"({report['overhead_ratio']:.2f}x overhead)")
    counters = report["fault_counters"]
    print(f"  injected: {counters.get('crashes', 0)} crashes, "
          f"{counters.get('transients', 0)} transients, {counters.get('hangs', 0)} hangs, "
          f"{counters.get('slowdowns', 0)} slowdowns over "
          f"{report['fabric']['dispatched']} dispatches "
          f"({report['fabric']['lease_reassignments']} reassignments, "
          f"{report['fabric']['hangs']} hangs, {report['give_ups']} give-ups)")
    print(f"  chaos traces equivalent: {report['chaos_traces_equivalent']}")
    print(f"  kill after {report['executions_before_kill']} -> resume executed "
          f"{report['executions_after_resume']} "
          f"(bit-for-bit: {report['resume_traces_equivalent']})")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        get_logger("bench").info("wrote %s", args.json)

    failures = gate_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
