"""Fabric benchmark: multi-node scaling, chaos determinism, coordinator resume.

Three arms over localhost node processes (:mod:`repro.exec.fabric`):

* **scaling** — a CPU-bound workload (every execution burns GIL-held
  Python, the ``bench_exec_backends`` regime) run on a 1-node fabric and a
  ``SCALE_NODES``-node fabric, fresh database each so no cache priming turns
  executions into replays.  Headline: ``fabric_speedup_ratio``.  The
  ``REQUIRED_SPEEDUP`` gate needs real parallel hardware — on machines with
  fewer than ``SCALE_NODES`` effective CPUs it is recorded as skipped.
* **chaos** — the ``bench_faults`` workload on a 3-node fabric under a
  seeded network-fault schedule (connection drops, partitions outliving the
  heartbeat deadline, slow links, hard node kills).  Gates: every query
  completes, traces are **bit-for-bit** identical to a fault-free inline
  run, the budget is never double-charged (exactly the reference's
  execution count), lease reassignments stay bounded and nothing gives up.
  Headline: ``chaos_overhead_ratio``.
* **resume** — the coordinator is hard-killed mid-run above a fabric
  backend, then a fresh session resumes from its checkpoint: traces
  bit-for-bit, and the resumed run pays only for work the checkpoint had
  not already paid.

Run:  PYTHONPATH=src python benchmarks/bench_fabric.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from bench_exec_backends import (
    build_bench_workload as build_cpu_workload,
    effective_cpus,
)
from bench_faults import build_bench_workload as build_chaos_workload

from repro.core.protocol import BudgetSpec
from repro.exec import FaultInjectionConfig, start_local_fabric
from repro.harness import WorkloadSession

TECHNIQUE = "random"
SEED = 0
EXECUTIONS_PER_QUERY = 8
SMOKE_EXECUTIONS = 5
SCALE_NODES = 3
REQUIRED_SPEEDUP = 1.7
BURN_ITERATIONS = 250_000
SMOKE_BURN_ITERATIONS = 150_000
KILL_AFTER = 6
CHAOS_NODES = 3
LINK_FAULTS = FaultInjectionConfig(
    seed=7,
    drop_rate=0.10,
    partition_rate=0.06,
    slow_link_rate=0.08,
    kill_rate=0.05,
    partition_seconds=0.6,
    slow_link_seconds=0.01,
    max_faults_per_request=1,
)
#: Tight heartbeats keep loss detection (and the bench) fast; the partition
#: above outlives the deadline, so recovery goes through the real machinery.
HEARTBEAT = dict(heartbeat_interval=0.05, heartbeat_timeout=0.4)


def signatures(results) -> dict:
    return {name: result.trace_signature() for name, result in results.items()}


class _SessionKilled(BaseException):
    """Simulated coordinator hard kill — BaseException, nothing swallows it."""


class _KillAfter:
    """Backend wrapper that raises (like a kill -9) after N submissions."""

    name = "kill-after"

    def __init__(self, inner, kills_at: int) -> None:
        self.inner = inner
        self.kills_at = kills_at
        self.executed = 0

    def capacity(self) -> int:
        return self.inner.capacity()

    def submit(self, request):
        if self.executed >= self.kills_at:
            raise _SessionKilled()
        self.executed += 1
        return self.inner.submit(request)

    def healthy(self) -> bool:
        return self.inner.healthy()

    def close(self) -> None:
        self.inner.close()


def _run_fabric(workload, budget: BudgetSpec, num_nodes: int, **fabric_kwargs):
    """One session on a fresh localhost fabric; returns (results, s, health).

    ``health`` is the session's whole health report: ``"fabric"`` and, with
    a fault schedule, ``"faults"``.
    """
    backend = start_local_fabric(
        workload.database, workload.queries, num_nodes=num_nodes,
        **HEARTBEAT, **fabric_kwargs,
    )
    with WorkloadSession(workload, budget=budget, seed=SEED, backend=backend) as session:
        start = time.perf_counter()
        results = session.run(TECHNIQUE)
        elapsed = time.perf_counter() - start
        health = session.health_report()
    return results, elapsed, health


def _scaling_arm(executions: int, burn_iterations: int) -> dict:
    budget = BudgetSpec(max_executions=executions)
    cpus = effective_cpus()

    # A fresh workload (fresh relations *and* a fresh execution cache) per
    # run: a warm coordinator cache would prime the nodes and turn every
    # execution into a shipped-log replay, measuring nothing.
    def fresh_workload():
        return build_cpu_workload(burn_iterations)

    one_results, one_s, _ = _run_fabric(fresh_workload(), budget, num_nodes=1)
    many_results, many_s, _ = _run_fabric(fresh_workload(), budget, num_nodes=SCALE_NODES)

    # The determinism story holds under scaling too: same traces regardless
    # of how many nodes split the work.
    with WorkloadSession(fresh_workload(), budget=budget, seed=SEED) as session:
        inline = session.run(TECHNIQUE)

    return {
        "effective_cpus": cpus,
        "scale_nodes": SCALE_NODES,
        "burn_iterations": burn_iterations,
        "one_node_s": one_s,
        "multi_node_s": many_s,
        "fabric_speedup_ratio": one_s / many_s if many_s > 0 else float("inf"),
        "required_speedup": REQUIRED_SPEEDUP,
        "speedup_gate_enforced": cpus >= SCALE_NODES,
        "scaling_traces_equivalent": (
            signatures(one_results) == signatures(many_results) == signatures(inline)
        ),
    }


def _chaos_arm(executions: int) -> dict:
    budget = BudgetSpec(max_executions=executions)

    reference_workload = build_chaos_workload()
    with WorkloadSession(reference_workload, budget=budget, seed=SEED) as session:
        start = time.perf_counter()
        reference = session.run(TECHNIQUE)
    reference_s = time.perf_counter() - start
    total = sum(result.num_executions for result in reference.values())

    chaos_workload = build_chaos_workload()
    chaos, chaos_s, report = _run_fabric(
        chaos_workload, budget, num_nodes=CHAOS_NODES, faults=LINK_FAULTS,
    )
    chaos_total = sum(result.num_executions for result in chaos.values())
    health = report.get("fabric", {})
    faults = report.get("faults", {})
    # Every reassignment consumes one bounded lease attempt: 3 x nodes per
    # lease by default, so the fleet-wide total is bounded by submissions.
    reassignment_bound = health.get("submissions", 0) * 3 * CHAOS_NODES
    return {
        "chaos_nodes": CHAOS_NODES,
        "reference_s": reference_s,
        "chaos_s": chaos_s,
        "chaos_overhead_ratio": chaos_s / reference_s if reference_s > 0 else float("inf"),
        "network_fault_config": {
            "seed": LINK_FAULTS.seed,
            "drop_rate": LINK_FAULTS.drop_rate,
            "partition_rate": LINK_FAULTS.partition_rate,
            "slow_link_rate": LINK_FAULTS.slow_link_rate,
            "kill_rate": LINK_FAULTS.kill_rate,
        },
        "faults": faults,
        "faults_injected": faults.get("total_faults", 0),
        "lease_reassignments": health.get("lease_reassignments", 0),
        "reassignments_bounded": health.get("lease_reassignments", 0) <= reassignment_bound,
        "node_losses": health.get("node_losses", 0),
        "reconnects": health.get("reconnects", 0),
        "give_ups": health.get("give_ups", 0),
        "degraded_executions": health.get("degraded_executions", 0),
        "chaos_all_queries_completed": set(chaos) == set(reference),
        "chaos_traces_equivalent": signatures(chaos) == signatures(reference),
        "reference_executions": total,
        "chaos_executions": chaos_total,
        "budget_single_charged": chaos_total == total,
    }


def _resume_arm(executions: int, checkpoint_dir: str) -> dict:
    budget = BudgetSpec(max_executions=executions)

    reference_workload = build_chaos_workload()
    with WorkloadSession(reference_workload, budget=budget, seed=SEED) as session:
        reference = session.run(TECHNIQUE)
    reference_sig = signatures(reference)
    total = sum(result.num_executions for result in reference.values())

    checkpoint_path = os.path.join(checkpoint_dir, "bench_fabric.ckpt")
    killed_workload = build_chaos_workload()
    killer = _KillAfter(
        start_local_fabric(
            killed_workload.database, killed_workload.queries, num_nodes=2, **HEARTBEAT,
        ),
        kills_at=KILL_AFTER,
    )
    killed = False
    session = WorkloadSession(
        killed_workload, budget=budget, seed=SEED, backend=killer,
        checkpoint_path=checkpoint_path, checkpoint_every=1,
    )
    try:
        session.run(TECHNIQUE)
    except _SessionKilled:
        killed = True
    finally:
        killer.close()

    resume_workload = build_chaos_workload()
    resume_backend = _KillAfter(
        start_local_fabric(
            resume_workload.database, resume_workload.queries, num_nodes=2, **HEARTBEAT,
        ),
        kills_at=10**9,
    )
    with WorkloadSession(
        resume_workload, budget=budget, seed=SEED, backend=resume_backend,
        checkpoint_path=checkpoint_path, checkpoint_every=1,
    ) as session:
        resumed = session.run(TECHNIQUE)

    return {
        "killed_mid_run": killed,
        "executions_before_kill": killer.executed,
        "executions_after_resume": resume_backend.executed,
        "total_executions": total,
        "resume_traces_equivalent": signatures(resumed) == reference_sig,
        "resume_repaid_no_work": resume_backend.executed == total - KILL_AFTER,
    }


def run_benchmark(executions: int, burn_iterations: int, checkpoint_dir: str) -> dict:
    report = {
        "technique": TECHNIQUE,
        "executions_per_query": executions,
    }
    report.update(_scaling_arm(executions, burn_iterations))
    report.update(_chaos_arm(executions))
    report.update(_resume_arm(executions, checkpoint_dir))
    return report


def gate_failures(report: dict) -> list[str]:
    failures = []
    if report["speedup_gate_enforced"] and report["fabric_speedup_ratio"] < REQUIRED_SPEEDUP:
        failures.append(
            f"fabric speedup {report['fabric_speedup_ratio']:.2f}x below the "
            f"{REQUIRED_SPEEDUP:.1f}x gate at {SCALE_NODES} nodes"
        )
    if not report["scaling_traces_equivalent"]:
        failures.append("traces diverge across 1-node / multi-node / inline runs")
    if not report["chaos_all_queries_completed"]:
        failures.append("chaos run did not complete every query")
    if not report["chaos_traces_equivalent"]:
        failures.append("chaos traces diverge from the fault-free inline run")
    if not report["budget_single_charged"]:
        failures.append(
            f"budget double-charged: {report['chaos_executions']} executions "
            f"vs {report['reference_executions']} in the reference"
        )
    if report["faults_injected"] == 0:
        failures.append("fault schedule injected nothing — the chaos arm tested nothing")
    if not report["reassignments_bounded"]:
        failures.append("lease reassignments exceeded the per-lease attempt bound")
    if report["give_ups"] != 0:
        failures.append(f"fabric gave up on {report['give_ups']} lease(s)")
    if not report["killed_mid_run"]:
        failures.append("coordinator kill never fired — the resume arm tested nothing")
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
    burn = SMOKE_BURN_ITERATIONS if args.smoke else BURN_ITERATIONS
    with tempfile.TemporaryDirectory(prefix="bench_fabric_") as checkpoint_dir:
        report = run_benchmark(executions, burn, checkpoint_dir)

    print(
        f"fabric bench: {executions} executions/query, technique={TECHNIQUE} "
        f"({report['effective_cpus']} cpus)"
    )
    print(
        f"  scaling : 1 node {report['one_node_s']:.2f}s -> {SCALE_NODES} nodes "
        f"{report['multi_node_s']:.2f}s ({report['fabric_speedup_ratio']:.2f}x)"
    )
    print(
        f"  chaos   : {report['chaos_s']:.2f}s vs inline {report['reference_s']:.2f}s "
        f"({report['chaos_overhead_ratio']:.2f}x), "
        f"{report['faults_injected']} faults, "
        f"{report['lease_reassignments']} reassignments, "
        f"{report['node_losses']} losses, traces equal: "
        f"{report['chaos_traces_equivalent']}"
    )
    print(
        f"  resume  : killed after {report['executions_before_kill']} executions, "
        f"resume paid {report['executions_after_resume']} "
        f"of {report['total_executions']}, traces equal: "
        f"{report['resume_traces_equivalent']}"
    )
    if not report["speedup_gate_enforced"]:
        print(
            f"  NOTE: speedup gate skipped — {report['effective_cpus']} effective CPU(s); "
            f"parallel speedup needs >= {SCALE_NODES}"
        )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"  wrote {args.json}")

    failures = gate_failures(report)
    for failure in failures:
        print(f"  GATE FAILURE: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
