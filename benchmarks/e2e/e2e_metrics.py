"""The benchmark's declared vocabulary: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` (contract keys only) and ``baseline.json`` (the ledger with
layers, sources and expected movements) are both written from these tables,
and ``run.py`` refuses to print a metric that is not declared here.
"""

from __future__ import annotations

OPT_WORKLOADS = ("opt_exec_bound", "opt_bo_bound", "opt_parallel_q4")
OWNED_LOOPS = ("opt_exec_bound", "opt_bo_bound")

WORKLOADS = {
    "opt_exec_bound": (
        "the two few-table JOB queries with the largest default-plan output at q=1: executor "
        "kernels, plan cache and subplan memo do the work, so BO changes must not move it"
    ),
    "opt_bo_bound": (
        "the lightest few-table JOB query at a budget above its plan space: executions are free, "
        "so surrogate, acquisition, decode and timeout are the run; executor changes must not move it"
    ),
    "opt_parallel_q4": (
        "median JOB queries at q=4 on a 2-worker process pool: suggest_batch and execute_batch "
        "plus scheduling, IPC and coordinator-vs-worker CPU contention"
    ),
    "serve_stream": (
        "Zipf stream with a drift event on a PlanServer: store reads beside upserts and "
        "per-arrival checkpoints, replay-mode executor, planner and Bao in maintenance"
    ),
}

#: name -> (unit, better, bound, definition).  Every workload reports every
#: one of them and none can be 0, which is why the list is short: the other
#: numbers a user sees apply to some workloads only and live in PER_LAYER.
END_TO_END = {
    "setup_s": (
        "s", "lower", 0.25,
        "median of the repeated family set-up: data build, VAE training and selection probe "
        "(opt_*) or Stack build and 2017 rollback (serve_stream)",
    ),
    "wall_s": (
        "s", "lower", 0.25,
        "median timed pass, first layer call to last result (stream + fast-path probe + resume "
        "on serve_stream; backend start to close on opt_parallel_q4)",
    ),
    "ops_per_s": (
        "1/s", "higher", 0.25,
        "median over passes of completed operations / pass wall: plan executions on opt_*, "
        "arrivals on serve_stream",
    ),
    "peak_rss_mb": (
        "MiB", "lower", 0.10,
        "ru_maxrss of the forked measuring child plus the largest of its pool workers",
    ),
}


def _moves(metric: str, *workloads: str) -> list[list[str]]:
    return [[metric, workload] for workload in workloads]


_ALL = tuple(WORKLOADS)

#: name -> (unit, better, layer, source, moves).  ``source`` is how the number
#: is taken (span / counter / probe); ``moves`` lists the (end-to-end metric,
#: workload) pairs it is expected to move.  A workload that does not use a
#: layer reports 0 for it.
PER_LAYER = {
    # ---- set-up
    "workloads.build_s": ("s", "lower", "workloads", "span", _moves("setup_s", *_ALL)),
    "vae.train_s": ("s", "lower", "vae", "span", _moves("setup_s", *OPT_WORKLOADS)),
    "vae.train_steps_per_s": ("1/s", "higher", "vae", "span", _moves("setup_s", *OPT_WORKLOADS)),
    "bench.probe_s": ("s", "lower", "db", "span", _moves("setup_s", *OPT_WORKLOADS)),
    # ---- core (owned ask/tell loops)
    "core.start_s": ("s", "lower", "core", "span", _moves("wall_s", "opt_exec_bound", "opt_bo_bound")),
    "core.suggest_s": ("s", "lower", "core", "span", _moves("wall_s", "opt_bo_bound")),
    "core.observe_s": ("s", "lower", "core", "span", _moves("wall_s", "opt_bo_bound")),
    "core.suggest_ms_p50": ("ms", "lower", "core", "span", _moves("wall_s", "opt_bo_bound")),
    "core.suggest_ms_p90": ("ms", "lower", "core", "span", _moves("wall_s", "opt_bo_bound")),
    "core.timeout_s": ("s", "lower", "core", "counter", _moves("wall_s", "opt_bo_bound")),
    "core.executions": ("count", "higher", "core", "counter", _moves("ops_per_s", *OWNED_LOOPS)),
    "core.iterations": ("count", "lower", "core", "counter", _moves("wall_s", "opt_bo_bound")),
    "core.useful_iteration_share": ("ratio", "higher", "core", "counter", _moves("wall_s", "opt_bo_bound")),
    "core.overhead_ms_per_exec": ("ms", "lower", "core", "span", _moves("wall_s", *OWNED_LOOPS)),
    "core.plan_speedup_geomean": ("x", "higher", "core", "counter", []),
    # ---- bo
    "bo.surrogate_update_s": ("s", "lower", "bo", "counter", _moves("wall_s", "opt_bo_bound")),
    "bo.generate_candidates_s": ("s", "lower", "bo", "counter", _moves("wall_s", "opt_bo_bound")),
    "bo.final_observations": ("count", "lower", "bo", "counter", _moves("wall_s", "opt_bo_bound")),
    "bo.probe.full_fit_ms": ("ms", "lower", "bo", "probe", _moves("wall_s", "opt_bo_bound")),
    "bo.probe.rank1_update_ms": ("ms", "lower", "bo", "probe", _moves("wall_s", "opt_bo_bound")),
    "bo.probe.predict_ms": ("ms", "lower", "bo", "probe", _moves("wall_s", "opt_bo_bound")),
    # ---- vae / plans
    "vae.decode_s": ("s", "lower", "vae", "counter", _moves("wall_s", "opt_bo_bound")),
    "vae.probe.decode_us_per_plan": ("us", "lower", "vae", "probe", _moves("wall_s", "opt_bo_bound")),
    "plans.probe.embed_us_per_plan": ("us", "lower", "plans", "probe", _moves("wall_s", "opt_bo_bound")),
    # ---- db
    "db.execute_s": ("s", "lower", "db", "span", _moves("wall_s", "opt_exec_bound")),
    "db.execute_ms_p50": ("ms", "lower", "db", "span", _moves("ops_per_s", "opt_exec_bound")),
    "db.execute_ms_p90": ("ms", "lower", "db", "span", _moves("ops_per_s", "opt_exec_bound")),
    "db.executor.censored_share": ("ratio", "lower", "db", "counter", _moves("wall_s", "opt_exec_bound")),
    "db.executor.censored_cost_share": ("ratio", "lower", "db", "counter", _moves("wall_s", "opt_exec_bound")),
    "db.executor.nodes_executed": ("count", "lower", "db", "counter", _moves("wall_s", "opt_exec_bound")),
    "db.plan_cache.outcome_hit_rate": ("ratio", "higher", "db", "counter", _moves("wall_s", "opt_exec_bound")),
    "db.plan_cache.subplan_hit_rate": ("ratio", "higher", "db", "counter", _moves("wall_s", "opt_exec_bound")),
    "db.plan_cache.peak_mb": ("MiB", "lower", "db", "counter", _moves("peak_rss_mb", "opt_exec_bound")),
    "db.probe.cold_execute_s": ("s", "lower", "db", "probe", _moves("wall_s", "opt_exec_bound")),
    "db.probe.replay_execute_s": ("s", "lower", "db", "probe", _moves("ops_per_s", "serve_stream")),
    "db.optimizer.plan_ms_per_call": (
        "ms", "lower", "db", "probe",
        _moves("wall_s", "opt_exec_bound", "opt_parallel_q4", "serve_stream"),
    ),
    "db.optimizer.plan_calls": ("count", "lower", "db", "probe", _moves("wall_s", "opt_exec_bound")),
    # ---- exec (TimedBackend)
    "exec.startup_s": ("s", "lower", "exec", "span", _moves("wall_s", "opt_parallel_q4")),
    "exec.close_s": ("s", "lower", "exec", "span", _moves("wall_s", "opt_parallel_q4")),
    "exec.requests": ("count", "higher", "exec", "counter", _moves("ops_per_s", "opt_parallel_q4")),
    "exec.batches": ("count", "lower", "exec", "counter", _moves("ops_per_s", "opt_parallel_q4")),
    "exec.batch_size_mean": ("count", "higher", "exec", "counter", _moves("ops_per_s", "opt_parallel_q4")),
    "exec.request_ms_p50": ("ms", "lower", "exec", "span", _moves("ops_per_s", "opt_parallel_q4")),
    "exec.request_ms_p90": ("ms", "lower", "exec", "span", _moves("ops_per_s", "opt_parallel_q4")),
    "exec.inflight_mean": ("count", "higher", "exec", "span", _moves("ops_per_s", "opt_parallel_q4")),
    "exec.idle_share": ("ratio", "lower", "exec", "span", _moves("ops_per_s", "opt_parallel_q4")),
    "exec.probe.roundtrip_us": ("us", "lower", "exec", "probe", _moves("ops_per_s", "opt_parallel_q4")),
    "exec.failed": ("count", "lower", "exec", "counter", []),
    "exec.retries": ("count", "lower", "exec", "counter", _moves("ops_per_s", "opt_parallel_q4")),
    # ---- harness
    "harness.run_s": ("s", "lower", "harness", "span", _moves("wall_s", "opt_parallel_q4")),
    "harness.executions": ("count", "higher", "harness", "counter", _moves("ops_per_s", "opt_parallel_q4")),
    "harness.batched_executions": ("count", "higher", "harness", "counter", _moves("ops_per_s", "opt_parallel_q4")),
    "harness.outcome_hit_rate": ("ratio", "higher", "harness", "counter", _moves("ops_per_s", "opt_parallel_q4")),
    "harness.subplan_hit_rate": ("ratio", "higher", "harness", "counter", _moves("ops_per_s", "opt_parallel_q4")),
    "harness.plan_speedup_geomean": ("x", "higher", "harness", "counter", []),
    # ---- serve (ServeProxy)
    "serve.arrivals_per_s": ("1/s", "higher", "serve", "span", _moves("ops_per_s", "serve_stream")),
    "serve.serve_s": ("s", "lower", "serve", "span", _moves("ops_per_s", "serve_stream")),
    "serve.client_execute_s": ("s", "lower", "serve", "span", _moves("ops_per_s", "serve_stream")),
    "serve.report_s": ("s", "lower", "serve", "span", _moves("ops_per_s", "serve_stream")),
    "serve.maintenance_s": ("s", "lower", "serve", "span", _moves("ops_per_s", "serve_stream")),
    "serve.maintenance_ms_p50": ("ms", "lower", "serve", "span", _moves("ops_per_s", "serve_stream")),
    "serve.maintenance_ms_max": ("ms", "lower", "serve", "span", _moves("ops_per_s", "serve_stream")),
    "serve.maintenance_cycles": ("count", "lower", "serve", "counter", _moves("ops_per_s", "serve_stream")),
    "serve.reoptimizations": ("count", "lower", "serve", "counter", _moves("ops_per_s", "serve_stream")),
    "serve.reopt_executions": ("count", "lower", "serve", "counter", _moves("ops_per_s", "serve_stream")),
    "serve.checkpoint_s": ("s", "lower", "serve", "span", _moves("ops_per_s", "serve_stream")),
    "serve.checkpoint_ms_p50": ("ms", "lower", "serve", "span", _moves("ops_per_s", "serve_stream")),
    "serve.checkpoint_ms_p90": ("ms", "lower", "serve", "span", _moves("ops_per_s", "serve_stream")),
    "serve.store_kib": ("KiB", "lower", "serve", "counter", _moves("ops_per_s", "serve_stream")),
    "serve.update_database_s": ("s", "lower", "serve", "span", _moves("ops_per_s", "serve_stream")),
    "serve.resume_ms": ("ms", "lower", "serve", "span", _moves("wall_s", "serve_stream")),
    "serve.fast_path_rate": ("ratio", "higher", "serve", "counter", _moves("ops_per_s", "serve_stream")),
    "serve.planner_calls": ("count", "lower", "serve", "counter", _moves("ops_per_s", "serve_stream")),
    "serve.drift_flags": ("count", "lower", "serve", "counter", _moves("ops_per_s", "serve_stream")),
    "serve.recovered_share": ("ratio", "higher", "serve", "counter", []),
    "serve.served_cost_ratio": ("ratio", "lower", "serve", "counter", []),
    "serve.probe.us_p50": ("us", "lower", "serve", "probe", _moves("wall_s", "serve_stream")),
    "serve.probe.us_p99": ("us", "lower", "serve", "probe", _moves("wall_s", "serve_stream")),
    # ---- obs / bench
    "obs.trace_overhead_ratio": ("ratio", "lower", "obs", "span", []),
    "obs.spans": ("count", "lower", "obs", "counter", []),
    "bench.attributed_share": ("ratio", "higher", "bench", "span", []),
    "bench.passes": ("count", "higher", "bench", "counter", []),
    "bench.machine_slowdown": ("ratio", "lower", "bench", "probe", []),
}


def declarations() -> dict:
    """What a ``--json`` report carries beside the numbers: every metric's meaning."""
    return {
        "end_to_end": {
            name: {"unit": unit, "better": better, "bound": bound, "definition": definition}
            for name, (unit, better, bound, definition) in END_TO_END.items()
        },
        "per_layer": {
            name: {"unit": unit, "better": better, "layer": layer, "source": source, "moves": moves}
            for name, (unit, better, layer, source, moves) in PER_LAYER.items()
        },
    }


def benchmark_contract(run_seconds: int) -> dict:
    """The exact-keys document the driver reads from ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _, _, _) in PER_LAYER.items()
        ],
    }
