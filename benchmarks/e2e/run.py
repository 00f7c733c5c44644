"""One end-to-end benchmark for the whole stack.

    python3 benchmarks/e2e/run.py [--seed S] [--workload NAME] [--json PATH]

drives the real pipeline (build data -> train schema VAE -> optimize with
BayesQO -> store -> serve) through four named workloads, prints every metric
by name with its unit, checks the outputs, and exits non-zero on a failed
check.  With ``--workload NAME --trace 0|1`` it is the driver's contract
command: one workload, one kind of pass, and a last line of JSON.

End-to-end metrics come from untraced passes.  ``--trace 1`` alternates
untraced and traced passes; the traced ones wrap every call into a layer in a
benchmark-owned span and produce the per-layer ledger.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: The process environment every measurement runs in (README, "Pinned
#: environment").  Two BLAS threads on two cores fight the pool workers and
#: each other; fresh pages cost the sandbox 0.1-0.5 s per 100 MB, at random, so
#: the heap is neither mmap-ed per array nor trimmed and a pass reuses the
#: pages the warm-up faulted in.  glibc and OpenBLAS read these at start-up.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
    "PYTHONHASHSEED": "0",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})

# The program under test lives in the checkout this file sits in.
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from repro.obs import NULL_TRACER, Tracer, write_jsonl  # noqa: E402

import e2e_workloads as w  # noqa: E402
from e2e_layers import ReferenceKernel  # noqa: E402
from e2e_metrics import (  # noqa: E402
    END_TO_END,
    OPT_WORKLOADS,
    OWNED_LOOPS,
    PER_LAYER,
    WORKLOADS,
    declarations,
)

RUN_SECONDS = 14
MIN_PASSES = 2
OUT_DIR = os.path.join(HERE, "out")
#: Set-up is repeated until both hold, and ``setup_s`` is the median of all but the first.
SETUP_MIN_REPEATS = 4
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 40
#: The layer each optimize workload is built around.
INTENDED_DOMINANT = {"opt_exec_bound": "db.execute_s", "opt_bo_bound": "core.suggest_s"}
DOMINANCE_CANDIDATES = ("core.start_s", "core.suggest_s", "core.observe_s", "db.execute_s")


#: Workloads that share a set-up; each family is set up in a process of its own.
FAMILIES = (OPT_WORKLOADS, ("serve_stream",))


@dataclass(frozen=True)
class Options:
    """What one invocation measures with, the same for each of its workloads."""

    seed: int
    seconds: float
    max_passes: int
    trace_dir: str
    smoke: bool
    sizes: w.Sizes


# ------------------------------------------------------------------- processes
def in_child(call, *args):
    """Run ``call(*args)`` in a forked child and return its (pickled) result.

    A family child holds one set-up and nothing else; each measuring child
    forked from it inherits the trained schema model without pickling it,
    starts from the same heap whatever was measured before it, and has its
    own ``ru_maxrss``.  So the order of workloads cannot matter and a full run
    measures each workload exactly as ``--workload NAME`` does.
    """
    sys.stdout.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            payload = pickle.dumps(call(*args))
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:  # noqa: BLE001 - reported, then the child must not return
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"measuring child exited with status {status}")
    return pickle.loads(payload)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool) / 1024.0


# ---------------------------------------------------------------------- set-up
def run_setup(name: str, sizes: w.Sizes, repeats_wanted: bool, reference: ReferenceKernel):
    """The workload family's set-up, repeated; returns (setup, calibrated seconds per repeat)."""
    build = w.setup_stack if name == "serve_stream" else w.setup_job
    times = []
    while True:
        tracer = Tracer(capacity=64)
        before = reference.slowdown()
        started = time.perf_counter()
        setup = build(sizes, tracer)
        seconds = time.perf_counter() - started
        times.append(seconds / ((before + reference.slowdown()) / 2))
        setup.spans = tracer.spans()
        enough = len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_SECONDS
        if not repeats_wanted:
            return setup, times
        if enough or len(times) >= SETUP_MAX_REPEATS:
            # The first repeat faults the heap in; it is the warm-up.
            return setup, times[1:]


def setup_ledger(setup, sizes: w.Sizes) -> dict:
    busy = {record.name: record.duration for record in setup.spans}
    train = busy.get("vae.train", 0.0)
    return {
        "workloads.build_s": busy.get("workloads.build", 0.0),
        "vae.train_s": train,
        "vae.train_steps_per_s": sizes.vae.training_steps / train if train else 0.0,
        "bench.probe_s": busy.get("bench.probe", 0.0),
    }


# ----------------------------------------------------------------- measurement
def run_pass(name, setup, sizes, seed, tracer, scratch):
    if name == "serve_stream":
        return w.pass_serve(name, setup, sizes, seed, tracer, scratch)
    if name == "opt_parallel_q4":
        return w.pass_parallel(name, setup, sizes, seed, tracer)
    return w.pass_owned(name, setup, sizes, seed, tracer)


def measure(name, setup, trace, options: Options, reference: ReferenceKernel) -> dict:
    """Warm up, run the timed passes, check outputs.  Runs in the forked child."""
    sizes, seed = options.sizes, options.seed
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        if not options.smoke:
            # Untimed: imports, lazy numpy/scipy initialisation, first fork of a pool.
            run_pass(name, setup, sizes.smoke(), seed, NULL_TRACER, scratch)
            gc.collect()
        untraced, traced = [], []

        def timed_pass(tracer):
            # Only the latest pass keeps its live objects (for the checks and
            # probes); garbage is collected between passes, not inside one.
            for earlier in untraced + [result for result, _ in traced]:
                earlier.keep.clear()
            gc.collect()
            before = reference.slowdown()
            result = run_pass(name, setup, sizes, seed, tracer, scratch)
            result.slowdown = (before + reference.slowdown()) / 2
            return result

        deadline = time.perf_counter() + options.seconds
        while True:
            if trace:
                tracer = Tracer(capacity=1 << 20)
                traced.append((timed_pass(tracer), tracer.spans()))
            untraced.append(timed_pass(NULL_TRACER))
            done = len(untraced)
            if done >= options.max_passes or (
                done >= MIN_PASSES and time.perf_counter() >= deadline
            ):
                break
        return _summarise(name, setup, options, untraced, traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _summarise(name, setup, options: Options, untraced, traced) -> dict:
    sizes, peak = options.sizes, peak_rss_mb()
    passes = untraced + [result for result, _ in traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    pass_failures = [message for p in passes for message in p.failures]
    # Each message below is one failed check on top of the per-operation count.
    failures, notes = [], []
    digests = [p.digest for p in passes]
    if name != "opt_parallel_q4" and len(set(digests)) != 1:
        failures.append(f"trace digest differs between passes: {sorted(set(digests))}")
    last = untraced[-1]
    if name in OPT_WORKLOADS:
        checked, mismatches = w.check_optimize(last, setup.probe, sizes)
        attempted += checked
        failures += mismatches
    out = {
        "end_to_end": {
            "wall_s": _sample_summary([p.wall_s / p.slowdown for p in untraced]),
            "ops_per_s": _sample_summary([p.ops * p.slowdown / p.wall_s for p in untraced]),
            "peak_rss_mb": _sample_summary([peak]),
        },
        # What the clock read, before calibration.
        "uncalibrated": {
            "wall_s": _sample_summary([p.wall_s for p in untraced]),
            "machine_slowdown": _sample_summary([p.slowdown for p in untraced]),
        },
        "digest": digests[0], "notes": notes,
        "selection": setup.selection[name],
    }
    if traced:
        out["per_layer"] = _ledger(name, setup, options, untraced, traced, failures, notes)
        os.makedirs(options.trace_dir, exist_ok=True)
        write_jsonl(traced[-1][1], os.path.join(options.trace_dir, f"trace_{name}.jsonl"))
    out.update(
        attempted=attempted + len(failures), failed=failed + len(failures),
        failures=pass_failures + failures,
    )
    return out


def _sample_summary(values) -> dict:
    values = list(values)
    low, _, high = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "value": statistics.median(values), "q1": low, "q3": high,
        "min": min(values), "max": max(values), "n": len(values), "samples": values,
    }


def _ledger(name, setup, options: Options, untraced, traced, failures, notes) -> dict:
    """Per-layer metrics: span medians over the traced passes, counters, probes."""
    sizes = options.sizes
    ledgers = [w.span_ledger(name, spans, result.wall_s) for result, spans in traced]
    ledger = {key: statistics.median(l[key] for l in ledgers) for key in ledgers[0]}
    ledger.update(traced[-1][0].counters)
    # The latest pass is an untraced one; its live objects feed the probes.
    last = untraced[-1]
    ledger["bench.passes"] = len(traced)
    ledger["bench.machine_slowdown"] = statistics.median(r.slowdown for r, _ in traced)
    ledger["obs.trace_overhead_ratio"] = statistics.median(
        result.wall_s / result.slowdown for result, _ in traced
    ) / statistics.median(p.wall_s / p.slowdown for p in untraced)
    if name in OWNED_LOOPS:
        overhead = ledger["core.start_s"] + ledger["core.suggest_s"] + ledger["core.observe_s"]
        ledger["core.overhead_ms_per_exec"] = overhead * 1e3 / last.ops
        ledger.update(w.probe_owned(last, setup, sizes))
    if name in OPT_WORKLOADS:
        workload = last.keep["workload"]
        ledger.update(w.probe_planner(workload.database, [run["query"] for run in last.keep["runs"]]))
    else:
        ledger.update(w.probe_serve(last, sizes))
    if name != "opt_parallel_q4" and ledger["bench.attributed_share"] < 0.95:
        failures.append(f"spans cover {ledger['bench.attributed_share']:.3f} of the pass, under 0.95")
    # The shape is a property of the full sizes.
    if not options.smoke and name == "opt_exec_bound" and not (
        ledger["db.execute_s"] > ledger["core.suggest_s"] + ledger["core.observe_s"]
    ):
        failures.append("paper shape: BO overhead exceeds plan execution on opt_exec_bound")
    intended = INTENDED_DOMINANT.get(name)
    if intended:
        wall = statistics.median(result.wall_s for result, _ in traced)
        shares = ", ".join(f"{key} {ledger[key] / wall:.1%}" for key in DOMINANCE_CANDIDATES)
        notes.append(f"share of the traced wall_s by layer: {shares}")
        dominant = max(DOMINANCE_CANDIDATES, key=lambda key: ledger[key])
        if dominant != intended:
            # Reported, not failed: a change that makes the intended layer
            # faster than the others must not be refused by its own ruler.
            notes.append(f"WARNING: dominant layer is {dominant}, the workload is built for {intended}")
    return ledger


# ------------------------------------------------------------------- reporting
def run_family(names, traces, options: Options) -> list:
    """Set a family up once, then measure each (workload, kind of pass) in its own child."""
    reference = ReferenceKernel()
    setup, setup_times = run_setup(
        names[0], options.sizes, 0 in traces and not options.smoke, reference
    )
    results = []
    for trace in traces:
        for name in names:
            result = in_child(measure, name, setup, trace, options, reference)
            result["end_to_end"]["setup_s"] = _sample_summary(setup_times)
            if trace:
                ledger = {**result["per_layer"], **setup_ledger(setup, options.sizes)}
                unknown = set(ledger) - set(PER_LAYER)
                if unknown:
                    raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
                # A layer the workload does not use was busy for 0 seconds.
                result["per_layer"] = {key: float(ledger.get(key, 0.0)) for key in PER_LAYER}
            print_result(name, result, trace)
            results.append((name, trace, result))
    return results


def print_result(name: str, result: dict, trace: int) -> None:
    print(f"== {name}  (trace={trace}, digest={result['digest']})")
    if trace:
        for key, value in result["per_layer"].items():
            unit, _, layer, source, _ = PER_LAYER[key]
            print(f"  {key:<36} {value:>14.6g} {unit:<6} [{layer}/{source}]")
    else:
        for key in END_TO_END:
            entry = result["end_to_end"][key]
            print(
                f"  {key:<36} {entry['value']:>14.6g} {END_TO_END[key][0]:<6} "
                f"(quartiles {entry['q1']:.6g}-{entry['q3']:.6g}, n={entry['n']})"
            )
        raw = result["uncalibrated"]
        print(
            f"  note: the clock read wall_s {raw['wall_s']['value']:.6g} on a machine "
            f"{raw['machine_slowdown']['value']:.3f}x slower than the reference"
        )
    share = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'failed_share':<36} {share:>14.6g} ratio  ({result['failed']} of {result['attempted']})")
    for note in result["notes"]:
        print(f"  note: {note}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def contract_line(result: dict, trace: int) -> str:
    if trace:
        metrics = {
            key: {"value": value, "unit": PER_LAYER[key][0]}
            for key, value in result["per_layer"].items()
        }
    else:
        metrics = {
            key: {"value": result["end_to_end"][key]["value"], "unit": END_TO_END[key][0]}
            for key in END_TO_END
        }
    return json.dumps({
        "correct": not result["failures"], "attempted": int(result["attempted"]),
        "failed": int(result["failed"]), "metrics": metrics,
    })


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="order of queries and lookups (default 0)")
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run only this workload")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="time box of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="contract mode: only this kind of pass")
    parser.add_argument("--passes", type=int, default=1000, help="stop after this many untraced passes")
    parser.add_argument("--json", metavar="PATH", help="write the full report to PATH")
    parser.add_argument("--trace-dir", default=OUT_DIR, help="where trace_<workload>.jsonl goes")
    parser.add_argument("--smoke", action="store_true", help="tiny budgets, two passes")
    args = parser.parse_args(argv)

    options = Options(
        seed=args.seed, seconds=0.0 if args.smoke else args.seconds,
        max_passes=max(MIN_PASSES, args.passes), trace_dir=args.trace_dir, smoke=args.smoke,
        sizes=w.Sizes().smoke() if args.smoke else w.Sizes(),
    )
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    report = {
        "seed": options.seed, "run_seconds": options.seconds, "min_passes": MIN_PASSES,
        "sizes": repr(options.sizes), "pinned_env": PINNED_ENV, "environment": environment(),
        "declared": declarations(), "workloads": {},
    }
    ok = True
    result = None
    for family in FAMILIES:
        chosen = [name for name in names if name in family]
        if not chosen:
            continue
        for name, trace, result in in_child(run_family, chosen, traces, options):
            ok = ok and not result["failures"]
            # End-to-end numbers are those of the untraced-only passes when there are such.
            kept = ("per_layer",) if trace else ("end_to_end", "uncalibrated")
            entry = report["workloads"].setdefault(
                name, {"digest": result["digest"], "selection": result["selection"]}
            )
            entry.update({key: result[key] for key in kept})
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.workload and args.trace is not None:
        print(contract_line(result, args.trace))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
