"""Warn-only perf-trend diff between two sets of BENCH_*.json artifacts.

Every CI run uploads its benchmark JSON artifacts, but until now nothing ever
*read* them — BENCH history was write-only.  This script closes the loop:
CI downloads the previous successful run's artifacts into a directory and
diffs the headline metric of each benchmark pair, printing ``TREND`` lines
and warnings when a metric regressed by more than ``--threshold`` (relative).

It is deliberately **warn-only** (exit code 0 unless ``--strict``): CI
machines are noisy and a hard gate on wall-clock trends would flake; the
value is making regressions *visible* in the log, run over run.

Usage::

    python benchmarks/bench_trend.py --previous prev/ --current . [--threshold 0.25]

Each benchmark's headline metrics are declared in ``HEADLINE_METRICS``:
``higher`` metrics (speedups) warn when they drop, ``lower`` metrics
(wall-clock seconds) warn when they rise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: filename -> list of (json key path, direction) headline metrics.
#: Direction "higher" = bigger is better (speedups); "lower" = smaller is
#: better (durations).  Key paths use "." to descend into nested dicts.
HEADLINE_METRICS: dict[str, list[tuple[str, str]]] = {
    "BENCH_surrogate.json": [("speedup", "higher")],
    "BENCH_workload.json": [("speedup", "higher")],
    "BENCH_exec.json": [("process_speedup", "higher")],
    "BENCH_batch.json": [("speedup", "higher")],
    "BENCH_plancache.json": [("speedup", "higher"), ("cached_s", "lower")],
    "BENCH_faults.json": [("overhead_ratio", "lower")],
    "BENCH_fabric.json": [
        ("fabric_speedup_ratio", "higher"),
        ("chaos_overhead_ratio", "lower"),
    ],
    "BENCH_serve.json": [("fast_path_hit_rate", "higher"), ("served_qps", "higher")],
    "BENCH_obs.json": [("disabled_serve_us", "lower"), ("traced_serve_us", "lower")],
    "BENCH_kernels.json": [("batch_speedup_ratio", "higher")],
}


def _lookup(data: dict, key_path: str):
    value = data
    for part in key_path.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value if isinstance(value, (int, float)) else None


def diff_pair(name: str, previous: dict, current: dict, threshold: float) -> list[str]:
    """TREND lines for one benchmark pair; lines with ``WARN`` mark regressions."""
    lines = []
    for key_path, direction in HEADLINE_METRICS.get(name, []):
        prev = _lookup(previous, key_path)
        curr = _lookup(current, key_path)
        if prev is None or curr is None:
            lines.append(f"TREND {name} {key_path}: missing in {'previous' if prev is None else 'current'} run")
            continue
        if prev == 0:
            continue
        change = (curr - prev) / abs(prev)
        regressed = change < -threshold if direction == "higher" else change > threshold
        marker = "WARN" if regressed else "ok"
        lines.append(
            f"TREND {name} {key_path}: {prev:.3f} -> {curr:.3f} "
            f"({change:+.1%}) [{marker}]"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--previous", required=True, metavar="DIR",
                        help="directory holding the previous run's BENCH_*.json files")
    parser.add_argument("--current", default=".", metavar="DIR",
                        help="directory holding this run's BENCH_*.json files")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative change treated as a regression (default 0.25)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on regressions (default: warn only)")
    args = parser.parse_args(argv)

    previous_dir = Path(args.previous)
    current_dir = Path(args.current)
    if not previous_dir.is_dir():
        print(f"TREND: no previous artifacts at {previous_dir} (first run?) — nothing to diff")
        return 0

    compared = 0
    warnings = 0
    for current_path in sorted(current_dir.glob("BENCH_*.json")):
        previous_path = previous_dir / current_path.name
        # Artifacts may also be unpacked into per-artifact subdirectories.
        if not previous_path.is_file():
            candidates = list(previous_dir.glob(f"**/{current_path.name}"))
            if not candidates:
                print(f"TREND {current_path.name}: no previous artifact — skipped")
                continue
            previous_path = candidates[0]
        try:
            with open(previous_path) as handle:
                previous = json.load(handle)
            with open(current_path) as handle:
                current = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"TREND {current_path.name}: unreadable ({exc}) — skipped")
            continue
        compared += 1
        for line in diff_pair(current_path.name, previous, current, args.threshold):
            print(line)
            if "[WARN]" in line:
                warnings += 1
    if compared == 0:
        print("TREND: no benchmark pairs to compare")
    elif warnings:
        print(f"TREND: {warnings} metric(s) regressed beyond {args.threshold:.0%} "
              "(warn-only; see lines above)", file=sys.stderr)
    return 1 if (warnings and args.strict) else 0


if __name__ == "__main__":
    raise SystemExit(main())
