"""Compare two reports written by ``run.py --json``.

    python3 benchmarks/e2e/compare.py A.json B.json

prints one row per (workload, end-to-end metric): base, new, the ratio with
its base, the benchmark's bound and a verdict.

* ``regressed``  - the new median is worse than the base by more than the bound;
* ``unresolved`` - the spread between the quartiles of either run's passes is
  wider than the bound and the two interquartile ranges overlap, so the runs
  cannot tell the sides apart;
* ``ok``         - everything else.

Exits non-zero when any row regressed.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from e2e_metrics import END_TO_END  # noqa: E402


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """Judge one metric from two ``{"value", "q1", "q3"}`` summaries."""
    if base["value"] == 0:
        return "unresolved"
    change = (new["value"] - base["value"]) / abs(base["value"])
    worse_by = change if better == "lower" else -change
    spread = max(
        (s["q3"] - s["q1"]) / abs(s["value"]) if s["value"] else 0.0 for s in (base, new)
    )
    overlap = base["q1"] <= new["q3"] and new["q1"] <= base["q3"]
    if spread > bound and overlap:
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(base_report: dict, new_report: dict) -> list[tuple]:
    rows = []
    for workload, base in base_report["workloads"].items():
        new = new_report["workloads"].get(workload)
        if new is None:
            continue
        for metric, (unit, better, bound, _) in END_TO_END.items():
            a, b = base["end_to_end"][metric], new["end_to_end"][metric]
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            rows.append((workload, metric, unit, a["value"], b["value"], ratio, bound,
                         verdict(a, b, better, bound)))
        if base.get("digest") != new.get("digest"):
            rows.append((workload, "trace_digest", "-", 0.0, 0.0, float("nan"), 0.0, "changed"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    rows = compare(*reports)
    print(f"{'workload':<16} {'metric':<12} {'base':>12} {'new':>12} {'new/base':>9} {'bound':>6}  verdict")
    for workload, metric, unit, base, new, ratio, bound, outcome in rows:
        print(
            f"{workload:<16} {metric:<12} {base:>12.5g} {new:>12.5g} "
            f"{ratio:>7.3f}x{'':1} {bound:>6.2f}  {outcome}  ({unit}, base {base:.5g})"
        )
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
