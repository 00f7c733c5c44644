"""Human-readable snapshot of a trace + metrics registry.

``render_report`` is the "top" of the observability layer: given the span
buffer and a registry snapshot it prints where time went (top span names by
self-time — child time subtracted, so a parent wrapping expensive children
doesn't dominate its own table), the per-layer latency distribution (span
categories), and the subsystem tables the registry's providers contribute
(fault/retry counters, the coordinator's member state, cache hit rates,
serve counters).

Wired into ``python -m repro.serve`` and
:class:`~repro.harness.runner.ComparisonRun` so both entry points can answer
"what did this run actually do?" without a trace viewer.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.obs.tracer import SpanRecord

__all__ = ["render_report", "span_stats"]


def span_stats(records: list[SpanRecord]) -> dict[str, dict]:
    """Per-span-name totals: count, total wall time, self time.

    Self time subtracts the duration of *direct* children (by parent link),
    attributing each interval to the innermost span that owns it.
    """
    child_time: dict[int, float] = defaultdict(float)
    for record in records:
        if record.parent_id is not None:
            child_time[record.parent_id] += record.duration
    stats: dict[str, dict] = {}
    for record in records:
        entry = stats.setdefault(
            record.name, {"count": 0, "total": 0.0, "self": 0.0, "category": record.category}
        )
        entry["count"] += 1
        entry["total"] += record.duration
        entry["self"] += max(record.duration - child_time.get(record.span_id, 0.0), 0.0)
    return stats


def _format_table(rows: list[tuple], header: tuple) -> list[str]:
    widths = [len(str(h)) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = ["  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header))]
    for row in rows:
        lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return lines


def _flatten(prefix: str, value, rows: list[tuple], depth: int = 0) -> None:
    if depth > 3:
        rows.append((prefix, repr(value)))
        return
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, rows, depth + 1)
    elif isinstance(value, (list, tuple)):
        for index, sub in enumerate(value):
            _flatten(f"{prefix}[{index}]", sub, rows, depth + 1)
    elif isinstance(value, float):
        rows.append((prefix, f"{value:.6g}"))
    else:
        rows.append((prefix, value))


def render_report(
    records: list[SpanRecord],
    metrics_snapshot: dict | None = None,
    top: int = 10,
) -> str:
    """The text observability report: spans by self-time, layer latencies, tables."""
    lines: list[str] = ["== observability report =="]

    stats = span_stats(records)
    if stats:
        lines.append("")
        lines.append(f"-- top spans by self-time ({len(records)} spans buffered) --")
        ranked = sorted(stats.items(), key=lambda item: item[1]["self"], reverse=True)[:top]
        rows = [
            (
                name,
                entry["category"],
                entry["count"],
                f"{entry['self'] * 1e3:.3f}",
                f"{entry['total'] * 1e3:.3f}",
            )
            for name, entry in ranked
        ]
        lines.extend(_format_table(rows, ("span", "layer", "count", "self ms", "total ms")))

        by_category: dict[str, list[float]] = defaultdict(list)
        for record in records:
            by_category[record.category].append(record.duration)
        lines.append("")
        lines.append("-- per-layer span latency (ms) --")
        rows = []
        for category in sorted(by_category):
            durations = np.asarray(by_category[category]) * 1e3
            rows.append(
                (
                    category,
                    len(durations),
                    f"{np.percentile(durations, 50):.3f}",
                    f"{np.percentile(durations, 95):.3f}",
                    f"{np.percentile(durations, 99):.3f}",
                    f"{durations.max():.3f}",
                )
            )
        lines.extend(_format_table(rows, ("layer", "count", "p50", "p95", "p99", "max")))
    else:
        lines.append("(no spans buffered — tracer disabled or nothing ran)")

    if metrics_snapshot:
        for section in ("counters", "gauges"):
            values = metrics_snapshot.get(section) or {}
            if values:
                lines.append("")
                lines.append(f"-- {section} --")
                rows = []
                _flatten("", values, rows)
                lines.extend(_format_table(rows, ("name", "value")))
        histograms = metrics_snapshot.get("histograms") or {}
        if histograms:
            lines.append("")
            lines.append("-- histograms --")
            rows = [
                (
                    name,
                    snap.get("count", 0),
                    f"{snap.get('p50', 0.0):.6g}",
                    f"{snap.get('p95', 0.0):.6g}",
                    f"{snap.get('p99', 0.0):.6g}",
                )
                for name, snap in histograms.items()
            ]
            lines.extend(_format_table(rows, ("name", "count", "p50", "p95", "p99")))
        for name, provider in (metrics_snapshot.get("providers") or {}).items():
            lines.append("")
            lines.append(f"-- {name} --")
            rows = []
            _flatten("", provider, rows)
            if rows:
                lines.extend(_format_table(rows, ("name", "value")))
            else:
                lines.append("(empty)")

    return "\n".join(lines)
