"""Observability: causal spans, a metrics registry, and trace export.

The telemetry layer threaded through optimize/execute/serve:

* :mod:`repro.obs.tracer` — :class:`Tracer` records causal spans into a
  bounded ring buffer with **explicit context propagation** (objects hold a
  tracer reference; no globals).  :data:`NULL_TRACER` is the default
  everywhere, so tracing is strictly opt-in and tier-1 determinism is
  untouched on or off.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` unifies the
  per-subsystem counter objects (serve, coordinator, faults, execution cache)
  behind providers and adds first-class latency histograms on the same
  reservoir sampler as the SLO trackers.
* :mod:`repro.obs.export` — JSONL sink and Chrome-trace/Perfetto JSON.
* :mod:`repro.obs.report` — the text snapshot (top spans by self-time,
  per-layer latency percentiles, subsystem tables) wired into
  ``python -m repro.serve`` and :class:`~repro.harness.runner.ComparisonRun`.

Gate: ``benchmarks/bench_obs.py`` — with tracing disabled the serve fast
path reads ``tracer.enabled`` and nothing else, enabled it records no span
for a repeat arrival, traced and untraced streams are identical, and a
500-arrival stream's trace must reconstruct a full causal chain (arrival →
admission → re-optimization → store upsert → next fast-path serve).  The
overhead budget (≤ 10% traced) is ``obs.trace_overhead_ratio`` of
``benchmarks/e2e``.
"""

from repro.obs.export import chrome_trace, read_jsonl, write_chrome_trace, write_jsonl
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import render_report, span_stats
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, SpanRecord, Tracer

__all__ = [
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "read_jsonl",
    "render_report",
    "span_stats",
    "write_chrome_trace",
    "write_jsonl",
]
