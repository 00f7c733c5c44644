"""Admission/triage: which fingerprints earn background optimization budget.

A server facing a heavy query stream cannot optimize everything — offline
optimization costs thousands of plan executions per query, and most arrivals
are one-off or already well served.  The admission policy is the gate: it
watches every arrival and decides, at each maintenance cycle, which few
fingerprints to spend budget on.

Three signals feed the score, mirroring the economics of the paper's
amortization argument (optimization pays for itself only on queries that
repeat):

* **popularity** — arrivals since the entry was last optimized.  A Zipf-heavy
  stream concentrates mass on few fingerprints; those amortize fastest.
* **regression** — the drift detector flagged the entry (observed latency
  diverged from the store's record), with the severity ratio as weight.
* **SLO pressure** — the fraction of this fingerprint's observations that
  violated the server's latency SLO.  A plan can be "not drifted" and still
  chronically over budget; tail latency cares.

Scores and orderings are fully deterministic (ties break on first-arrival
order), and the policy is a plain picklable object: it persists inside the
plan store's ``server_state``, so a resumed server triages the remaining
stream exactly as the uninterrupted one would have.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import OptimizationError


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the triage score and the per-cycle optimization budget."""

    #: Optimization tasks dispatched per maintenance cycle.
    max_tasks_per_cycle: int = 2
    #: Arrivals a *new* fingerprint needs before it can earn budget — a
    #: one-off query never amortizes its optimization cost.
    min_arrivals: int = 2
    #: Arrivals of a fingerprint to ignore after optimizing it, so a freshly
    #: tuned entry does not immediately re-enter triage on noise.
    cooldown_arrivals: int = 8
    #: Score weight of an unoptimized (default-plan) entry.
    unseen_weight: float = 1.0
    #: Score weight multiplying a flagged regression's severity ratio.
    regression_weight: float = 4.0
    #: Score weight multiplying the SLO violation rate.
    slo_weight: float = 2.0

    def __post_init__(self) -> None:
        if self.max_tasks_per_cycle < 1:
            raise OptimizationError("max_tasks_per_cycle must be at least 1")
        if self.min_arrivals < 1:
            raise OptimizationError("min_arrivals must be at least 1")
        if self.cooldown_arrivals < 0:
            raise OptimizationError("cooldown_arrivals must be non-negative")


@dataclass(frozen=True)
class AdmissionTask:
    """One triage verdict: optimize this fingerprint, for this reason."""

    fingerprint: tuple
    reason: str  # "unseen" | "regressed" | "slo"
    score: float


@dataclass
class _FingerprintStats:
    """Per-fingerprint counters the score reads."""

    order: int  # first-arrival order, the deterministic tie-break
    arrivals: int = 0
    arrivals_since_opt: int = 0
    observations: int = 0
    slo_violations: int = 0
    optimized: bool = False
    #: Drift severity ratio (observed / recorded); 0 when not flagged.
    regression: float = 0.0

    @property
    def violation_rate(self) -> float:
        return self.slo_violations / self.observations if self.observations else 0.0


@dataclass
class AdmissionPolicy:
    """The triage gate: note arrivals/latencies, emit per-cycle task lists."""

    config: AdmissionConfig = field(default_factory=AdmissionConfig)
    stats: dict[tuple, _FingerprintStats] = field(default_factory=dict)

    def _stats_for(self, fingerprint: tuple) -> _FingerprintStats:
        stats = self.stats.get(fingerprint)
        if stats is None:
            stats = _FingerprintStats(order=len(self.stats))
            self.stats[fingerprint] = stats
        return stats

    # ------------------------------------------------------------------ signals
    def note_arrival(self, fingerprint: tuple, optimized: bool) -> None:
        """One arrival of ``fingerprint``; ``optimized`` mirrors its entry."""
        stats = self.stats.get(fingerprint)  # every serve: one probe when known
        if stats is None:
            stats = self._stats_for(fingerprint)
        stats.arrivals += 1
        stats.arrivals_since_opt += 1
        stats.optimized = optimized

    def note_latency(self, fingerprint: tuple, slo_violated: bool) -> None:
        """One observed execution latency for ``fingerprint``."""
        stats = self._stats_for(fingerprint)
        stats.observations += 1
        if slo_violated:
            stats.slo_violations += 1

    def flag_regression(self, fingerprint: tuple, severity: float) -> None:
        """The drift detector saw observed latency at ``severity``x the record."""
        stats = self._stats_for(fingerprint)
        stats.regression = max(stats.regression, float(severity))

    def note_optimized(self, fingerprint: tuple) -> None:
        """An optimization run finished: reset the signals it answered."""
        stats = self._stats_for(fingerprint)
        stats.optimized = True
        stats.arrivals_since_opt = 0
        stats.regression = 0.0
        stats.observations = 0
        stats.slo_violations = 0

    # ------------------------------------------------------------------ triage
    def _score(self, stats: _FingerprintStats) -> tuple[float, str]:
        config = self.config
        popularity = float(stats.arrivals_since_opt)
        best = (0.0, "")
        if not stats.optimized:
            best = max(best, (config.unseen_weight * popularity, "unseen"))
        if stats.regression > 0.0:
            best = max(best, (config.regression_weight * stats.regression * popularity, "regressed"))
        if stats.violation_rate > 0.0:
            best = max(best, (config.slo_weight * stats.violation_rate * popularity, "slo"))
        return best

    def triage(self, limit: int | None = None) -> list[AdmissionTask]:
        """The fingerprints most worth optimizing right now, best first.

        At most ``limit`` (default: the config's per-cycle budget) tasks;
        fingerprints inside their post-optimization cooldown or below the
        popularity floor are never admitted.
        """
        if limit is None:
            limit = self.config.max_tasks_per_cycle
        candidates: list[tuple[float, int, tuple, str]] = []
        for fingerprint, stats in self.stats.items():
            if stats.arrivals < self.config.min_arrivals:
                continue
            if stats.optimized and stats.arrivals_since_opt < self.config.cooldown_arrivals:
                continue
            score, reason = self._score(stats)
            if score <= 0.0:
                continue
            candidates.append((score, stats.order, fingerprint, reason))
        candidates.sort(key=lambda item: (-item[0], item[1]))
        return [
            AdmissionTask(fingerprint=fingerprint, reason=reason, score=score)
            for score, _, fingerprint, reason in candidates[:limit]
        ]

    # ------------------------------------------------------------------ reporting
    def summary(self) -> dict:
        return {
            "fingerprints": len(self.stats),
            "flagged_regressions": sum(1 for s in self.stats.values() if s.regression > 0),
            "unoptimized": sum(1 for s in self.stats.values() if not s.optimized),
        }
