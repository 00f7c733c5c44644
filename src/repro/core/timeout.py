"""Timeout selection policies (Section 4.3.1).

Every candidate plan gets a per-plan timeout before it is executed.  The
paper's contribution is the *uncertainty-based* rule: choose the smallest
timeout ``tau`` such that, after conditioning the surrogate on "this plan was
censored at ``tau``", the incumbent is still confidently better than the
candidate (``y* <= mu'(tau) - kappa * sigma'(tau)``).  The fixed-percentile,
best-seen and constant-multiplier policies from prior work are provided as
ablation arms (Figure 5a), together with a no-timeout policy.

The uncertainty rule's only model dependency is the small
:class:`SupportsFantasize` protocol — "condition on a hypothetical censoring
and report the posterior" — not the concrete BO engine.  Any surrogate
wrapper satisfying it (a fake in tests, a different engine, a remote model)
plugs straight into the policy, and this module imports nothing from
:mod:`repro.bo`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.exceptions import OptimizationError

#: Cap on the batched uncertainty-timeout grid: resolution saturates at 1024
#: intervals (<0.3% of the log-tau range) however large ``bisection_steps`` is.
_MAX_GRID_INTERVALS = 1024

#: Upper cap on a timeout, as a multiple of the best latency seen so far: the
#: uncertainty rule's search ceiling and the init phase's timeout.
MAX_TIMEOUT_MULTIPLIER = 16.0


@runtime_checkable
class SupportsFantasize(Protocol):
    """What the uncertainty-based timeout rule needs from a model.

    Structurally satisfied by :class:`~repro.bo.loop.BOEngine` (over any
    surrogate) and easy to fake in tests.  Models whose
    ``supports_batched_fantasize`` is true additionally satisfy
    :class:`SupportsBatchedFantasize`; everything else falls back to the
    sequential bisection path.
    """

    @property
    def num_observations(self) -> int:
        """How many observations back the posterior."""
        ...

    @property
    def supports_batched_fantasize(self) -> bool:
        """Whether :class:`SupportsBatchedFantasize` is also satisfied."""
        ...

    def fantasize_censored(self, x: np.ndarray, censor_level: float) -> tuple[float, float]:
        """Posterior (mean, std) at ``x`` after pretending it was censored
        at ``censor_level``."""
        ...


@runtime_checkable
class SupportsBatchedFantasize(SupportsFantasize, Protocol):
    """A model that can probe every censoring level in one conditioning."""

    def fantasize_censored_batch(
        self, x: np.ndarray, censor_levels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior (means, stds) at ``x`` for every hypothetical censoring
        level, sharing one rank-1 extension."""
        ...


def _interpolated_percentile(sorted_values: list[float], percentile: float) -> float:
    """Linear-interpolation percentile of an already-sorted list (matches numpy)."""
    if not 0.0 <= percentile <= 100.0:
        raise OptimizationError(f"percentile must be in [0, 100], got {percentile}")
    rank = (len(sorted_values) - 1) * percentile / 100.0
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(sorted_values[lower])
    weight = rank - lower
    return float(sorted_values[lower] * (1.0 - weight) + sorted_values[upper] * weight)


class TimeoutPolicy:
    """Interface: map (model state, candidate point) to a timeout in seconds."""

    def select(
        self,
        engine: SupportsFantasize | None,
        candidate: np.ndarray | None,
        best_latency: float | None,
        observed_latencies: list[float],
    ) -> float | None:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass
class NoTimeout(TimeoutPolicy):
    """Never time out (the "No Timeouts" ablation arm)."""

    def select(self, engine, candidate, best_latency, observed_latencies) -> float | None:
        return None


@dataclass
class BestSeenTimeout(TimeoutPolicy):
    """Timeout equal to the best latency observed so far (the 0th percentile)."""

    fallback: float = 60.0

    def select(self, engine, candidate, best_latency, observed_latencies) -> float | None:
        if best_latency is None:
            return self.fallback
        return best_latency


@dataclass
class PercentileTimeout(TimeoutPolicy):
    """Timeout at a fixed percentile of the uncensored latencies seen so far.

    ``observed_latencies`` grows append-only over an optimization run, so the
    policy maintains a sorted mirror incrementally (``bisect.insort``) instead
    of re-sorting the full list on every call.  The consumed prefix is kept to
    detect a different history (a new run reusing the policy) and rebuild the
    mirror — an O(n) list comparison, still far cheaper than re-sorting.
    """

    percentile: float = 10.0
    fallback: float = 60.0
    _sorted: list = field(default_factory=list, repr=False, compare=False)
    _prefix: list = field(default_factory=list, repr=False, compare=False)

    def select(self, engine, candidate, best_latency, observed_latencies) -> float | None:
        if not observed_latencies:
            self._sorted.clear()
            self._prefix.clear()
            return self.fallback
        consumed = len(self._prefix)
        if observed_latencies[:consumed] != self._prefix:
            self._sorted = sorted(float(value) for value in observed_latencies)
            self._prefix = list(observed_latencies)
            return _interpolated_percentile(self._sorted, self.percentile)
        for value in observed_latencies[consumed:]:
            bisect.insort(self._sorted, float(value))
        self._prefix.extend(observed_latencies[consumed:])
        return _interpolated_percentile(self._sorted, self.percentile)


@dataclass
class MultiplierTimeout(TimeoutPolicy):
    """Timeout at a constant multiple of the best latency (Balsa uses 1.5x)."""

    multiplier: float = 1.5
    fallback: float = 60.0

    def select(self, engine, candidate, best_latency, observed_latencies) -> float | None:
        if best_latency is None:
            return self.fallback
        return self.multiplier * best_latency


@dataclass
class UncertaintyTimeout(TimeoutPolicy):
    """The paper's uncertainty-based timeout rule.

    Finds (by bisection over the log-latency axis, exploiting monotonicity of
    the fantasized lower confidence bound in ``tau``) the smallest timeout such
    that conditioning on a censoring at ``tau`` leaves the incumbent confidently
    better than the candidate.
    """

    kappa: float = 1.0
    max_multiplier: float = MAX_TIMEOUT_MULTIPLIER
    fallback: float = 60.0
    bisection_steps: int = 8

    def select(self, engine, candidate, best_latency, observed_latencies) -> float | None:
        if best_latency is None:
            return self.fallback
        if engine is None or candidate is None or engine.num_observations < 3:
            return self.max_multiplier * best_latency
        floor = max(best_latency, 1e-9)
        best_log = math.log(floor)
        low = best_log
        high = math.log(floor * self.max_multiplier)
        if getattr(engine, "supports_batched_fantasize", False):
            return self._select_batched(engine, candidate, low, high, best_log)
        return self._select_sequential(engine, candidate, low, high, best_log)

    def _select_sequential(
        self, engine: SupportsFantasize, candidate: np.ndarray, low: float, high: float,
        best_log: float,
    ) -> float:
        """Bisection fallback for surrogates without a batched fantasize path."""
        if not self._confident(engine, candidate, high, best_log):
            # Even the largest allowed timeout would not make us confident:
            # spend the full cap (learning the most we are willing to pay for).
            return math.exp(high)
        for _ in range(self.bisection_steps):
            mid = 0.5 * (low + high)
            if self._confident(engine, candidate, mid, best_log):
                high = mid
            else:
                low = mid
        return math.exp(high)

    def _select_batched(
        self, engine: SupportsFantasize, candidate: np.ndarray, low: float, high: float,
        best_log: float,
    ) -> float:
        """Evaluate every bisection level in one vectorized fantasize call.

        A grid at the bisection resolution (``2**bisection_steps`` intervals,
        capped so a large ``bisection_steps`` cannot blow the batch up) costs
        one batched conditioning instead of ``bisection_steps + 1`` sequential
        surrogate refits, and picks the same boundary: the smallest level at
        which the fantasized LCB still favors the incumbent.
        """
        intervals = min(2**self.bisection_steps, _MAX_GRID_INTERVALS)
        levels = np.linspace(low, high, intervals + 1)
        means, stds = engine.fantasize_censored_batch(candidate, levels)
        confident = best_log <= means - self.kappa * stds
        if not confident[-1]:
            return math.exp(high)
        return math.exp(float(levels[int(np.argmax(confident))]))

    def _confident(
        self, engine: SupportsFantasize, candidate: np.ndarray, log_tau: float, best_log: float
    ) -> bool:
        mean, std = engine.fantasize_censored(candidate, log_tau)
        return best_log <= mean - self.kappa * std


def build_timeout_policy(strategy: str, multiplier: float = 1.5) -> TimeoutPolicy:
    """Factory mapping a configuration string to a policy instance."""
    if strategy == "uncertainty":
        return UncertaintyTimeout()
    if strategy == "none":
        return NoTimeout()
    if strategy == "percentile":
        return PercentileTimeout()
    if strategy == "best_seen":
        return BestSeenTimeout()
    if strategy == "multiplier":
        return MultiplierTimeout(multiplier=multiplier)
    raise OptimizationError(f"unknown timeout strategy {strategy!r}")
