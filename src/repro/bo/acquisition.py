"""Acquisition: the selection layer of the composable BO stack.

Given a surrogate posterior and a candidate pool, an acquisition strategy
picks which candidate(s) to evaluate next.  The plain functions
(:func:`thompson_sample`, :func:`expected_improvement`,
:func:`lower_confidence_bound`) are the scoring primitives; the
:class:`Acquisition` protocol wraps them in objects the engine composes with
a surrogate and a candidate generator.

A pick is the best-*ranked* candidate the caller can use, not the argmin: the
engine passes an ``admissible(points) -> bool mask`` callback and the strategy
walks its ranking (:func:`best_admissible`) until the callback accepts one.
That is "mask the pool, then argmin" without asking about the whole pool —
for BayesQO asking means decoding a latent point to a plan, and the top
candidate is usually fine.

Batched selection (``q > 1`` plans in flight for one query) must avoid
proposing q near-duplicates — q argmins of the same posterior mean collapse
onto one basin.  Two strategies from the batched-BO family are provided:

* :class:`BatchThompsonSampling` — q independent posterior sample paths;
  each path's minimizer is a draw from the posterior over the argmin, so the
  batch is diverse exactly where the posterior is uncertain.
* :class:`FantasizedThompson` — greedy one-step constant liar: before each
  later pick the surrogate is *fantasized* on the most recent pick
  (conditioned in closed form on a hypothetical censored observation at its
  posterior mean, the rank-1 path built in PR 1) and the candidates are
  re-scored against that fantasized posterior, repelling the next pick from
  the basin just covered.  Conditioning is on the latest pick only — the
  rank-1 path extends one point at a time — so earlier picks are excluded
  exactly (index masking) but do not repel their neighbourhoods.

Both reduce exactly to :func:`thompson_sample` at ``q = 1`` — same RNG
stream, same pick — which is what keeps batched traces bit-for-bit equal to
sequential ones at ``q = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np
from scipy import stats

#: ``admissible(points) -> bool mask``: which candidates the caller can use.
#: It is asked about candidates best-ranked first and the first one it
#: accepts becomes the pick, so a stateful callback (one that must not accept
#: the same thing twice in a batch) may count the first ``True`` of every call
#: as taken.
Admissible = Callable[[np.ndarray], np.ndarray]


def thompson_scores(surrogate, candidates: np.ndarray, rng: np.random.Generator,
                    num_samples: int = 1) -> np.ndarray:
    """One Thompson draw per candidate (the average of ``num_samples`` draws)."""
    return surrogate.posterior_samples(candidates, num_samples, rng).mean(axis=0)


def thompson_sample(surrogate, candidates: np.ndarray, rng: np.random.Generator,
                    num_samples: int = 1) -> int:
    """Thompson sampling: draw posterior functions and pick the candidate minimizer.

    With ``num_samples > 1`` the candidate minimizing the average sampled value
    is chosen (a slightly less noisy variant).
    """
    return int(np.argmin(thompson_scores(surrogate, candidates, rng, num_samples)))


def best_admissible(scores: np.ndarray, masked: np.ndarray, candidates: np.ndarray,
                    admissible: Admissible | None = None) -> int | None:
    """The lowest-scored candidate that is neither masked nor rejected.

    Walks the ranking in doubling chunks (1, 2, 4, ...), so a round whose top
    candidate is admissible asks about that one candidate only while a pool of
    rejects costs O(log n) calls.  Every candidate asked about up to and
    including the pick is added to ``masked`` (in place): rejected ones stay
    rejected for the rest of the round, and the pick is not picked again.
    ``None`` when nothing in the pool is left.
    """
    order = np.argsort(scores, kind="stable")
    order = order[~masked[order]]
    start, chunk = 0, 1
    while start < len(order):
        indices = order[start : start + chunk]
        accepted = [0] if admissible is None else np.flatnonzero(admissible(candidates[indices]))
        if len(accepted):
            masked[indices[: accepted[0] + 1]] = True
            return int(indices[accepted[0]])
        masked[indices] = True
        start += chunk
        chunk *= 2
    return None


def expected_improvement(surrogate, candidates: np.ndarray, best_value: float,
                         xi: float = 0.0) -> np.ndarray:
    """Expected improvement (for minimization) of each candidate."""
    mean, std = surrogate.predict(candidates)
    std = np.maximum(std, 1e-12)
    improvement = best_value - xi - mean
    z = improvement / std
    return improvement * stats.norm.cdf(z) + std * stats.norm.pdf(z)


def lower_confidence_bound(surrogate, candidates: np.ndarray, kappa: float = 2.0) -> np.ndarray:
    """LCB scores (for minimization): ``mean - kappa * std``."""
    mean, std = surrogate.predict(candidates)
    return mean - kappa * std


# ------------------------------------------------------------------ protocol
@runtime_checkable
class Acquisition(Protocol):
    """Joint selection of up to ``q`` candidates for concurrent evaluation."""

    def select_batch(
        self, surrogate, candidates: np.ndarray, rng: np.random.Generator, q: int,
        admissible: Admissible | None = None,
    ) -> list[int]:
        """Up to ``q`` distinct candidate indices, each the best-ranked one
        ``admissible`` accepts when it is picked (fewer when the pool runs out
        of admissible candidates)."""


# ---------------------------------------------------------------- strategies
@dataclass
class BatchThompsonSampling:
    """q independent Thompson draws, each contributing its best-ranked
    candidate that is admissible and not already in the batch."""

    num_samples: int = 1

    def select_batch(
        self, surrogate, candidates: np.ndarray, rng: np.random.Generator, q: int,
        admissible: Admissible | None = None,
    ) -> list[int]:
        q = min(q, len(candidates))
        samples = surrogate.posterior_samples(candidates, q * self.num_samples, rng)
        masked = np.zeros(len(candidates), dtype=bool)
        picked: list[int] = []
        for group in range(q):
            scores = samples[group * self.num_samples : (group + 1) * self.num_samples].mean(axis=0)
            pick = best_admissible(scores, masked, candidates, admissible)
            if pick is None:
                break
            picked.append(pick)
        return picked


@dataclass
class FantasizedThompson:
    """Greedy one-step constant liar through fantasized conditioning.

    Pick 1 is a plain Thompson draw (so ``q = 1`` is bit-for-bit classic
    Thompson sampling).  Each later pick conditions the surrogate — in closed
    form, via the rank-1 ``fantasize`` path — on "the *previous* pick came
    back censored at its posterior mean" and Thompson-samples the fantasized
    marginals.  The pseudo-observation lifts the posterior around the most
    recently picked basin, steering the next pick elsewhere.

    This is a local approximation of the full constant liar: the rank-1
    conditioning extends the Cholesky factor by one point, so only the
    latest pick's pseudo-observation is in effect for each scoring round.
    All earlier picks — and every candidate the ``admissible`` callback
    rejected on the way to them, which is never fantasized on — stay excluded
    exactly (index masking), but their *neighbourhoods* exert no repulsion.
    For cumulative repulsion across the whole batch use
    :class:`BatchThompsonSampling`, whose q joint sample paths diversify
    wherever the posterior is uncertain.  Surrogates without a ``fantasize``
    path degrade to independent marginal draws.
    """

    num_samples: int = 1

    def select_batch(
        self, surrogate, candidates: np.ndarray, rng: np.random.Generator, q: int,
        admissible: Admissible | None = None,
    ) -> list[int]:
        masked = np.zeros(len(candidates), dtype=bool)
        scores = thompson_scores(surrogate, candidates, rng, self.num_samples)
        picked: list[int] = []
        while (pick := best_admissible(scores, masked, candidates, admissible)) is not None:
            picked.append(pick)
            if len(picked) >= q:
                break
            anchor = candidates[pick]
            if hasattr(surrogate, "fantasize"):
                mean, _ = surrogate.predict(np.atleast_2d(anchor))
                means, stds = surrogate.fantasize(anchor, float(mean[0]), candidates)
            else:  # no fantasize path: plain marginal re-draw
                means, stds = surrogate.predict(candidates)
            draws = rng.standard_normal((self.num_samples, len(candidates)))
            scores = (means[None, :] + stds[None, :] * draws).mean(axis=0)
        return picked
