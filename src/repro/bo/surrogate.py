"""The surrogate-model contract of the BO stack.

:class:`~repro.bo.loop.BOEngine` is composed of three explicit layers —
surrogate, candidate generation (:mod:`repro.bo.candidates`) and acquisition
(:mod:`repro.bo.acquisition`).  This module defines the first: the structural
protocols every surrogate implementation satisfies, unifying
:class:`~repro.bo.gp.ExactGP`, :class:`~repro.bo.gp.CensoredGP` and
:class:`~repro.bo.svgp.CensoredSVGP` behind one interface so the engine (and
anything else, e.g. the uncertainty-based timeout rule) can be written
against the contract rather than a concrete model.

The protocols are ``runtime_checkable`` so capability discovery is an
``isinstance`` check: the engine probes :class:`IncrementalSurrogate` for the
warm O(n^2) update path and :class:`BatchFantasizeSurrogate` for the shared
rank-1 batched conditioning that the timeout rule and the batched acquisition
build on.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class Surrogate(Protocol):
    """A probabilistic regression model over the normalized search cube.

    ``fit`` ingests the full observation set (with right-censoring flags);
    ``fit`` on a fitted model re-optimises from its current hyper-parameters
    (the engine refits the live model; a model with nothing worth keeping,
    like the SVGP, simply re-initialises).  ``predict`` returns marginal
    posterior mean/std; ``posterior_samples`` draws joint sample paths
    (Thompson sampling); ``fantasize`` conditions on one hypothetical censored
    observation in closed form and predicts at the query points.
    """

    def fit(self, x: np.ndarray, y: np.ndarray, censored: np.ndarray) -> "Surrogate": ...

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...

    def posterior_samples(
        self, x: np.ndarray, count: int, rng: np.random.Generator
    ) -> np.ndarray: ...

    def fantasize(
        self, x_new: np.ndarray, censor_level: float, x_query: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]: ...

    @property
    def num_observations(self) -> int: ...


@runtime_checkable
class IncrementalSurrogate(Surrogate, Protocol):
    """A surrogate with a warm single-observation update path.

    ``add_observation`` pushes one new point into the fitted model without a
    from-scratch refit (the rank-1 Cholesky extension of the exact GPs); the
    SVGP deliberately does not implement it, which is how the engine knows to
    refit it every time.
    """

    def add_observation(
        self, x: np.ndarray, value: float, censored: bool = False
    ) -> "IncrementalSurrogate": ...


@runtime_checkable
class BatchFantasizeSurrogate(Surrogate, Protocol):
    """A surrogate that can fantasize many censor levels in one conditioning.

    The rank-1 extension a censored ``x_new`` would make depends on ``x_new``
    only; the exact GPs take its Schur complement in closed form (one kernel
    call and one forward solve per call, then O(1) arithmetic per level and
    query), so the uncertainty-timeout grid and the constant-liar batch
    acquisition cost one O(n^2) conditioning instead of one per level.
    """

    def fantasize_batch(
        self, x_new: np.ndarray, censor_levels: np.ndarray, x_query: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]: ...
