"""The latent-space BO engine: composed surrogate + candidates + acquisition.

``BOEngine`` is the reusable optimization core that BayesQO drives.  It is
deliberately agnostic of query plans: it minimizes a scalar objective over a
box-bounded continuous domain, supports right-censored observations, and
exposes the fantasized-conditioning hook the uncertainty-based timeout rule
needs.  BayesQO maps plans to latent vectors and latencies to (log) objective
values before handing them to this engine.

The engine is an explicit composition of three layers, each behind its own
contract:

* **surrogate** (:mod:`repro.bo.surrogate`) — the probabilistic model;
  ``censored_gp`` or ``svgp``, probed once per engine for incremental-update
  and batched-fantasize capabilities by protocol ``isinstance`` checks,
* **candidate generation** (:mod:`repro.bo.candidates`) — trust-region
  perturbation around the incumbent or uniform global sampling,
* **acquisition** (:mod:`repro.bo.acquisition`) — Thompson sampling for
  single proposals; :meth:`BOEngine.suggest_batch` picks ``q`` jointly
  informative candidates via fantasized constant-liar conditioning (or q
  independent posterior draws), never q argmins of the same posterior mean.

Which points are worth evaluating is the driver's knowledge, not the
engine's: the driver passes ``admissible(points) -> bool mask`` and every pick
is the best-ranked pool candidate it accepts (BayesQO rejects latent points
that decode to a plan already executed or in flight).  The engine holds one
observation per evaluation; nothing else is ever fed to the surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bo.acquisition import (
    Acquisition,
    Admissible,
    BatchThompsonSampling,
    FantasizedThompson,
    best_admissible,
)
from repro.bo.candidates import CandidateGenerator, GlobalCandidates, TrustRegionCandidates
from repro.bo.gp import CensoredGP
from repro.bo.surrogate import BatchFantasizeSurrogate, IncrementalSurrogate, Surrogate
from repro.bo.svgp import CensoredSVGP, SVGPConfig
from repro.bo.turbo import TrustRegion
from repro.exceptions import OptimizationError
from repro.obs.tracer import NULL_TRACER

#: Names of the supported surrogate models.
SURROGATES = ("svgp", "censored_gp")
#: Batched-acquisition strategies for ``suggest_batch``.
BATCH_STRATEGIES = ("fantasize", "thompson")


@dataclass
class BOEngineConfig:
    """Knobs of the BO engine."""

    surrogate: str = "censored_gp"
    use_trust_region: bool = True
    num_candidates: int = 256
    #: Full (hyper-parameter) refit cadence.  Between full refits, new
    #: observations are pushed into the warm surrogate with O(n^2) incremental
    #: updates; ``refit_every=1`` disables the warm path entirely.
    refit_every: int = 5
    #: How ``suggest_batch`` spreads q concurrent picks: ``"fantasize"``
    #: (constant-liar conditioning through the surrogate's rank-1 fantasize
    #: path) or ``"thompson"`` (q independent posterior sample paths).
    batch_strategy: str = "fantasize"
    svgp: SVGPConfig | None = None

    def __post_init__(self) -> None:
        if self.surrogate not in SURROGATES:
            raise OptimizationError(f"unknown surrogate {self.surrogate!r}; pick one of {SURROGATES}")
        if self.refit_every < 1:
            raise OptimizationError("refit_every must be at least 1")
        if self.batch_strategy not in BATCH_STRATEGIES:
            raise OptimizationError(
                f"unknown batch strategy {self.batch_strategy!r}; pick one of {BATCH_STRATEGIES}"
            )
        if self.svgp is not None and self.surrogate != "svgp":
            raise OptimizationError(
                f"svgp sub-config given but surrogate is {self.surrogate!r}; "
                'it only applies to surrogate="svgp"'
            )


class BOEngine:
    """Box-bounded minimization with censored observations."""

    #: Candidate pools drawn so far (what the Figure-9 breakdown divides by).
    #: A class-level default, so an engine pickled before PR 16 resumes at 0.
    acquisition_rounds = 0
    #: (incremental updates, batched fantasize) of the configured surrogate
    #: type: two protocol checks, made once by :meth:`_capabilities`.  A
    #: class-level default, so an engine pickled before PR 24 makes them on
    #: its first ask after resuming.
    _surrogate_capabilities: tuple[bool, bool] | None = None

    def __init__(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        config: BOEngineConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.lower = np.asarray(lower, dtype=np.float64)
        self.upper = np.asarray(upper, dtype=np.float64)
        if self.lower.shape != self.upper.shape or (self.upper <= self.lower).any():
            raise OptimizationError("invalid search bounds")
        self.config = config or BOEngineConfig()
        self.rng = np.random.default_rng(seed)
        self.dim = len(self.lower)
        self.trust_region = TrustRegion(dim=self.dim)
        # The composed layers: generators read engine state (trust region),
        # the acquisition strategy is stateless.
        self._local_candidates: CandidateGenerator = TrustRegionCandidates(self.trust_region)
        self._global_candidates: CandidateGenerator = GlobalCandidates(self.dim)
        self._acquisition: Acquisition = (
            FantasizedThompson()
            if self.config.batch_strategy == "fantasize"
            else BatchThompsonSampling()
        )
        self._x: list[np.ndarray] = []
        self._y: list[float] = []
        self._censored: list[bool] = []
        self._surrogate = None
        #: How many of the recorded observations the surrogate has seen.
        self._num_in_surrogate = 0
        #: Observations absorbed incrementally since the last full refit.
        self._observations_since_refit = 0
        #: Observability hook (explicit propagation — set by whoever drives
        #: the engine; see :mod:`repro.obs`).  Never pickled: engines ride
        #: inside checkpointed optimizer states and plan stores, and a live
        #: span buffer has no business there.
        self.tracer = NULL_TRACER

    def __getstate__(self):
        state = self.__dict__.copy()
        state["tracer"] = NULL_TRACER
        return state

    # ------------------------------------------------------------------ data handling
    def _normalize(self, x: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(x) - self.lower) / (self.upper - self.lower)

    def _denormalize(self, x: np.ndarray) -> np.ndarray:
        return np.atleast_2d(x) * (self.upper - self.lower) + self.lower

    def add_observation(self, x: np.ndarray, value: float, censored: bool = False) -> None:
        """Record one evaluated point; updates the trust region state."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.shape != self.lower.shape:
            raise OptimizationError(f"point has dimension {len(x)}, expected {self.dim}")
        previous_best = self.best_value()
        self._x.append(x)
        self._y.append(float(value))
        self._censored.append(bool(censored))
        improved = (not censored) and (previous_best is None or value < previous_best)
        if len(self._y) > 1:
            self.trust_region.update(improved)

    @property
    def num_observations(self) -> int:
        return len(self._y)

    def observations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.asarray(self._x, dtype=np.float64),
            np.asarray(self._y, dtype=np.float64),
            np.asarray(self._censored, dtype=bool),
        )

    def best_value(self) -> float | None:
        """Best (lowest) uncensored objective value seen so far."""
        values = [y for y, c in zip(self._y, self._censored) if not c]
        return min(values) if values else None

    def best_point(self) -> np.ndarray | None:
        best, best_x = None, None
        for x, y, censored in zip(self._x, self._y, self._censored):
            if censored:
                continue
            if best is None or y < best:
                best, best_x = y, x
        return best_x

    # ------------------------------------------------------------------ surrogate
    def _build_surrogate(self) -> Surrogate:
        if self.config.surrogate == "svgp":
            return CensoredSVGP(config=self.config.svgp or SVGPConfig())
        return CensoredGP()

    def _capabilities(self) -> tuple[bool, bool]:
        """Whether the surrogate updates incrementally / fantasizes in batches.

        A property of the surrogate *type*, so it is decided once — on the
        live surrogate, or on an unfitted one built for the question — and an
        unfitted engine answers without a fit.
        """
        if self._surrogate_capabilities is None:
            surrogate = self._surrogate if self._surrogate is not None else self._build_surrogate()
            self._surrogate_capabilities = (
                isinstance(surrogate, IncrementalSurrogate),
                isinstance(surrogate, BatchFantasizeSurrogate),
            )
        return self._surrogate_capabilities

    def fit(self) -> None:
        """Bring the surrogate up to date with all recorded observations.

        The surrogate is kept *warm* between iterations: new observations are
        pushed into the fitted model with O(n^2) incremental updates.  A full
        refit (hyper-parameter optimization and the complete censored-EM
        loop over all observations) happens on the first fit, every
        ``config.refit_every`` observations, and always for surrogates
        without an incremental path (the SVGP).  A full refit calls ``fit``
        on the live surrogate, so a model that keeps its hyper-parameters
        (the exact GPs) re-optimizes them from the previous optimum instead
        of from the defaults.
        """
        if self.num_observations == 0:
            raise OptimizationError("cannot fit the surrogate with no observations")
        pending = self.num_observations - self._num_in_surrogate
        if self._surrogate is not None and pending == 0:
            return
        incremental = (
            self._surrogate is not None
            and self._capabilities()[0]
            and self._observations_since_refit + pending < self.config.refit_every
        )
        with self.tracer.span(
            "bo.refit",
            category="bo",
            mode="incremental" if incremental else "full",
            observations=self.num_observations,
            pending=pending,
        ):
            if incremental:
                for index in range(self._num_in_surrogate, self.num_observations):
                    self._surrogate.add_observation(
                        self._normalize(self._x[index])[0], self._y[index], self._censored[index]
                    )
                self._observations_since_refit += pending
            else:
                x, y, censored = self.observations()
                surrogate = (
                    self._surrogate if self._surrogate is not None else self._build_surrogate()
                )
                surrogate.fit(self._normalize(x), y, censored)
                self._surrogate = surrogate
                self._observations_since_refit = 0
        self._num_in_surrogate = self.num_observations

    @property
    def surrogate(self):
        if self._surrogate is None:
            self.fit()
        return self._surrogate

    # ------------------------------------------------------------------ inference helpers
    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Surrogate posterior mean/std at raw-space points."""
        return self.surrogate.predict(self._normalize(x))

    def fantasize_censored(self, x: np.ndarray, censor_level: float) -> tuple[float, float]:
        """Posterior at ``x`` after pretending it was censored at ``censor_level``."""
        normalized = self._normalize(x)
        mean, std = self.surrogate.fantasize(normalized, censor_level, normalized)
        return float(mean[0]), float(std[0])

    @property
    def supports_batched_fantasize(self) -> bool:
        """Whether the (configured) surrogate fantasizes many levels at once.

        An unfitted engine answers without forcing a fit (probing an empty
        engine must not raise — e.g. protocol ``isinstance`` checks).
        """
        return self._capabilities()[1]

    def fantasize_censored_batch(
        self, x: np.ndarray, censor_levels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior at ``x`` for every hypothetical censoring level, in one call.

        The uncertainty-based timeout rule probes many levels per candidate;
        batching them shares a single rank-1 Cholesky extension instead of
        refitting the surrogate once per level.
        """
        normalized = self._normalize(x)
        levels = np.asarray(censor_levels, dtype=np.float64).reshape(-1)
        means, stds = self.surrogate.fantasize_batch(normalized, levels, normalized)
        return means[:, 0], stds[:, 0]

    # ------------------------------------------------------------------ acquisition
    def _acquire(
        self, generator: CandidateGenerator, center: np.ndarray | None, q: int,
        admissible: Admissible | None,
    ) -> list[np.ndarray]:
        """One acquisition round: draw a pool, rank it, take up to ``q`` picks."""
        self.acquisition_rounds += 1
        with self.tracer.span("bo.acquisition", category="bo", q=q):
            candidates = generator.generate(self.config.num_candidates, self.rng, center=center)
            accepts = admissible and (  # the callback speaks raw-space points
                lambda points: np.asarray(admissible(self._denormalize(points)), dtype=bool)
            )
            if self.num_observations:
                indices = self._acquisition.select_batch(
                    self.surrogate, candidates, self.rng, q, accepts
                )
            else:  # nothing to rank by: the pool is uniform and so is its order
                indices, order = [], np.zeros(len(candidates))
                masked = np.zeros(len(candidates), dtype=bool)
                while len(indices) < q and (
                    pick := best_admissible(order, masked, candidates, accepts)
                ) is not None:
                    indices.append(pick)
        return [self._denormalize(candidates[index])[0] for index in indices]

    def suggest(self, admissible: Admissible | None = None) -> np.ndarray | None:
        """Propose the next raw-space point to evaluate (``None``: see
        :meth:`suggest_batch`)."""
        batch = self.suggest_batch(1, admissible)
        return batch[0] if batch else None

    def suggest_batch(self, q: int, admissible: Admissible | None = None) -> list[np.ndarray]:
        """Propose up to ``q`` jointly informative raw-space points.

        ``q = 1`` is the classic single suggest: one candidate pool, one
        Thompson draw.  Larger ``q`` spreads the picks (fantasized
        constant-liar conditioning or independent posterior draws) instead of
        returning q duplicates of the posterior argmin.  Before the first
        observation the pool is uniform over the box and so are the picks.

        With ``admissible`` every pick is the best-ranked candidate of the
        pool that the callback accepts.  When the trust-region pool runs out
        of such candidates the missing picks are drawn once more from a
        global pool; fewer than ``q`` points (none: the reachable space is
        exhausted) come back only when that one runs out too.  So a proposal
        costs at most two rounds — ``acquisition_rounds`` counts them — and
        no call spins.
        """
        if q < 1:
            raise OptimizationError("batch size q must be at least 1")
        if self.num_observations:
            self.fit()
        # With everything censored so far there is no incumbent to perturb
        # around, and the first pool is already the global one.
        center = self.best_point() if self.config.use_trust_region else None
        if center is None:
            return self._acquire(self._global_candidates, None, q, admissible)
        points = self._acquire(self._local_candidates, self._normalize(center)[0], q, admissible)
        if len(points) < q and admissible is not None:
            points += self._acquire(self._global_candidates, None, q - len(points), admissible)
        return points
