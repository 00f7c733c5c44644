"""Bayesian-optimization substrate: kernels, GPs, censored likelihoods, TuRBO.

Surrogate-state lifecycle
-------------------------

The surrogate holds **one point per evaluation**: an observation enters it
when an evaluation that spent budget comes back, and in no other way.  In
BayesQO's latent space many points decode to the same plan; a latent point
that aliases a plan already executed teaches the surrogate *nothing* — its
response is known and already in the model under the latent that ran, and
feeding it again would only pile near-duplicate rows onto the kernel matrix
(on the heaviest recorded stream 176 points carried ~40 distinct responses,
and the marginal likelihood went bimodal).  So such a point is never
observed: acquisition skips it (``admissible`` in :mod:`repro.bo.acquisition`)
and proposes the best-ranked candidate that has not run.

The surrogate inside :class:`BOEngine` is *persistent and warm*: it is not
rebuilt on every observation.  The lifecycle has two tiers:

1. **Warm updates** (every observation).  ``BOEngine.fit`` pushes each new
   point into the already-fitted model via ``CensoredGP.add_observation``,
   which extends the cached Cholesky factor with a rank-1 update in O(n^2)
   (``ExactGP.add_observation``).  A censored response is imputed with a
   single EM step under the cached posterior — the truncated-normal mean given
   the current factorization — rather than re-running the full EM loop.
   Hyper-parameters are frozen during warm updates.

2. **Full refits** (every ``refit_every``-th observation, on the first fit,
   and always for the SVGP surrogate, which has no incremental path).  The
   engine calls ``fit`` on the *live* surrogate.  What is kept: the exact GP's
   hyper-parameters, so L-BFGS re-optimizes the kernel and the noise from the
   previous optimum instead of from the defaults (a handful of likelihood
   evaluations instead of the 40-iteration cap).  What is redone: the
   unscaled pairwise squared-distance matrix (computed once per fit and
   re-scaled, not recomputed, by each likelihood evaluation, which factorizes
   once and takes value and analytic gradient from that one factorization),
   the Cholesky factorization at the new optimum, and the complete
   censored-EM loop that re-imputes every censored observation.  Only the
   first fit builds a surrogate; the SVGP re-initializes everything in
   ``fit`` and is unaffected.

   A warm start follows the likelihood mode it is in.  Where the marginal
   likelihood of a heavily censored stream has two modes, it and a start from
   the defaults can stop in different ones, either one the lower
   (``tests/test_bo_gp.py`` pins both cases against the cold oracle in
   ``tests/oracles/reference_gp.py``).

``refit_every`` therefore bounds hyper-parameter staleness: ``1`` is a full
refit per observation, larger values amortize the O(n^3) fit over cheap warm
updates.  Fantasized conditioning (the
uncertainty-timeout rule) never refits at all: ``fantasize``/``fantasize_batch``
condition on hypothetical censored observations in closed form against the
cached factorization, sharing one rank-1 extension across all probed levels.
"""

from repro.bo.acquisition import (
    Acquisition,
    BatchThompsonSampling,
    FantasizedThompson,
    expected_improvement,
    lower_confidence_bound,
    thompson_sample,
)
from repro.bo.candidates import CandidateGenerator, GlobalCandidates, TrustRegionCandidates
from repro.bo.surrogate import BatchFantasizeSurrogate, IncrementalSurrogate, Surrogate
from repro.bo.censored import (
    Observation,
    censored_elbo_terms,
    expected_log_survival,
    tobit_log_likelihood,
    truncated_normal_mean,
)
from repro.bo.gp import CensoredGP, ExactGP
from repro.bo.kernels import Matern52Kernel, RBFKernel, pairwise_sqdist
from repro.bo.loop import BOEngine, BOEngineConfig
from repro.bo.svgp import CensoredSVGP, SVGPConfig
from repro.bo.turbo import TrustRegion, global_candidates

__all__ = [
    "Acquisition",
    "BatchFantasizeSurrogate",
    "BatchThompsonSampling",
    "BOEngine",
    "BOEngineConfig",
    "CandidateGenerator",
    "CensoredGP",
    "CensoredSVGP",
    "ExactGP",
    "FantasizedThompson",
    "GlobalCandidates",
    "IncrementalSurrogate",
    "Matern52Kernel",
    "Observation",
    "RBFKernel",
    "SVGPConfig",
    "Surrogate",
    "TrustRegion",
    "TrustRegionCandidates",
    "censored_elbo_terms",
    "expected_improvement",
    "expected_log_survival",
    "global_candidates",
    "lower_confidence_bound",
    "pairwise_sqdist",
    "thompson_sample",
    "tobit_log_likelihood",
    "truncated_normal_mean",
]
