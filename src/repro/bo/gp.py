"""Gaussian-process surrogates: exact GP and its censored-observation extension.

``ExactGP`` is a standard GP regressor with marginal-likelihood hyper-parameter
fitting.  ``CensoredGP`` layers the EM-style treatment of right-censored
observations (Hutter et al., which the paper builds on) on top of it: censored
responses are imputed with the truncated-normal mean under the current
posterior and the GP is refit, for a few iterations.  Both expose the same
interface the BO loop consumes: ``fit``, ``predict``, ``posterior_samples`` and
``fantasize`` (the cheap one-point conditioning used by the uncertainty-based
timeout rule).

The hot path is *incremental*: ``fit`` caches the unscaled squared-distance
matrix (re-scaled, not recomputed, during hyper-parameter optimization, which
runs L-BFGS on analytic marginal-likelihood gradients), ``add_observation``
extends the Cholesky factor with a rank-1 update in O(n^2), and
``fantasize``/``fantasize_batch`` condition on a hypothetical observation in
closed form instead of cloning and refitting the model.

The linear algebra is LAPACK called with the arguments scipy's wrappers pass
(every float is theirs) minus their per-call Python: ``potrf`` factorizes (a
fit, the joint covariance of ``posterior_samples``), ``potrs`` solves for
``alpha``, ``trtrs`` is the forward substitution of ``predict``, the samplers
and both rank-1 extensions, ``potri`` inverts for the likelihood gradient.
Every call checks its arguments finite, as the wrappers did (``_lapack``),
except the likelihood objective's, which reads ``potrf``'s ``info`` instead.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg, optimize

from repro.bo.censored import truncated_normal_mean
from repro.bo.kernels import Kernel, Matern52Kernel, pairwise_sqdist
from repro.exceptions import ModelError

#: Jitter added to the noise variance to keep the covariance factorizable.
_JITTER = 1e-8
#: LAPACK routines, fetched once (and here, not on the GP: surrogates ride
#: inside pickled checkpoints).
_POTRF, _POTRI, _POTRS, _TRTRS = linalg.get_lapack_funcs(
    ("potrf", "potri", "potrs", "trtrs"), dtype=np.float64
)


def _lapack(routine, *arrays: np.ndarray, **options) -> np.ndarray:
    """``routine`` as scipy's wrapper calls it: finite arrays in, a non-zero ``info`` raised."""
    result, info = routine(*map(np.asarray_chkfinite, arrays), **options)
    if info != 0:  # a failed pivot at ``info``, or an illegal argument ``-info``
        raise (linalg.LinAlgError if info > 0 else ValueError)(f"LAPACK returned info={info}")
    return result


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``chol @ x = b``; a C-ordered factor (a rank-1 extended one) is solved transposed."""
    if chol.flags.f_contiguous:
        return _lapack(_TRTRS, chol, b, lower=True)
    return _lapack(_TRTRS, chol.T, b, lower=False, trans=1)


class ExactGP:
    """Exact GP regression with a Gaussian likelihood."""

    def __init__(self, kernel: Kernel | None = None, noise: float = 1e-2) -> None:
        self.kernel: Kernel = kernel or Matern52Kernel()
        self.noise = noise
        self._x: np.ndarray | None = None
        self._y_raw: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._sqdist: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0

    # ------------------------------------------------------------------ fitting
    def fit(self, x: np.ndarray, y: np.ndarray, optimize_hyperparameters: bool = True) -> "ExactGP":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if len(x) != len(y):
            raise ModelError("x and y must have the same number of rows")
        if len(x) == 0:
            raise ModelError("cannot fit a GP on zero observations")
        self._x = x
        self._y_raw = y.copy()
        self._standardize()
        self._sqdist = pairwise_sqdist(x, x)
        if optimize_hyperparameters and len(x) >= 3:
            self._optimize_hyperparameters()
        self._factorize()
        return self

    def _standardize(self) -> None:
        assert self._y_raw is not None
        self._y_mean = float(self._y_raw.mean())
        self._y_std = float(self._y_raw.std()) or 1.0
        self._y = (self._y_raw - self._y_mean) / self._y_std

    def _factorize(self) -> None:
        assert self._sqdist is not None and self._y is not None
        cov = self.kernel.from_sqdist(self._sqdist) + (self.noise + _JITTER) * np.eye(len(self._y))
        self._chol = _lapack(_POTRF, cov, lower=True, clean=True)
        self._alpha = _lapack(_POTRS, self._chol, self._y, lower=True)

    def _negative_log_marginal(self, params: np.ndarray) -> tuple[float, np.ndarray]:
        """NLL of ``log(lengthscale, outputscale, noise)`` and its analytic gradient."""
        lengthscale, outputscale, noise = np.exp(params)
        kernel = self.kernel.with_params(lengthscale, outputscale)
        gram, grad_lengthscale = kernel.grad_from_sqdist(self._sqdist)
        n = len(self._y)
        cov = gram.copy()
        cov.flat[:: n + 1] += noise + _JITTER
        # One factorization serves the value and the gradient.  ``cov`` is
        # symmetric, so its transpose is the Fortran-ordered array LAPACK
        # factorizes in place; ``potrf`` zeroes the other triangle.
        chol, info = _POTRF(cov.T, lower=True, overwrite_a=True)
        if info != 0:
            return 1e10, np.zeros(3)
        alpha, _ = _POTRS(chol, self._y, lower=True)
        value = float(
            0.5 * self._y @ alpha
            + np.log(chol.diagonal()).sum()
            + 0.5 * n * np.log(2.0 * np.pi)
        )
        # dNLL/dtheta = 0.5 (tr(K^-1 dK/dtheta) - alpha^T dK/dtheta alpha).
        # ``potri`` turns the factor into the lower triangle of K^-1 (a third of
        # the flops of solving against the identity) and leaves the zeroes
        # above it, so for a symmetric dK the trace is twice the elementwise
        # sum over the stored triangle minus the doubly counted diagonal.
        inverse, _ = _POTRI(chol, lower=True, overwrite_c=True)
        inverse_diag = inverse.diagonal()

        def half_trace(derivative: np.ndarray) -> float:
            # ``inverse.T`` is the C-ordered view ``vdot`` flattens without a copy.
            trace = 2.0 * np.vdot(inverse.T, derivative) - inverse_diag @ derivative.diagonal()
            return 0.5 * (trace - alpha @ derivative @ alpha)

        grad = np.array([
            half_trace(grad_lengthscale),
            half_trace(gram),  # dK/dlog outputscale == K
            0.5 * noise * (inverse_diag.sum() - alpha @ alpha),
        ])
        return value, grad

    def _optimize_hyperparameters(self) -> None:
        """L-BFGS on the marginal likelihood, started at the current hyper-parameters.

        On a fitted model those are the previous optimum, so a refit continues
        from it instead of starting over from the defaults.
        """
        initial = np.log([self.kernel.lengthscale, self.kernel.outputscale, self.noise])
        result = optimize.minimize(
            self._negative_log_marginal,
            initial,
            method="L-BFGS-B",
            jac=True,
            bounds=[(-3.0, 3.0), (-4.0, 4.0), (-8.0, 1.0)],
            options={"maxiter": 40},
        )
        lengthscale, outputscale, noise = np.exp(result.x)
        self.kernel = self.kernel.with_params(float(lengthscale), float(outputscale))
        self.noise = float(noise)

    # ------------------------------------------------------------------ incremental updates
    def update_targets(self, y: np.ndarray) -> "ExactGP":
        """Replace the responses, reusing the cached Cholesky factor.

        The Gram matrix depends only on the inputs and hyper-parameters, so
        re-fitting with new ``y`` (the censored-EM imputation step) is just a
        re-standardization plus one O(n^2) triangular solve.
        """
        self._require_fit()
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if len(y) != len(self._x):
            raise ModelError("y must match the number of fitted observations")
        self._y_raw = y.copy()
        self._standardize()
        self._alpha = _lapack(_POTRS, self._chol, self._y, lower=True)
        return self

    def add_observation(self, x: np.ndarray, value: float) -> "ExactGP":
        """Condition on one new observation with a rank-1 Cholesky update.

        O(n^2) instead of the O(n^3) full refit, and numerically identical to
        ``fit`` on the augmented dataset with the current hyper-parameters
        (block-Cholesky identity).  Hyper-parameters are left untouched; the
        caller decides when a full refit is worth it.
        """
        self._require_fit()
        x = np.asarray(x, dtype=np.float64).reshape(1, -1)
        if x.shape[1] != self._x.shape[1]:
            raise ModelError(f"point has dimension {x.shape[1]}, expected {self._x.shape[1]}")
        n = len(self._x)
        cross_sq = pairwise_sqdist(self._x, x)
        sqdist = np.empty((n + 1, n + 1))
        sqdist[:n, :n] = self._sqdist
        sqdist[:n, n] = sqdist[n, :n] = cross_sq.ravel()
        sqdist[n, n] = 0.0
        self._sqdist = sqdist
        self._x = np.vstack([self._x, x])
        self._y_raw = np.append(self._y_raw, float(value))
        self._standardize()
        row = self.kernel.from_sqdist(cross_sq).ravel()
        l12 = _solve_lower(self._chol, row)
        pivot = float(self.kernel.diag(x)[0]) + self.noise + _JITTER - l12 @ l12
        if pivot <= 1e-10:
            # Near-duplicate point: the extended factor would be numerically
            # rank-deficient, so fall back to a fresh factorization.
            self._factorize()
            return self
        chol = np.zeros((n + 1, n + 1))
        chol[:n, :n] = self._chol
        chol[n, :n] = l12
        chol[n, n] = np.sqrt(pivot)
        self._chol = chol
        self._alpha = _lapack(_POTRS, self._chol, self._y, lower=True)
        return self

    # ------------------------------------------------------------------ inference
    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation (in the original y units)."""
        self._require_fit()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        cross = self.kernel(x, self._x)
        mean = cross @ self._alpha
        v = _solve_lower(self._chol, cross.T)
        var = self.kernel.diag(x) - np.sum(v**2, axis=0)
        var = np.maximum(var, 1e-12)
        return mean * self._y_std + self._y_mean, np.sqrt(var) * self._y_std

    def posterior_samples(self, x: np.ndarray, count: int, rng: np.random.Generator,
                          jitter: float = 1e-8) -> np.ndarray:
        """Joint posterior samples at ``x`` (shape ``(count, len(x))``)."""
        self._require_fit()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        cross = self.kernel(x, self._x)
        mean = cross @ self._alpha
        v = _solve_lower(self._chol, cross.T)
        cov = self.kernel(x, x) - v.T @ v
        cov += jitter * np.eye(len(x))
        try:
            chol = _lapack(_POTRF, cov, lower=True, clean=True)
        except linalg.LinAlgError:
            chol = np.diag(np.sqrt(np.maximum(np.diag(cov), 1e-12)))
        draws = rng.standard_normal((count, len(x)))
        samples = mean[None, :] + draws @ chol.T
        return samples * self._y_std + self._y_mean

    def fantasize(self, x_new: np.ndarray, y_new: float, x_query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior at ``x_query`` after conditioning on one extra observation.

        Used by the uncertainty-based timeout rule: "if this plan were censored
        at tau, what would we believe about it?"
        """
        means, stds = self.fantasize_batch(x_new, np.array([y_new]), x_query)
        return means[0], stds[0]

    def fantasize_batch(
        self, x_new: np.ndarray, y_values: np.ndarray, x_query: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior at ``x_query`` conditioned on ``(x_new, y)`` for each ``y``.

        Equivalent to refitting on the augmented dataset once per value (the
        old clone-and-refit path), but the extended Cholesky factor depends
        only on ``x_new``, so one rank-1 extension is shared by the whole
        batch: O(n^2 (B + Q)) for B values and Q query points instead of
        O(B n^3).  Returns arrays of shape ``(B, Q)``.
        """
        self._require_fit()
        x_new = np.asarray(x_new, dtype=np.float64).reshape(1, -1)
        y_values = np.asarray(y_values, dtype=np.float64).reshape(-1)
        x_query = np.atleast_2d(np.asarray(x_query, dtype=np.float64))
        n = len(self._x)
        row = self.kernel(x_new, self._x).ravel()
        l12 = _solve_lower(self._chol, row)
        pivot = float(self.kernel.diag(x_new)[0]) + self.noise + _JITTER - l12 @ l12
        chol = np.zeros((n + 1, n + 1))
        chol[:n, :n] = self._chol
        chol[n, :n] = l12
        chol[n, n] = np.sqrt(max(pivot, 1e-10))
        x_aug = np.vstack([self._x, x_new])
        # Each fantasized value re-standardizes the augmented responses, exactly
        # as a refit would (the predictive std scales with std(y)).
        y_aug = np.concatenate(
            [np.broadcast_to(self._y_raw, (len(y_values), n)), y_values[:, None]], axis=1
        )
        center = y_aug.mean(axis=1)
        scale = y_aug.std(axis=1)
        scale = np.where(scale == 0.0, 1.0, scale)
        normalized = (y_aug - center[:, None]) / scale[:, None]
        alpha = _lapack(_POTRS, chol, normalized.T, lower=True)  # (n+1, B)
        cross = self.kernel(x_query, x_aug)  # (Q, n+1)
        means = (cross @ alpha).T * scale[:, None] + center[:, None]
        v = _solve_lower(chol, cross.T)
        var = np.maximum(self.kernel.diag(x_query) - np.sum(v**2, axis=0), 1e-12)
        stds = np.sqrt(var)[None, :] * scale[:, None]
        return means, stds

    def _require_fit(self) -> None:
        if self._x is None or self._chol is None:
            raise ModelError("the GP has not been fit yet")

    @property
    def num_observations(self) -> int:
        return 0 if self._x is None else len(self._x)


class CensoredGP:
    """Exact GP with EM-style handling of right-censored observations.

    Censored responses are replaced by their truncated-normal conditional mean
    under the current posterior and the GP is refit; a few iterations suffice
    for the imputations to stabilize.  ``add_observation`` is the warm-path
    shortcut: the new point is pushed into the fitted GP with a rank-1 update,
    imputing a censored response with a single EM step under the cached
    posterior (the periodic full ``fit`` re-runs the complete EM loop).
    """

    def __init__(self, kernel: Kernel | None = None, noise: float = 1e-2, em_iterations: int = 3) -> None:
        self.gp = ExactGP(kernel=kernel, noise=noise)
        self.em_iterations = em_iterations
        self._censored: np.ndarray | None = None
        self._values: np.ndarray | None = None
        self._x: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray, censored: np.ndarray) -> "CensoredGP":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        censored = np.asarray(censored, dtype=bool).reshape(-1)
        if not (len(x) == len(y) == len(censored)):
            raise ModelError("x, y and censored must have matching lengths")
        self._x, self._values, self._censored = x, y, censored
        imputed = y.copy()
        self.gp.fit(x, imputed)
        if not censored.any():
            return self
        for _ in range(self.em_iterations):
            mean, std = self.gp.predict(x[censored])
            imputed[censored] = truncated_normal_mean(mean, std, y[censored])
            # Only the responses change between EM steps: reuse the cached
            # factorization instead of refitting from scratch.
            self.gp.update_targets(imputed)
        return self

    def add_observation(self, x: np.ndarray, value: float, censored: bool = False) -> "CensoredGP":
        """Warm update: condition the fitted GP on one new observation in O(n^2)."""
        x = np.asarray(x, dtype=np.float64).reshape(1, -1)
        value = float(value)
        if self._x is None:
            return self.fit(x, np.array([value]), np.array([censored]))
        imputed = value
        if censored:
            mean, std = self.gp.predict(x)
            imputed = float(truncated_normal_mean(mean, std, np.array([value]))[0])
        self._x = np.vstack([self._x, x])
        self._values = np.append(self._values, value)
        self._censored = np.append(self._censored, bool(censored))
        self.gp.add_observation(x[0], imputed)
        return self

    # Delegation -------------------------------------------------------------
    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.gp.predict(x)

    def posterior_samples(self, x: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.gp.posterior_samples(x, count, rng)

    def fantasize(self, x_new: np.ndarray, censor_level: float, x_query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Condition on "x_new was censored at censor_level" and predict at x_query."""
        means, stds = self.fantasize_batch(x_new, np.array([censor_level]), x_query)
        return means[0], stds[0]

    def fantasize_batch(
        self, x_new: np.ndarray, censor_levels: np.ndarray, x_query: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched ``fantasize``: one closed-form conditioning for all levels.

        The timeout rule probes many censoring levels for the *same* candidate;
        the imputations all derive from one posterior evaluation at ``x_new``
        and the conditioning shares one extended Cholesky factor.
        """
        censor_levels = np.asarray(censor_levels, dtype=np.float64).reshape(-1)
        mean, std = self.gp.predict(np.atleast_2d(x_new))
        imputed = truncated_normal_mean(
            np.full(len(censor_levels), mean[0]), np.full(len(censor_levels), std[0]), censor_levels
        )
        return self.gp.fantasize_batch(x_new, imputed, x_query)

    @property
    def num_observations(self) -> int:
        return self.gp.num_observations

    @property
    def num_censored(self) -> int:
        return 0 if self._censored is None else int(self._censored.sum())
