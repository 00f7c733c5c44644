"""Reference surrogate: the dense likelihood objective, the cold full refit, the
L-BFGS-B call and the per-iteration EM loop.

This is the exact-GP marginal likelihood as it stood before
``ExactGP._negative_log_marginal`` moved to one LAPACK factorization: Gram
matrix plus ``noise * eye``, ``cholesky``, the inverse by ``cho_solve`` against
the identity and full-matrix traces, kept verbatim.  ``ColdCensoredGP`` is the
full refit as the engine ran it before refits became warm — a fresh model
fitted from the default hyper-parameters, then the complete censored-EM loop —
spelled out on that dense objective with dense solves.  ``truncated_normal_mean``
is the ``scipy.stats`` formula the imputation used.  ``fantasize_batch`` and
``censored_fantasize_batch`` are the fantasized conditioning as it stood before
it went closed form: the rank-1 extended factor built, the augmented responses
re-standardized per value and solved for as ``B`` columns, kept verbatim but
for scipy's wrappers in place of the direct LAPACK calls (the same floats).
``minimize_lbfgsb`` is the hyper-parameter search as it stood before
``ExactGP`` drove scipy's ``setulb`` itself: the ``optimize.minimize`` call,
kept verbatim (the direct driver must return its bits after evaluating the
objective at the same points).  ``predict`` and ``censored_fit`` are the
posterior and the censored-EM fit as they stood before the EM loop computed
the censored points' kernel rows and variance once per refit: a full
``predict`` per EM iteration, with scipy's triangular solve.
The oracle shares the kernel classes, the L-BFGS settings and, in the censored
fantasy and fit, the model's ``predict``/``fit``/``update_targets`` and the
production imputation with production code, and nothing else.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from scipy import linalg, optimize, stats

from repro.bo import censored as tobit
from repro.bo.kernels import Kernel, Matern52Kernel, pairwise_sqdist

_JITTER = 1e-8
#: The box ``ExactGP._optimize_hyperparameters`` hands to L-BFGS.
LOG_BOUNDS = [(-3.0, 3.0), (-4.0, 4.0), (-8.0, 1.0)]


def negative_log_marginal(
    kernel: Kernel, sqdist: np.ndarray, y: np.ndarray, params: np.ndarray
) -> tuple[float, np.ndarray]:
    """NLL of ``log(lengthscale, outputscale, noise)`` and its analytic gradient."""
    lengthscale, outputscale, noise = np.exp(params)
    kernel = kernel.with_params(lengthscale, outputscale)
    gram, grad_lengthscale = kernel.grad_from_sqdist(sqdist)
    n = len(y)
    cov = gram + (noise + _JITTER) * np.eye(n)
    try:
        chol = linalg.cholesky(cov, lower=True)
    except linalg.LinAlgError:
        return 1e10, np.zeros(3)
    alpha = linalg.cho_solve((chol, True), y)
    value = float(
        0.5 * y @ alpha
        + np.log(np.diag(chol)).sum()
        + 0.5 * n * np.log(2.0 * np.pi)
    )
    inner = linalg.cho_solve((chol, True), np.eye(n)) - np.outer(alpha, alpha)
    grad = np.array([
        0.5 * np.sum(inner * grad_lengthscale),
        0.5 * np.sum(inner * gram),
        0.5 * noise * np.trace(inner),
    ])
    return value, grad


def _standardize(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    mean, std = float(y.mean()), float(y.std()) or 1.0
    return (y - mean) / std, mean, std


def minimize_lbfgsb(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]], start: np.ndarray
) -> optimize.OptimizeResult:
    """The hyper-parameter search as ``ExactGP`` ran it through ``optimize.minimize``."""
    return optimize.minimize(
        objective, start, method="L-BFGS-B", jac=True, bounds=LOG_BOUNDS, options={"maxiter": 40}
    )


def predict(gp, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ExactGP.predict`` as it stood before ``ExactGP.predictor``: everything per call."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    cross = gp.kernel(x, gp._x)
    mean = cross @ gp._alpha
    v = linalg.solve_triangular(gp._chol, cross.T, lower=True)
    var = gp.kernel.diag(x) - np.sum(v**2, axis=0)
    var = np.maximum(var, 1e-12)
    return mean * gp._y_std + gp._y_mean, np.sqrt(var) * gp._y_std


def censored_fit(model, x: np.ndarray, y: np.ndarray, censored: np.ndarray):
    """``CensoredGP.fit`` on ``model`` with the EM loop as it stood before it
    solved once per refit: a full ``predict`` of the censored points per
    iteration."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    censored = np.asarray(censored, dtype=bool).reshape(-1)
    model._x, model._values, model._censored = x, y, censored
    imputed = y.copy()
    model.gp.fit(x, imputed)
    if not censored.any():
        return model
    for _ in range(model.em_iterations):
        mean, std = predict(model.gp, x[censored])
        imputed[censored] = tobit.truncated_normal_mean(mean, std, y[censored])
        model.gp.update_targets(imputed)
    return model


class ColdCensoredGP:
    """A censored GP that starts over on every ``fit``."""

    def __init__(self, kernel: Kernel | None = None, em_iterations: int = 3) -> None:
        self.default_kernel: Kernel = kernel or Matern52Kernel()
        self.em_iterations = em_iterations

    def fit(self, x: np.ndarray, y: np.ndarray, censored: np.ndarray) -> "ColdCensoredGP":
        self.x = x
        self.sqdist = pairwise_sqdist(x, x)
        self.kernel, self.noise = self.default_kernel.with_params(1.0, 1.0), 1e-2
        #: The standardized responses the hyper-parameters are fitted on.
        self.fitted_y = _standardize(y)[0]
        if len(x) >= 3:
            result = minimize_lbfgsb(
                lambda params: negative_log_marginal(
                    self.kernel, self.sqdist, self.fitted_y, params
                ),
                np.log([1.0, 1.0, 1e-2]),
            )
            lengthscale, outputscale, noise = np.exp(result.x)
            self.kernel = self.kernel.with_params(float(lengthscale), float(outputscale))
            self.noise = float(noise)
        cov = self.kernel.from_sqdist(self.sqdist) + (self.noise + _JITTER) * np.eye(len(y))
        self.cov_inverse = linalg.inv(cov)
        imputed = y.copy()
        self._set_targets(imputed)
        for _ in range(self.em_iterations if censored.any() else 0):
            mean, std = self.predict(x[censored])
            imputed[censored] = truncated_normal_mean(mean, std, y[censored])
            self._set_targets(imputed)
        return self

    def _set_targets(self, y: np.ndarray) -> None:
        standardized, self.y_mean, self.y_std = _standardize(y)
        self.alpha = self.cov_inverse @ standardized

    def nll(self, kernel: Kernel, noise: float) -> float:
        """The dense NLL of the fitted responses at any hyper-parameters."""
        params = np.log([kernel.lengthscale, kernel.outputscale, noise])
        return negative_log_marginal(kernel, self.sqdist, self.fitted_y, params)[0]

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cross = self.kernel(x, self.x)
        var = self.kernel.diag(x) - np.einsum("ij,jk,ik->i", cross, self.cov_inverse, cross)
        std = np.sqrt(np.maximum(var, 1e-12))
        return cross @ self.alpha * self.y_std + self.y_mean, std * self.y_std


def truncated_normal_mean(mu: np.ndarray, sigma: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """E[Y | Y >= lower] for Y ~ N(mu, sigma^2), hazard by two ``scipy.stats`` calls."""
    sigma = np.maximum(np.asarray(sigma, dtype=np.float64), 1e-9)
    alpha = (np.asarray(lower, dtype=np.float64) - mu) / sigma
    with np.errstate(invalid="ignore", over="ignore"):
        hazard = np.exp(stats.norm.logpdf(alpha) - stats.norm.logsf(alpha))
    asymptotic = np.maximum(alpha, 0.0) + 1.0 / np.maximum(np.abs(alpha), 1.0)
    hazard = np.where(np.isfinite(hazard), hazard, asymptotic)
    return mu + sigma * hazard


def fantasize_batch(
    gp, x_new: np.ndarray, y_values: np.ndarray, x_query: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``ExactGP.fantasize_batch`` on a fitted ``gp``: one augmented factor, B columns."""
    x_new = np.asarray(x_new, dtype=np.float64).reshape(1, -1)
    y_values = np.asarray(y_values, dtype=np.float64).reshape(-1)
    x_query = np.atleast_2d(np.asarray(x_query, dtype=np.float64))
    n = len(gp._x)
    row = gp.kernel(x_new, gp._x).ravel()
    l12 = linalg.solve_triangular(gp._chol, row, lower=True)
    pivot = float(gp.kernel.diag(x_new)[0]) + gp.noise + _JITTER - l12 @ l12
    chol = np.zeros((n + 1, n + 1))
    chol[:n, :n] = gp._chol
    chol[n, :n] = l12
    chol[n, n] = np.sqrt(max(pivot, 1e-10))
    x_aug = np.vstack([gp._x, x_new])
    # Each fantasized value re-standardizes the augmented responses, exactly
    # as a refit would (the predictive std scales with std(y)).
    y_aug = np.concatenate(
        [np.broadcast_to(gp._y_raw, (len(y_values), n)), y_values[:, None]], axis=1
    )
    center = y_aug.mean(axis=1)
    scale = y_aug.std(axis=1)
    scale = np.where(scale == 0.0, 1.0, scale)
    normalized = (y_aug - center[:, None]) / scale[:, None]
    alpha = linalg.cho_solve((chol, True), normalized.T)  # (n+1, B)
    cross = gp.kernel(x_query, x_aug)  # (Q, n+1)
    means = (cross @ alpha).T * scale[:, None] + center[:, None]
    v = linalg.solve_triangular(chol, cross.T, lower=True)
    var = np.maximum(gp.kernel.diag(x_query) - np.sum(v**2, axis=0), 1e-12)
    stds = np.sqrt(var)[None, :] * scale[:, None]
    return means, stds


def censored_fantasize_batch(
    model, x_new: np.ndarray, censor_levels: np.ndarray, x_query: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``CensoredGP.fantasize_batch``: impute under ``predict(x_new)``, then condition."""
    censor_levels = np.asarray(censor_levels, dtype=np.float64).reshape(-1)
    mean, std = model.gp.predict(np.atleast_2d(x_new))
    imputed = tobit.truncated_normal_mean(
        np.full(len(censor_levels), mean[0]), np.full(len(censor_levels), std[0]), censor_levels
    )
    return fantasize_batch(model.gp, x_new, imputed, x_query)
