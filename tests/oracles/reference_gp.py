"""Reference surrogate: the dense likelihood objective and the cold full refit.

This is the exact-GP marginal likelihood as it stood before
``ExactGP._negative_log_marginal`` moved to one LAPACK factorization: Gram
matrix plus ``noise * eye``, ``cholesky``, the inverse by ``cho_solve`` against
the identity and full-matrix traces, kept verbatim.  ``ColdCensoredGP`` is the
full refit as the engine ran it before refits became warm — a fresh model
fitted from the default hyper-parameters, then the complete censored-EM loop —
spelled out on that dense objective with dense solves.  ``truncated_normal_mean``
is the ``scipy.stats`` formula the imputation used.  The oracle shares the
kernel classes and the L-BFGS settings with production code, and nothing else.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg, optimize, stats

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
            result = optimize.minimize(
                lambda params: negative_log_marginal(
                    self.kernel, self.sqdist, self.fitted_y, params
                ),
                np.log([1.0, 1.0, 1e-2]),
                method="L-BFGS-B",
                jac=True,
                bounds=LOG_BOUNDS,
                options={"maxiter": 40},
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
