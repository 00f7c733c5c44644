"""Sparse variational GP with the right-censored (Tobit) ELBO of Section 4.3.1.

The paper's contribution on the modelling side is the extension of SVGP
models to censored observations: starting from the standard SVGP evidence
lower bound and substituting the Tobit likelihood, the expected
log-likelihood splits into an analytic Gaussian term for uncensored points
and a ``E_q[log(1 - Phi(z))]`` term for censored points computed with
one-dimensional Gauss-Hermite quadrature.  This module implements exactly
that bound with a diagonal (mean-field) variational posterior over the
inducing values, optimized with Adam on analytic gradients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.bo.censored import gauss_hermite_points, norm_logpdf, norm_logsf
from repro.bo.kernels import Kernel, Matern52Kernel
from repro.exceptions import ModelError
from repro.utils.blas import adopt_late_loads


@functools.cache
def _linalg():
    """``scipy.linalg``, imported at the first fit (see ``repro.bo.gp._scipy``)."""
    from scipy import linalg

    adopt_late_loads()
    return linalg


@dataclass
class SVGPConfig:
    """Hyper-parameters of the censored SVGP surrogate."""

    num_inducing: int = 32
    noise_std: float = 0.15
    train_steps: int = 150
    learning_rate: float = 0.05
    quadrature_order: int = 20
    jitter: float = 1e-6


class CensoredSVGP:
    """SVGP surrogate supporting right-censored observations."""

    def __init__(self, kernel: Kernel | None = None, config: SVGPConfig | None = None) -> None:
        self.kernel: Kernel = kernel or Matern52Kernel()
        self.config = config or SVGPConfig()
        self._x: np.ndarray | None = None
        self._values: np.ndarray | None = None
        self._censored: np.ndarray | None = None
        self._inducing: np.ndarray | None = None
        self._m: np.ndarray | None = None
        self._log_s: np.ndarray | None = None
        self._kmm_inv: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0

    # ------------------------------------------------------------------ fitting
    def fit(self, x: np.ndarray, y: np.ndarray, censored: np.ndarray) -> "CensoredSVGP":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        censored = np.asarray(censored, dtype=bool).reshape(-1)
        if not (len(x) == len(y) == len(censored)):
            raise ModelError("x, y and censored must have matching lengths")
        if len(x) == 0:
            raise ModelError("cannot fit an SVGP on zero observations")
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        self._x = x
        self._values = (y - self._y_mean) / self._y_std
        self._censored = censored
        self._initialize_kernel()
        self._select_inducing()
        self._initialize_variational()
        self._optimize()
        return self

    def _initialize_kernel(self) -> None:
        assert self._x is not None
        if len(self._x) >= 2:
            sample = self._x[: min(len(self._x), 200)]
            dists = np.sqrt(
                np.maximum(
                    (sample**2).sum(1)[:, None] + (sample**2).sum(1)[None, :] - 2 * sample @ sample.T,
                    0.0,
                )
            )
            positive = dists[dists > 0]
            lengthscale = float(np.median(positive)) if len(positive) else 1.0
        else:
            lengthscale = 1.0
        self.kernel = self.kernel.with_params(max(lengthscale, 1e-3), 1.0)

    def _select_inducing(self) -> None:
        assert self._x is not None
        count = min(self.config.num_inducing, len(self._x))
        rng = np.random.default_rng(0)
        order = rng.permutation(len(self._x))[:count]
        self._inducing = self._x[order].copy()
        kmm = self.kernel(self._inducing, self._inducing) + self.config.jitter * np.eye(count)
        self._kmm_inv = _linalg().inv(kmm)
        self._kmm = kmm

    def _initialize_variational(self) -> None:
        assert self._inducing is not None and self._values is not None
        count = len(self._inducing)
        # Initialize the variational mean from a nearest-observation heuristic.
        self._m = np.zeros(count)
        self._log_s = np.full(count, np.log(0.5))

    # ------------------------------------------------------------------ ELBO and gradients
    def _projection(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return A = K_xm K_mm^{-1} and the diagonal of K_xx - A K_mx."""
        kxm = self.kernel(x, self._inducing)
        a = kxm @ self._kmm_inv
        k_diag = self.kernel.diag(x)
        residual = np.maximum(k_diag - np.sum(a * kxm, axis=1), 1e-10)
        return a, residual

    def _q_f(self, a: np.ndarray, residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = np.exp(self._log_s)
        mu = a @ self._m
        var = residual + (a**2) @ s
        return mu, np.maximum(var, 1e-10)

    def elbo(self) -> float:
        """Current value of the censored evidence lower bound."""
        a, residual = self._projection(self._x)
        mu, var = self._q_f(a, residual)
        expected = self._expected_log_likelihood(mu, var)[0].sum()
        return float(expected - self._kl())

    def _expected_log_likelihood(
        self, mu: np.ndarray, var: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-point expected log-likelihood and its gradients w.r.t. mu and var."""
        noise = self.config.noise_std
        values, censored = self._values, self._censored
        out = np.zeros_like(mu)
        d_mu = np.zeros_like(mu)
        d_var = np.zeros_like(mu)
        uncensored = ~censored
        if uncensored.any():
            diff = values[uncensored] - mu[uncensored]
            out[uncensored] = (
                -0.5 * np.log(2.0 * np.pi * noise**2)
                - 0.5 * (diff**2 + var[uncensored]) / noise**2
            )
            d_mu[uncensored] = diff / noise**2
            d_var[uncensored] = -0.5 / noise**2
        if censored.any():
            nodes, weights = gauss_hermite_points(self.config.quadrature_order)
            std = np.sqrt(var[censored])
            f = mu[censored, None] + std[:, None] * nodes[None, :]
            z = (values[censored, None] - f) / noise
            log_sf = norm_logsf(z)
            hazard = np.exp(norm_logpdf(z) - np.maximum(log_sf, -700.0))
            hazard = np.minimum(hazard, np.abs(z) + 40.0)
            g = log_sf @ weights
            g_prime = (hazard / noise) @ weights
            hazard_prime = hazard * (hazard - z)
            g_double_prime = (-hazard_prime / noise**2) @ weights
            out[censored] = g
            d_mu[censored] = g_prime
            d_var[censored] = 0.5 * g_double_prime
        return out, d_mu, d_var

    def _kl(self) -> float:
        s = np.exp(self._log_s)
        kmm_inv = self._kmm_inv
        trace = float(np.sum(np.diag(kmm_inv) * s))
        quad = float(self._m @ kmm_inv @ self._m)
        _, logdet_kmm = np.linalg.slogdet(self._kmm)
        logdet_s = float(np.sum(self._log_s))
        count = len(self._m)
        return 0.5 * (trace + quad - count + logdet_kmm - logdet_s)

    def _kl_gradients(self) -> tuple[np.ndarray, np.ndarray]:
        s = np.exp(self._log_s)
        grad_m = self._kmm_inv @ self._m
        grad_s = 0.5 * (np.diag(self._kmm_inv) - 1.0 / s)
        return grad_m, grad_s * s  # chain rule through log_s

    def _optimize(self, steps: int | None = None) -> None:
        steps = steps if steps is not None else self.config.train_steps
        a, residual = self._projection(self._x)
        lr = self.config.learning_rate
        m_m = np.zeros_like(self._m)
        v_m = np.zeros_like(self._m)
        m_s = np.zeros_like(self._log_s)
        v_s = np.zeros_like(self._log_s)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for step in range(1, steps + 1):
            mu, var = self._q_f(a, residual)
            _, d_mu, d_var = self._expected_log_likelihood(mu, var)
            s = np.exp(self._log_s)
            grad_m = a.T @ d_mu
            grad_log_s = ((a**2).T @ d_var) * s
            kl_m, kl_log_s = self._kl_gradients()
            # Maximize the ELBO -> ascend (expected log-lik gradient minus KL gradient).
            g_m = -(grad_m - kl_m)
            g_s = -(grad_log_s - kl_log_s)
            for grad, value, m_state, v_state in (
                (g_m, self._m, m_m, v_m),
                (g_s, self._log_s, m_s, v_s),
            ):
                m_state *= beta1
                m_state += (1 - beta1) * grad
                v_state *= beta2
                v_state += (1 - beta2) * grad**2
                m_hat = m_state / (1 - beta1**step)
                v_hat = v_state / (1 - beta2**step)
                value -= lr * m_hat / (np.sqrt(v_hat) + eps)
            np.clip(self._log_s, -10.0, 5.0, out=self._log_s)

    # ------------------------------------------------------------------ inference
    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation in the original y units."""
        self._require_fit()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        a, residual = self._projection(x)
        mu, var = self._q_f(a, residual)
        return mu * self._y_std + self._y_mean, np.sqrt(var) * self._y_std

    def posterior_samples(self, x: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
        """Posterior function samples at ``x`` (independent across points).

        Sampling the inducing values jointly and pushing them through the
        projection keeps correlations induced by shared inducing points.
        """
        self._require_fit()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        a, residual = self._projection(x)
        s = np.exp(self._log_s)
        u_samples = self._m[None, :] + rng.standard_normal((count, len(self._m))) * np.sqrt(s)[None, :]
        means = u_samples @ a.T
        noise = rng.standard_normal((count, len(x))) * np.sqrt(residual)[None, :]
        return (means + noise) * self._y_std + self._y_mean

    def fantasize(
        self, x_new: np.ndarray, censor_level: float, x_query: np.ndarray, steps: int = 25
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior at ``x_query`` after conditioning on a censored pseudo-observation.

        Implements the "a few additional iterations of SGD" strategy from the
        paper: the new censored point is appended and the variational
        parameters are updated for a handful of steps, warm-started from the
        current fit, then restored.
        """
        self._require_fit()
        saved = (self._x, self._values, self._censored, self._m.copy(), self._log_s.copy())
        try:
            self._x = np.vstack([self._x, np.atleast_2d(x_new)])
            self._values = np.concatenate(
                [self._values, [(censor_level - self._y_mean) / self._y_std]]
            )
            self._censored = np.concatenate([self._censored, [True]])
            self._optimize(steps=steps)
            return self.predict(x_query)
        finally:
            self._x, self._values, self._censored, self._m, self._log_s = saved

    def _require_fit(self) -> None:
        if self._x is None or self._m is None:
            raise ModelError("the SVGP has not been fit yet")

    @property
    def num_observations(self) -> int:
        return 0 if self._x is None else len(self._x)

    @property
    def num_censored(self) -> int:
        return 0 if self._censored is None else int(self._censored.sum())
