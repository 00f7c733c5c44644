"""Right-censored (Tobit) observation utilities.

A timed-out query plan is a right-censored observation: we only learn that its
latency exceeds the applied timeout (paper Section 4.3).  This module collects
the Tobit likelihood pieces shared by the surrogates:

* the censored log-likelihood ``log phi(z)^(1-I) (1 - Phi(z))^I``,
* the truncated-normal mean used by the EM-style imputation of Hutter et al.,
* Gauss-Hermite quadrature of ``E_q [log(1 - Phi(z))]`` and its derivatives,
  used by the censored SVGP ELBO of Section 4.3.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special, stats

_LOG_SQRT_2PI = np.log(np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class Observation:
    """One (input, response) pair; ``censored`` means ``value`` is a lower bound."""

    x: np.ndarray
    value: float
    censored: bool = False


def tobit_log_likelihood(
    values: np.ndarray, censored: np.ndarray, mean: np.ndarray, std: np.ndarray
) -> float:
    """Total Tobit log-likelihood of observations under N(mean, std^2).

    Uncensored points contribute the Gaussian density; censored points
    contribute the survival function ``1 - Phi``.
    """
    std = np.maximum(std, 1e-9)
    z = (values - mean) / std
    uncensored = ~censored
    total = 0.0
    if uncensored.any():
        total += float(np.sum(stats.norm.logpdf(values[uncensored], mean[uncensored], std[uncensored])))
    if censored.any():
        total += float(np.sum(stats.norm.logsf(z[censored])))
    return total


def truncated_normal_mean(mu: np.ndarray, sigma: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """E[Y | Y >= lower] for Y ~ N(mu, sigma^2) (the EM imputation target)."""
    sigma = np.maximum(np.asarray(sigma, dtype=np.float64), 1e-9)
    alpha = (np.asarray(lower, dtype=np.float64) - mu) / sigma
    # Hazard (inverse Mills ratio) pdf/sf, computed stably in log space:
    # log pdf = -alpha^2/2 - log sqrt(2 pi), log sf = log_ndtr(-alpha).
    with np.errstate(invalid="ignore", over="ignore"):
        hazard = np.exp(-(alpha**2) / 2.0 - _LOG_SQRT_2PI - special.log_ndtr(-alpha))
    # Far in the upper tail the ratio overflows; use the asymptotic hazard ~ alpha.
    asymptotic = np.maximum(alpha, 0.0) + 1.0 / np.maximum(np.abs(alpha), 1.0)
    hazard = np.where(np.isfinite(hazard), hazard, asymptotic)
    return mu + sigma * hazard


def gauss_hermite_points(order: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes/weights rescaled for Gaussian expectations."""
    nodes, weights = special.roots_hermite(order)
    return nodes * np.sqrt(2.0), weights / np.sqrt(np.pi)


def expected_log_survival(
    mu: np.ndarray, var: np.ndarray, threshold: np.ndarray, noise_std: float, order: int = 20
) -> np.ndarray:
    """``E_{f ~ N(mu, var)}[log(1 - Phi((threshold - f)/noise_std))]`` by quadrature.

    This is the censored term of the SVGP ELBO (Section 4.3.1).
    """
    nodes, weights = gauss_hermite_points(order)
    std = np.sqrt(np.maximum(var, 1e-12))
    f = mu[:, None] + std[:, None] * nodes[None, :]
    z = (threshold[:, None] - f) / max(noise_std, 1e-9)
    log_sf = stats.norm.logsf(z)
    return log_sf @ weights


def expected_log_density(
    mu: np.ndarray, var: np.ndarray, value: np.ndarray, noise_std: float
) -> np.ndarray:
    """``E_{f ~ N(mu, var)}[log N(value; f, noise_std^2)]`` in closed form."""
    noise_var = max(noise_std, 1e-9) ** 2
    return (
        -0.5 * np.log(2.0 * np.pi * noise_var)
        - 0.5 * ((value - mu) ** 2 + np.maximum(var, 0.0)) / noise_var
    )


def censored_elbo_terms(
    mu: np.ndarray,
    var: np.ndarray,
    values: np.ndarray,
    censored: np.ndarray,
    noise_std: float,
    order: int = 20,
) -> float:
    """Expected log-likelihood part of the censored SVGP ELBO.

    Splits observations into uncensored (analytic Gaussian expectation) and
    censored (Gauss-Hermite quadrature of the log survival function), exactly
    as the derivation in the paper does.
    """
    total = 0.0
    uncensored = ~censored
    if uncensored.any():
        total += float(
            np.sum(expected_log_density(mu[uncensored], var[uncensored], values[uncensored], noise_std))
        )
    if censored.any():
        total += float(
            np.sum(
                expected_log_survival(
                    mu[censored], var[censored], values[censored], noise_std, order=order
                )
            )
        )
    return total
