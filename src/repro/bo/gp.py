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
runs L-BFGS-B on analytic marginal-likelihood gradients), ``add_observation``
extends the Cholesky factor with a rank-1 update in O(n^2), and
``fantasize``/``fantasize_batch`` condition on a hypothetical observation in
closed form (the Schur complement of the extension that observation would
make) instead of cloning and refitting the model.

The linear algebra is LAPACK called with the arguments scipy's wrappers pass
(every float is theirs) minus their per-call Python: ``potrf`` factorizes (a
fit, the joint covariance of ``posterior_samples``), ``potrs`` solves for
``alpha``, ``trtrs`` is the forward substitution of ``predict``, the samplers,
the rank-1 extension of ``add_observation`` and a fantasy's one solve (the new
point's kernel row, the queries', ``y`` and a column of ones together; the
conditioning itself is closed-form arithmetic on what it returns, with no
extended factor and no solve per fantasized value), ``potri`` inverts for the
likelihood gradient.
Every call checks its arguments finite, as the wrappers did (``_lapack``),
except the likelihood objective's, which reads ``potrf``'s ``info`` instead.

A full refit does its input-only work once.  The hyper-parameter search drives
scipy's L-BFGS-B step routine ``setulb`` in a loop of its own
(``_minimize_lbfgsb``): the arguments and the iterates of scipy's
``minimize(method="L-BFGS-B")``, without its per-evaluation wrappers.
That routine is a private scipy extension, so scipy is pinned to a minor
release.  The censored EM loop computes the censored points' kernel rows and
variance solve once (``ExactGP.predictor``); its iterations change only the
responses.

scipy is loaded at a GP's first fit or solve, not with this module
(``_scipy``), and only the two compiled modules the GP calls:
``scipy.linalg._flapack`` and ``scipy.optimize._lbfgsb``, each loaded
without its package (``utils.blas.scipy_extension``).  The routines are the
objects ``linalg.get_lapack_funcs(..., dtype=float64)`` returns, so every
float is the same; the packages themselves (with the ``sparse``,
``spatial`` and ``fft`` that ``scipy.optimize`` pulls in) are never
imported.  The load costs a first fit ~0.015 s and ~6 MiB, where the
packages cost ~0.3 s and ~42 MiB.  The constructor touches nothing of
scipy's, so an unpickled GP loads it at its first call like a new one.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.bo.censored import truncated_normal_mean
from repro.bo.kernels import Kernel, Matern52Kernel, pairwise_sqdist
from repro.exceptions import ModelError
from repro.utils.blas import scipy_extension

#: Jitter added to the noise variance to keep the covariance factorizable.
_JITTER = 1e-8


class _Scipy(NamedTuple):
    """The scipy routines the GP calls."""

    potrf: Callable
    potri: Callable
    potrs: Callable
    trtrs: Callable
    setulb: Callable


@functools.cache
def _scipy() -> _Scipy:
    """scipy's LAPACK routines and L-BFGS-B step, loaded and fetched at the first call.

    Held here, not on the GP: surrogates ride inside pickled checkpoints.  An
    OpenBLAS the load links inside a one-thread guard is pinned with the rest.
    """
    flapack = scipy_extension("linalg", "_flapack", "dpotrf", "dpotri", "dpotrs", "dtrtrs")
    lbfgsb = scipy_extension("optimize", "_lbfgsb", "setulb")
    return _Scipy(flapack.dpotrf, flapack.dpotri, flapack.dpotrs, flapack.dtrtrs, lbfgsb.setulb)


def _lapack(routine, *arrays: np.ndarray, **options) -> np.ndarray:
    """``routine`` as scipy's wrapper calls it: finite arrays in, a non-zero ``info`` raised.

    A failed pivot raises ``np.linalg.LinAlgError``, which is the class
    ``scipy.linalg.LinAlgError`` names.
    """
    result, info = routine(*map(np.asarray_chkfinite, arrays), **options)
    if info != 0:  # a failed pivot at ``info``, or an illegal argument ``-info``
        raise (np.linalg.LinAlgError if info > 0 else ValueError)(f"LAPACK returned info={info}")
    return result


#: The box L-BFGS-B searches, in ``log(lengthscale, outputscale, noise)``.
_LOG_LOWER = np.array([-3.0, -4.0, -8.0])
_LOG_UPPER = np.array([3.0, 4.0, 1.0])
#: Iteration cap of a hyper-parameter search.
_MAX_ITERATIONS = 40


def _minimize_lbfgsb(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]], start: np.ndarray
) -> np.ndarray:
    """scipy's ``minimize(objective, start, method="L-BFGS-B", jac=True,
    bounds=[(-3, 3), (-4, 4), (-8, 1)], options={"maxiter": 40}).x``, bit for bit.

    The loop scipy's own ``_minimize_lbfgsb`` runs over ``setulb``, with its
    arguments (``m=10``, ``factr = ftol / eps`` at the default ``ftol``,
    ``pgtol=1e-5``, ``maxls=20``, the start clipped into the box), minus the
    per-evaluation ``ScalarFunction``/``MemoizeJac`` layers and the result
    object.  Their one visible effect is kept: a point equal to the last one
    evaluated is answered from it, not evaluated again.  The 15000-evaluation
    limit is left out: 40 iterations of at most two 20-step line searches each
    cannot reach it.
    """
    m, n = 10, len(start)
    x = np.clip(start, _LOG_LOWER, _LOG_UPPER)
    bounded = np.full(n, 2, np.int32)  # nbd: a lower and an upper bound
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    factr = 2.2204460492503131e-09 / np.finfo(float).eps
    evaluated, iterations, setulb = None, 0, _scipy().setulb
    while True:
        setulb(m, x, _LOG_LOWER, _LOG_UPPER, bounded, f, g, factr, 1e-5,
               wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # FG: the objective at ``x``
            if evaluated != (point := x.tolist()):
                evaluated = point
                f, g = objective(np.array(point))
        elif task[0] == 1:  # NEW_X: an iteration is done
            iterations += 1
            if iterations >= _MAX_ITERATIONS:
                task[0], task[1] = 5, 504  # STOP: the iteration limit, handed back
        else:  # CONVERGENCE, STOP, or a WARNING/ERROR/ABNORMAL code
            return x


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``chol @ x = b``; a C-ordered factor (a rank-1 extended one) is solved transposed."""
    trtrs = _scipy().trtrs
    if chol.flags.f_contiguous:
        return _lapack(trtrs, chol, b, lower=True)
    return _lapack(trtrs, chol.T, b, lower=False, trans=1)


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
        lapack = _scipy()
        self._chol = _lapack(lapack.potrf, cov, lower=True, clean=True)
        self._alpha = _lapack(lapack.potrs, self._chol, self._y, lower=True)

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
        lapack = _scipy()
        chol, info = lapack.potrf(cov.T, lower=True, overwrite_a=True)
        if info != 0:
            return 1e10, np.zeros(3)
        alpha, _ = lapack.potrs(chol, self._y, lower=True)
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
        inverse, _ = lapack.potri(chol, lower=True, overwrite_c=True)
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
        """L-BFGS-B on the marginal likelihood, started at the current hyper-parameters.

        On a fitted model those are the previous optimum, so a refit continues
        from it instead of starting over from the defaults.  ``_minimize_lbfgsb``
        drives scipy's ``setulb`` directly, with the arguments and floats of
        scipy's ``minimize``; it is handed the objective as looked up now, so
        a counter patched onto the class sees every evaluation.
        """
        initial = np.log([self.kernel.lengthscale, self.kernel.outputscale, self.noise])
        lengthscale, outputscale, noise = np.exp(
            _minimize_lbfgsb(self._negative_log_marginal, initial)
        )
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
        self._alpha = _lapack(_scipy().potrs, self._chol, self._y, lower=True)
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
        self._alpha = _lapack(_scipy().potrs, self._chol, self._y, lower=True)
        return self

    # ------------------------------------------------------------------ inference
    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation (in the original y units)."""
        return self.predictor(x)()

    def predictor(self, x: np.ndarray) -> Callable[[], tuple[np.ndarray, np.ndarray]]:
        """``predict(x)`` as a callable that follows ``update_targets``.

        The kernel rows of ``x`` and the forward solve for its variance depend
        on the inputs, the hyper-parameters and the factor only, so they are
        computed here, once; each call applies the responses' current
        ``alpha``, centre and scale to them.  Valid until the factor changes
        (``fit`` or ``add_observation``).
        """
        self._require_fit()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        cross = self.kernel(x, self._x)
        v = _solve_lower(self._chol, cross.T)
        root_var = np.sqrt(np.maximum(self.kernel.diag(x) - np.sum(v**2, axis=0), 1e-12))
        return lambda: (cross @ self._alpha * self._y_std + self._y_mean, root_var * self._y_std)

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
            chol = _lapack(_scipy().potrf, cov, lower=True, clean=True)
        except np.linalg.LinAlgError:
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
        old clone-and-refit path, which re-standardizes the responses each
        time), but the extended factor is never built: its Schur complement
        gives every quantity in closed form.  With ``L`` the cached factor,
        ``k`` the kernel row of ``x_new`` and ``c`` a query's,

        * ``l = L^-1 k``, ``v = L^-1 c``, ``s^2 = k(x,x) - l.l`` (the
          posterior variance at ``x_new``), ``p = s^2 + noise`` (the
          extension's pivot) and ``w = (k(q,x) - l.v) / sqrt(p)``;
        * the fantasized variance is ``k(q,q) - v.v - w^2``, whatever ``y``;
        * with ``z_y = L^-1 y`` and ``z_1 = L^-1 1``, the current posterior
          means are ``m(x) ~ l.z_y`` and ``m(q) ~ v.z_y``, and a value ``y``
          whose augmented responses' centre is ``d`` above the fitted one has
          the mean ``m(q) + (w / sqrt(p)) (y - m(x)) + d (1 - v.z_1 -
          (w / sqrt(p)) (1 - l.z_1))``: O(1) per value;
        * the augmented centre and scale come from the fitted responses'
          centred sums.

        One kernel call and one forward solve (``k``, every ``c``, ``y`` and
        ``1`` as its columns) serve all B values and Q query points.
        Returns arrays of shape ``(B, Q)``.
        """
        y_values = np.asarray(y_values, dtype=np.float64).reshape(-1)
        return self._fantasize(x_new, x_query, lambda mean, std: y_values)

    def _fantasize(
        self, x_new: np.ndarray, x_query: np.ndarray,
        responses: Callable[[float, float], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """``fantasize_batch`` on the values ``responses(mean, std)`` returns
        for the posterior at ``x_new``, which the same solve yields."""
        self._require_fit()
        x_new = np.asarray(x_new, dtype=np.float64).reshape(1, -1)
        x_query = np.atleast_2d(np.asarray(x_query, dtype=np.float64))
        n, count = len(self._x), len(x_query)
        # Row 0 is x_new, rows 1.. the queries; column n is each against x_new.
        cross = self.kernel(np.vstack([x_new, x_query]), np.vstack([self._x, x_new]))
        rhs = np.empty((n, count + 3), order="F")
        rhs[:, : count + 1] = cross[:, :n].T
        rhs[:, -2] = self._y
        rhs[:, -1] = 1.0
        solved = _solve_lower(self._chol, rhs)
        l12, v, z_y, z_1 = solved[:, 0], solved[:, 1:-2], solved[:, -2], solved[:, -1]
        prior_var = float(self.kernel.diag(x_new)[0]) - l12 @ l12
        mean = float(l12 @ z_y) * self._y_std + self._y_mean
        std = np.sqrt(max(prior_var, 1e-12)) * self._y_std
        y_values = np.asarray_chkfinite(np.asarray(responses(mean, std), dtype=np.float64))
        root = np.sqrt(max(prior_var + self.noise + _JITTER, 1e-10))
        gain = (cross[1:, n] - l12 @ v) / root
        var = np.maximum(self.kernel.diag(x_query) - np.sum(v**2, axis=0) - gain**2, 1e-12)
        weight = gain / root
        unexplained = 1.0 - z_1 @ v - weight * (1.0 - l12 @ z_1)
        # The augmented responses' centre (``y_mean + shift``) and scale.
        centred = self._y_raw - self._y_mean
        offset = y_values - self._y_mean
        total = centred.sum() + offset
        shift = total / (n + 1)
        squares = centred @ centred + offset**2 - total * shift
        scale = np.sqrt(np.maximum(squares, 0.0) / (n + 1))
        scale = np.where(scale == 0.0, 1.0, scale)
        current = self._y_mean + self._y_std * (z_y @ v)
        means = current[None, :] + np.outer(y_values - mean, weight) + np.outer(shift, unexplained)
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
        """Fit the GP on the raw responses, then run the EM loop.

        Inputs and hyper-parameters stay fixed inside the loop, so the
        censored points' kernel rows and posterior variance are computed once
        (``ExactGP.predictor``); an EM step is a matrix-vector product, the
        imputation and an O(n^2) ``update_targets``.
        """
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
        posterior, lower = self.gp.predictor(x[censored]), y[censored]
        for _ in range(self.em_iterations):
            mean, std = posterior()
            imputed[censored] = truncated_normal_mean(mean, std, lower)
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
        the imputations all derive from the posterior at ``x_new``, which the
        conditioning's own forward solve yields (``ExactGP.fantasize_batch``
        has the identities), so a call is one kernel evaluation and one solve.
        """
        censor_levels = np.asarray(censor_levels, dtype=np.float64).reshape(-1)
        return self.gp._fantasize(
            x_new, x_query, lambda mean, std: truncated_normal_mean(mean, std, censor_levels)
        )

    @property
    def num_observations(self) -> int:
        return self.gp.num_observations

    @property
    def num_censored(self) -> int:
        return 0 if self._censored is None else int(self._censored.sum())
