"""Tests for kernels, the exact GP and the censored GP, and the surrogate oracle.

The oracle cases check the production likelihood objective, the warm full
refit, the rank-1 updates and the imputation against the dense reference in
``tests/oracles/reference_gp.py``.
"""

import copy
import itertools
import json
import math
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_gp
from scipy import linalg, stats

import repro.bo.gp as gp_module
from repro.bo.acquisition import expected_improvement
from repro.bo.censored import (
    censored_elbo_terms,
    expected_log_survival,
    norm_cdf,
    norm_logpdf,
    norm_logsf,
    norm_pdf,
    tobit_log_likelihood,
    truncated_normal_mean,
)
from repro.bo.gp import CensoredGP, ExactGP
from repro.bo.kernels import Kernel, Matern52Kernel, RBFKernel, pairwise_sqdist
from repro.bo.loop import BOEngine, BOEngineConfig
from repro.core.timeout import UncertaintyTimeout
from repro.exceptions import ModelError


class TestKernels:
    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    def test_diagonal_is_outputscale(self, kernel_cls, rng):
        kernel = kernel_cls(lengthscale=0.5, outputscale=2.0)
        x = rng.standard_normal((6, 3))
        matrix = kernel(x, x)
        assert np.allclose(np.diag(matrix), 2.0)
        assert np.allclose(kernel.diag(x), 2.0)

    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    def test_symmetry_and_psd(self, kernel_cls, rng):
        kernel = kernel_cls()
        x = rng.standard_normal((10, 4))
        matrix = kernel(x, x)
        assert np.allclose(matrix, matrix.T)
        eigenvalues = np.linalg.eigvalsh(matrix + 1e-9 * np.eye(10))
        assert (eigenvalues > -1e-8).all()

    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    def test_decay_with_distance(self, kernel_cls):
        kernel = kernel_cls(lengthscale=1.0)
        near = kernel(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = kernel(np.array([[0.0]]), np.array([[3.0]]))[0, 0]
        assert near > far

    def test_invalid_hyperparameters(self):
        with pytest.raises(ModelError):
            RBFKernel(lengthscale=-1.0)
        with pytest.raises(ModelError):
            Matern52Kernel(outputscale=0.0)

    def test_with_params(self):
        kernel = RBFKernel().with_params(2.0, 3.0)
        assert kernel.lengthscale == 2.0 and kernel.outputscale == 3.0


class TestExactGP:
    def objective(self, x):
        return np.sin(3 * x).ravel()

    def test_fit_and_interpolate(self, rng):
        x = np.linspace(0, 2, 25).reshape(-1, 1)
        y = self.objective(x)
        gp = ExactGP().fit(x, y)
        mean, std = gp.predict(x)
        assert np.max(np.abs(mean - y)) < 0.2
        assert (std >= 0).all()

    def test_uncertainty_grows_away_from_data(self, rng):
        x = np.linspace(0, 1, 15).reshape(-1, 1)
        gp = ExactGP().fit(x, self.objective(x))
        _, std_in = gp.predict(np.array([[0.5]]))
        _, std_out = gp.predict(np.array([[3.0]]))
        assert std_out[0] > std_in[0]

    def test_posterior_samples_shape_and_spread(self, rng):
        x = np.linspace(0, 1, 10).reshape(-1, 1)
        gp = ExactGP().fit(x, self.objective(x))
        samples = gp.posterior_samples(np.array([[0.2], [2.0]]), 64, rng)
        assert samples.shape == (64, 2)
        assert samples[:, 1].std() > samples[:, 0].std()

    def test_fantasize_pulls_mean(self, rng):
        x = np.linspace(0, 1, 10).reshape(-1, 1)
        gp = ExactGP().fit(x, self.objective(x))
        target = np.array([[2.0]])
        before, _ = gp.predict(target)
        after, _ = gp.fantasize(target[0], 5.0, target)
        assert after[0] > before[0]

    def test_requires_fit(self):
        with pytest.raises(ModelError):
            ExactGP().predict(np.array([[0.0]]))

    def test_zero_observations_rejected(self):
        with pytest.raises(ModelError):
            ExactGP().fit(np.zeros((0, 2)), np.zeros(0))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ModelError):
            ExactGP().fit(np.zeros((3, 1)), np.zeros(2))

    def test_num_observations(self, rng):
        x = rng.standard_normal((7, 2))
        gp = ExactGP().fit(x, rng.standard_normal(7))
        assert gp.num_observations == 7


class TestCensoredHelpers:
    def test_truncated_normal_mean_above_threshold(self):
        mean = truncated_normal_mean(np.array([0.0]), np.array([1.0]), np.array([1.0]))
        assert mean[0] > 1.0

    def test_truncated_normal_mean_far_below_threshold(self):
        mean = truncated_normal_mean(np.array([0.0]), np.array([1.0]), np.array([-10.0]))
        assert mean[0] == pytest.approx(0.0, abs=0.01)

    def test_tobit_likelihood_censoring_increases_likelihood_above(self):
        values = np.array([1.0])
        censored = np.array([True])
        high_mean = tobit_log_likelihood(values, censored, np.array([3.0]), np.array([1.0]))
        low_mean = tobit_log_likelihood(values, censored, np.array([-3.0]), np.array([1.0]))
        assert high_mean > low_mean

    def test_expected_log_survival_monotone_in_mean(self):
        threshold = np.array([0.0, 0.0])
        values = expected_log_survival(np.array([2.0, -2.0]), np.array([0.5, 0.5]), threshold, 0.5)
        assert values[0] > values[1]

    def test_censored_elbo_combines_terms(self):
        mu = np.array([0.0, 1.0])
        var = np.array([0.1, 0.1])
        values = np.array([0.0, 0.5])
        both = censored_elbo_terms(mu, var, values, np.array([False, True]), noise_std=0.3)
        uncensored_only = censored_elbo_terms(mu[:1], var[:1], values[:1], np.array([False]), 0.3)
        assert both < uncensored_only + 1.0  # censored term adds a (negative) log-survival


class TestCensoredGP:
    def test_censoring_raises_posterior_mean(self, rng):
        x = np.linspace(0, 1, 12).reshape(-1, 1)
        y = np.zeros(12)
        censored = np.zeros(12, dtype=bool)
        # The last three observations are "at least 2.0" (timed out at 2.0).
        y[-3:] = 2.0
        censored[-3:] = True
        gp = CensoredGP().fit(x, y, censored)
        mean, _ = gp.predict(x[-3:])
        assert (mean > 1.0).all()

    def test_no_censoring_matches_exact_gp(self, rng):
        x = np.linspace(0, 1, 10).reshape(-1, 1)
        y = np.sin(x).ravel()
        censored = np.zeros(10, dtype=bool)
        censored_gp = CensoredGP().fit(x, y, censored)
        exact = ExactGP().fit(x, y)
        mean_c, _ = censored_gp.predict(x)
        mean_e, _ = exact.predict(x)
        assert np.allclose(mean_c, mean_e, atol=0.05)

    def test_fantasize_censored(self, rng):
        x = np.linspace(0, 1, 10).reshape(-1, 1)
        gp = CensoredGP().fit(x, np.sin(x).ravel(), np.zeros(10, dtype=bool))
        point = np.array([[0.5]])
        before, _ = gp.predict(point)
        after, _ = gp.fantasize(point[0], 3.0, point)
        assert after[0] > before[0]

    def test_counts(self, rng):
        x = rng.standard_normal((6, 2))
        gp = CensoredGP().fit(x, rng.standard_normal(6), np.array([True, False, False, True, False, False]))
        assert gp.num_observations == 6
        assert gp.num_censored == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ModelError):
            CensoredGP().fit(np.zeros((3, 1)), np.zeros(3), np.zeros(2, dtype=bool))


# ------------------------------------------------------------------ surrogate oracle
def _objective_gp(kernel_cls, x: np.ndarray, y: np.ndarray) -> ExactGP:
    """An ``ExactGP`` holding just what its likelihood objective reads."""
    gp = ExactGP(kernel=kernel_cls())
    gp._sqdist = pairwise_sqdist(x, x)
    gp._y = (y - y.mean()) / y.std()
    return gp


def _random_points(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.random((n, 8)), rng.standard_normal(n)


def _near_duplicate_points(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs 1e-9 apart: what duplicate replays in a shrunken trust region produce."""
    x, y = _random_points(n, seed)
    rng = np.random.default_rng(seed + 1)
    half = n // 2
    x[half : 2 * half] = x[:half] + 1e-9 * rng.standard_normal((half, 8))
    y[half : 2 * half] = y[:half] + 1e-3 * rng.standard_normal(half)
    return x, y


def _assert_objective_matches(gp: ExactGP, params: np.ndarray) -> None:
    value, grad = gp._negative_log_marginal(params)
    ref_value, ref_grad = reference_gp.negative_log_marginal(gp.kernel, gp._sqdist, gp._y, params)
    assert value == pytest.approx(ref_value, rel=1e-9)
    # Relative to the largest component: where the covariance is conditioned
    # like 1e8, the small components of *both* gradients are cancellation
    # residue of terms that size, and neither is right to 1e-9 of itself.
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-9, atol=1e-9 * np.abs(ref_grad).max())


class TestLikelihoodObjectiveOracle:
    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    @pytest.mark.parametrize("n", [3, 40, 176])
    @pytest.mark.parametrize("points", [_random_points, _near_duplicate_points])
    def test_value_and_gradient_match_dense_reference(self, kernel_cls, n, points):
        gp = _objective_gp(kernel_cls, *points(n, seed=n))
        rng = np.random.default_rng(n)
        lows, highs = np.array(reference_gp.LOG_BOUNDS).T
        for params in rng.uniform(lows, highs, size=(12, 3)):
            _assert_objective_matches(gp, params)

    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    @pytest.mark.parametrize("n", [3, 40, 176])
    def test_matches_at_the_corners_of_the_lbfgs_box(self, kernel_cls, n):
        gp = _objective_gp(kernel_cls, *_random_points(n, seed=7))
        for corner in itertools.product(*reference_gp.LOG_BOUNDS):
            _assert_objective_matches(gp, np.array(corner))

    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    def test_gradient_matches_central_differences(self, kernel_cls):
        gp = _objective_gp(kernel_cls, *_random_points(40, seed=3))
        params, eps = np.array([-0.4, 0.3, -3.0]), 1e-5
        _, grad = gp._negative_log_marginal(params)
        for i in range(3):
            step = np.zeros(3)
            step[i] = eps
            up, down = (gp._negative_log_marginal(params + s)[0] for s in (step, -step))
            assert grad[i] == pytest.approx((up - down) / (2 * eps), rel=1e-6, abs=1e-7)

    def test_non_factorizable_covariance_is_a_wall_not_an_error(self):
        # Indefinite "distances" no kernel input produces: the Gram matrix has
        # a negative eigenvalue far beyond what noise and jitter lift.
        gp = _objective_gp(RBFKernel, *_random_points(6, seed=0))
        gp._sqdist = -50.0 * (1.0 - np.eye(6))
        value, grad = gp._negative_log_marginal(np.zeros(3))
        assert value == 1e10
        assert np.array_equal(grad, np.zeros(3))

    def test_nothing_rides_on_the_pickled_gp(self):
        x, y = _random_points(20, seed=1)
        fitted = ExactGP().fit(x, y)
        assert set(vars(fitted)) == set(vars(ExactGP()))
        clone = pickle.loads(pickle.dumps(fitted))
        assert np.array_equal(clone.predict(x)[0], fitted.predict(x)[0])


def _poisoned(array, bad: float) -> np.ndarray:
    array = np.array(array, dtype=np.float64)
    array.flat[0] = bad
    return array


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """The factorization as ``ExactGP`` spells it."""
    return gp_module._lapack(gp_module._scipy().potrf, cov, lower=True, clean=True)


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solve against a factor as ``ExactGP`` spells it."""
    return gp_module._lapack(gp_module._scipy().potrs, chol, b, lower=True)


class TestLapackDirect:
    """The GP calls LAPACK itself; every float and every error is scipy's wrapper's."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_solves_equal_the_scipy_wrappers_float_for_float(self, order):
        rng = np.random.default_rng(24)
        for n in range(1, 65):
            root = rng.standard_normal((n, n))
            cov = np.asarray(root @ root.T + n * np.eye(n), order=order)
            chol = _cholesky(cov)
            reference = linalg.cholesky(cov, lower=True)
            assert np.array_equal(chol, reference) and chol.flags == reference.flags
            # A fresh factor is Fortran-ordered, a rank-1 extended one
            # C-ordered: trtrs takes them through different argument sets.
            chol = np.asarray(chol, order=order)
            for b in (rng.standard_normal(n), rng.standard_normal((n, 5)),
                      np.asfortranarray(rng.standard_normal((n, 3))), rng.standard_normal((7, n)).T):
                for ours, theirs in (
                    (gp_module._solve_lower(chol, b), linalg.solve_triangular(chol, b, lower=True)),
                    (_cho_solve(chol, b), linalg.cho_solve((chol, True), b)),
                ):
                    assert np.array_equal(ours, theirs)
                    assert ours.flags.f_contiguous == theirs.flags.f_contiguous  # reductions read it

    def test_info_codes_raise_what_the_wrappers_raise(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            linalg.cholesky(indefinite, lower=True)
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky(indefinite)
        singular = np.array([[1.0, 0.0], [1.0, 0.0]])
        for order in ("C", "F"):
            factor = np.asarray(singular, order=order)
            with pytest.raises(np.linalg.LinAlgError):
                linalg.solve_triangular(factor, np.ones(2), lower=True)
            with pytest.raises(np.linalg.LinAlgError):
                gp_module._solve_lower(factor, np.ones(2))

    def test_non_pd_covariance_raises_out_of_factorize_and_falls_back_in_sampling(self):
        gp = _objective_gp(RBFKernel, *_random_points(6, seed=0))
        gp._sqdist = -50.0 * (1.0 - np.eye(6))
        with pytest.raises(np.linalg.LinAlgError):
            gp._factorize()
        # A negative "jitter" makes the joint covariance indefinite: the draws
        # come from its clipped diagonal instead.
        x, y = _random_points(12, seed=3)
        gp = ExactGP().fit(x, y)
        query = np.random.default_rng(4).random((5, x.shape[1]))
        samples = gp.posterior_samples(query, 3, np.random.default_rng(9), jitter=-10.0)
        mean, _ = gp.predict(query)
        draws = np.random.default_rng(9).standard_normal((3, 5))
        centred = (mean - gp._y_mean) / gp._y_std
        expected = (centred[None, :] + draws * np.sqrt(1e-12)) * gp._y_std + gp._y_mean
        np.testing.assert_allclose(samples, expected, rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_at_the_public_call_it_enters_by(self, bad):
        # What the parent of PR 24 did, call by call (scipy's wrappers
        # validated every argument; so do the direct calls).
        rng = np.random.default_rng(0)
        x, y, query = rng.random((8, 3)), rng.standard_normal(8), rng.random((4, 3))
        censored = np.arange(8) % 3 == 0
        levels = np.array([0.1, 0.2])

        def exact():
            return ExactGP().fit(x, y)

        def tobit():
            return CensoredGP().fit(x, y, censored)

        raising = [
            lambda: ExactGP().fit(_poisoned(x, bad), y),
            lambda: ExactGP().fit(x, _poisoned(y, bad)),
            lambda: ExactGP().fit(_poisoned(x, bad), y, optimize_hyperparameters=False),
            lambda: exact().update_targets(_poisoned(y, bad)),
            lambda: exact().add_observation(_poisoned(query[0], bad), 0.3),
            lambda: exact().add_observation(query[0], bad),
            lambda: exact().predict(_poisoned(query, bad)),
            lambda: exact().posterior_samples(_poisoned(query, bad), 2, rng),
            lambda: exact().fantasize_batch(_poisoned(query[0], bad), levels, query),
            lambda: exact().fantasize_batch(query[0], _poisoned(levels, bad), query),
            lambda: exact().fantasize_batch(query[0], levels, _poisoned(query, bad)),
            lambda: CensoredGP().fit(_poisoned(x, bad), y, censored),
            lambda: CensoredGP().fit(x, _poisoned(y, bad), censored),  # y[0] is censored
            lambda: tobit().add_observation(_poisoned(query[0], bad), 0.2, censored=True),
            lambda: tobit().fantasize(query[0], 0.3, _poisoned(query, bad)),
        ]
        # Censored at -inf says nothing: the imputation is the posterior mean.
        censor_levels = [
            lambda: tobit().add_observation(query[0], bad, censored=True),
            lambda: tobit().fantasize(query[0], bad, query),
        ]
        with np.errstate(all="ignore"):
            for call in raising + ([] if bad == -np.inf else censor_levels):
                with pytest.raises(ValueError):
                    call()
            if bad == -np.inf:
                for call in censor_levels:
                    call()


STREAMS = Path(__file__).parent / "data" / "replay_streams.npz"


def _recorded_config(data) -> BOEngineConfig:
    """The engine configuration the streams were recorded under."""
    config = json.loads(str(data["engine_config"]))
    # Recorded with one Thompson draw per candidate, since then the only
    # acquisition (the field is gone).
    assert config.pop("thompson_samples") == 1
    return BOEngineConfig(**config)


def _recorded_stream(name: str) -> BOEngine:
    """A stream BayesQO fed its surrogate before PR 16, frozen at that commit.

    Recorded on the two ``tiny_workload`` queries at a budget above their plan
    space (B=35, 64 candidates, seed 0), when a BO iteration that decoded to
    a plan already executed replayed its (mostly censored) outcome into the
    surrogate under the new latent point.  The driver no longer produces
    such streams; as a test bed for the surrogate they are as hard as ever.
    """
    with np.load(STREAMS) as data:
        engine = BOEngine(
            data[f"{name}_lower"], data[f"{name}_upper"],
            config=_recorded_config(data), seed=0,
        )
        for x, y, censored in zip(data[f"{name}_x"], data[f"{name}_y"], data[f"{name}_censored"]):
            engine.add_observation(x, y, censored)
    return engine


@pytest.fixture(scope="module")
def replay_stream():
    """The four-table query's stream: one likelihood mode from start to end."""
    return _recorded_stream("replay")


@pytest.fixture(scope="module")
def bimodal_stream():
    """The three-table query's stream: two likelihood modes while n < 40."""
    return _recorded_stream("bimodal")


def _replay(recorded: BOEngine):
    """Replay a recorded stream through a fresh engine, one observation at a
    time; yields the engine after every full refit, with the hyper-parameters
    the surrogate held going in (``None`` at the first fit)."""
    xs, ys, censored = recorded.observations()
    engine = BOEngine(recorded.lower, recorded.upper, config=recorded.config, seed=0)
    for count, (x, y, flag) in enumerate(zip(xs, ys, censored), start=1):
        engine.add_observation(x, y, flag)
        if count < 5:  # the initialization plans arrive before the first fit
            continue
        before = engine._surrogate and (engine._surrogate.gp.kernel, engine._surrogate.gp.noise)
        engine.fit()
        if engine._observations_since_refit == 0:
            yield engine, before


@dataclass
class _Boundary:
    """One full refit of a replayed stream, next to the cold oracle's."""

    count: int
    kernel: Kernel
    noise: float
    before: tuple[Kernel, float] | None
    prediction: tuple[np.ndarray, np.ndarray]
    cold: reference_gp.ColdCensoredGP
    cold_prediction: tuple[np.ndarray, np.ndarray]

    @property
    def gap(self) -> float:
        """Dense NLL of the warm refit's optimum minus the cold oracle's."""
        return self.cold.nll(self.kernel, self.noise) - self.cold.nll(self.cold.kernel, self.cold.noise)


def _refit_boundaries(recorded: BOEngine) -> list[_Boundary]:
    xs, ys, censored = recorded.observations()
    probes = np.random.default_rng(5).random((64, recorded.dim))
    boundaries = []
    for engine, before in _replay(recorded):
        count, gp = engine.num_observations, engine.surrogate.gp
        cold = reference_gp.ColdCensoredGP().fit(
            engine._normalize(xs[:count]), ys[:count], censored[:count]
        )
        boundaries.append(_Boundary(
            count, gp.kernel, gp.noise, before,
            engine.surrogate.predict(probes), cold, cold.predict(probes),
        ))
    return boundaries


@pytest.fixture(scope="module")
def replay_boundaries(replay_stream):
    return _refit_boundaries(replay_stream)


@pytest.fixture(scope="module")
def bimodal_boundaries(bimodal_stream):
    return _refit_boundaries(bimodal_stream)


class TestWarmRefitOracle:
    def test_stream_is_the_duplicate_heavy_regime(self, replay_stream):
        x, _, censored = replay_stream.observations()
        assert len(x) >= 175
        assert censored.mean() >= 0.8

    def test_warm_refit_lands_on_the_cold_optimum(self, replay_boundaries):
        """At every refit boundary of the stream the warm refit's optimum is
        no worse than the cold oracle's; where the two are the same optimum
        (at a few boundaries the cold start stops in a worse one) the
        posteriors agree."""
        same_optimum = 0
        for boundary in replay_boundaries:
            assert boundary.gap <= 1e-3
            if boundary.gap < -1e-3:
                continue
            same_optimum += 1
            (mean, std), (cold_mean, cold_std) = boundary.prediction, boundary.cold_prediction
            assert np.abs(mean - cold_mean).max() <= 1e-2 * cold_std.min()
            assert np.abs(std - cold_std).max() <= 1e-2 * cold_std.min()
        assert len(replay_boundaries) >= 30
        assert same_optimum >= len(replay_boundaries) - 5

    @pytest.mark.parametrize("boundaries", ["replay_boundaries", "bimodal_boundaries"])
    def test_refit_never_fits_worse_than_not_refitting(self, boundaries, request):
        for boundary in request.getfixturevalue(boundaries)[1:]:
            refitted = boundary.cold.nll(boundary.kernel, boundary.noise)
            assert refitted <= boundary.cold.nll(*boundary.before) + 1e-9

    def test_where_the_likelihood_has_two_modes_a_warm_start_keeps_its_own(self, bimodal_boundaries):
        """The limit of a warm start, pinned so it cannot grow unseen.  On this
        stream the likelihood of the first few dozen observations (all but
        three censored at one level) has an interpolating and a smoothing
        mode a nat or so apart; L-BFGS from the previous optimum stays in the
        one it was in, the cold start reaches the other.  Neither start is
        the better one in general (CHANGES.md, PR 14, has the survey)."""
        gaps = {b.count: b.gap for b in bimodal_boundaries if b.gap > 1e-3}
        assert gaps and max(gaps) < 40
        assert max(gaps.values()) < 1.5

    def test_warm_refits_spend_a_fraction_of_the_objective_calls(self, replay_stream, monkeypatch):
        """Counted here, not by a span: objective evaluations over the stream's
        full refits, warm engine vs. a fresh model per refit."""
        calls = []
        objective = ExactGP._negative_log_marginal

        def counted(self, params):
            calls.append(self)
            return objective(self, params)

        monkeypatch.setattr(ExactGP, "_negative_log_marginal", counted)
        xs, ys, censored = replay_stream.observations()
        fresh = 0
        for engine, _ in _replay(replay_stream):
            count, before = engine.num_observations, len(calls)
            CensoredGP().fit(engine._normalize(xs[:count]), ys[:count], censored[:count])
            fresh += len(calls) - before
        assert len(calls) - fresh <= 0.5 * fresh

    def test_rank1_updates_equal_a_from_scratch_factorization(self, replay_stream):
        """N = 175 warm ``add_observation`` calls vs. one factorization of all
        the points at the same hyper-parameters."""
        xs, ys, _ = replay_stream.observations()
        xs, ys = replay_stream._normalize(xs)[:176], ys[:176]
        kernel, noise = Matern52Kernel(lengthscale=0.8, outputscale=1.2), 0.05
        incremental = ExactGP(kernel=kernel, noise=noise).fit(
            xs[:1], ys[:1], optimize_hyperparameters=False
        )
        for x, y in zip(xs[1:], ys[1:]):
            incremental.add_observation(x, y)
        scratch = ExactGP(kernel=kernel, noise=noise).fit(xs, ys, optimize_hyperparameters=False)
        assert incremental.num_observations == scratch.num_observations == len(xs) == 176
        np.testing.assert_allclose(
            incremental._chol @ incremental._chol.T, scratch._chol @ scratch._chol.T, atol=1e-9
        )
        probes = np.random.default_rng(6).random((64, xs.shape[1]))
        for ours, theirs in zip(incremental.predict(probes), scratch.predict(probes)):
            np.testing.assert_allclose(ours, theirs, rtol=1e-6, atol=1e-8)


#: ``REPRO_ORACLE_FULL=1`` (``make oracle-full``) draws 2000 conditioning
#: examples instead of 200 and probes 64 candidates after every observation of
#: the replayed streams instead of 16.
ORACLE_FULL = os.environ.get("REPRO_ORACLE_FULL") == "1"


class TestFantasizeOracle:
    """The closed-form conditioning vs. the augmented-factor solve it replaced."""

    @settings(max_examples=2000 if ORACLE_FULL else 200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        dim=st.integers(1, 16),
        batch=st.sampled_from([1, 2, 257]),
        queries=st.sampled_from([1, 7, 96]),
        responses=st.sampled_from(["censored", "exact", "constant"]),
        new_is_training_point=st.booleans(),
        query_holds_new=st.booleans(),
    )
    def test_fantasize_batch_matches_the_augmented_solve(
        self, seed, n, dim, batch, queries, responses, new_is_training_point, query_holds_new
    ):
        """Equal to rtol 1e-9, and to an atol of 1e-12 plus the two sides'
        rounding.  Each side evaluates the kernel in its own calls, and a
        squared distance rounds by ~eps * dim on the unit cube (a duplicate
        point's is ~1e-15, not 0), which moves a kernel entry by ~eps * dim /
        lengthscale^2; each solves against an augmented covariance whose
        condition number reaches ~1e4 when the fitted noise sits at its lower
        bound.  Checked against exact arithmetic on the cases that need the
        slack, neither side is the closer one."""
        rng = np.random.default_rng(seed)
        x = rng.random((n, dim))
        y = rng.standard_normal(n) * rng.uniform(0.1, 3.0) + rng.uniform(-5.0, 5.0)
        x_new = x[rng.integers(n)] if new_is_training_point else rng.random(dim)
        x_query = rng.random((queries, dim))
        if query_holds_new:
            x_query[rng.integers(queries)] = x_new
        values = rng.uniform(-6.0, 6.0, batch)
        if responses == "censored":
            model = CensoredGP().fit(x, y, rng.random(n) < 0.5)
            gp = model.gp
            # Levels within 8 posterior stds of x_new's mean: further out the
            # truncated-normal hazard is a difference of two ~alpha^2/2 logs,
            # and its rounding, not the conditioning's, would be measured.
            mean, std = model.predict(np.atleast_2d(x_new))
            values = mean[0] + std[0] * rng.uniform(-8.0, 8.0, batch)
            ours = model.fantasize_batch(x_new, values, x_query)
            theirs = reference_gp.censored_fantasize_batch(model, x_new, values, x_query)
        else:
            if responses == "constant":
                # Integers: the oracle's two-pass mean of them is exact, so
                # its zero scale is exactly zero (and becomes 1) as it is here.
                level = float(rng.integers(-3, 4))
                y = np.full(n, level)
                values[0] = level
            gp = ExactGP().fit(x, y)
            ours = gp.fantasize_batch(x_new, values, x_query)
            theirs = reference_gp.fantasize_batch(gp, x_new, values, x_query)
            if responses == "constant":
                assert gp._y_std == 1.0
        augmented = np.vstack([gp._x, x_new])
        cond = np.linalg.cond(
            gp.kernel(augmented, augmented) + (gp.noise + 1e-8) * np.eye(n + 1)
        )
        magnitude = max(np.abs(gp._y_raw).max(), np.abs(values).max(), 1.0)
        distances = 1.0 + dim / gp.kernel.lengthscale**2
        atol = 1e-12 + 4 * np.finfo(float).eps * cond * magnitude * distances
        for mine, reference in zip(ours, theirs):
            assert mine.shape == reference.shape == (batch, queries)
            np.testing.assert_allclose(mine, reference, rtol=1e-9, atol=atol)

    @pytest.mark.parametrize("name", ["replay", "bimodal"])
    def test_timeout_rule_picks_the_oracles_grid_level_on_the_recorded_streams(self, name):
        """After every observation of a recorded stream, the uncertainty
        timeout of each probe candidate is the grid level the augmented-factor
        conditioning picks."""
        with np.load(STREAMS) as data:
            lower, upper = data[f"{name}_lower"], data[f"{name}_upper"]
            stream = list(zip(data[f"{name}_x"], data[f"{name}_y"], data[f"{name}_censored"]))
            config = _recorded_config(data)
        engine = BOEngine(lower, upper, config=config, seed=0)
        policy = UncertaintyTimeout()
        count = 64 if ORACLE_FULL else 16
        probes = np.random.default_rng(11).uniform(lower, upper, (count, len(lower)))
        selects = 0
        for x, y, censored in stream:
            engine.add_observation(x, y, censored)
            if engine.num_observations < 3 or engine.best_value() is None:
                continue
            engine.fit()
            best_latency = math.exp(engine.best_value())
            best_log = math.log(best_latency)
            levels = np.linspace(best_log, math.log(best_latency * policy.max_multiplier), 257)
            for candidate in probes:
                point = engine._normalize(candidate)
                means, stds = reference_gp.censored_fantasize_batch(
                    engine.surrogate, point, levels, point
                )
                confident = best_log <= means[:, 0] - policy.kappa * stds[:, 0]
                index = int(np.argmax(confident)) if confident[-1] else len(levels) - 1
                timeout = policy.select(engine, candidate, best_latency, [best_latency])
                assert timeout == math.exp(levels[index]), (engine.num_observations, candidate)
                selects += 1
        assert selects == len(probes) * (len(stream) - 2)


class TestImputationOracle:
    def test_truncated_normal_mean_is_the_scipy_stats_formula_bit_for_bit(self):
        alpha = np.concatenate([np.linspace(-40.0, 40.0, 8001), [np.inf, -np.inf, np.nan, 1e6]])
        rng = np.random.default_rng(0)
        mu = rng.standard_normal(len(alpha))
        sigma = np.exp(rng.uniform(-12.0, 3.0, len(alpha)))
        lower = mu + sigma * alpha
        ours = truncated_normal_mean(mu, sigma, lower)
        theirs = reference_gp.truncated_normal_mean(mu, sigma, lower)
        assert np.array_equal(ours, theirs, equal_nan=True)

    def test_asymptotic_hazard_branch_is_taken_where_the_ratio_is_not_finite(self):
        # lower = +inf: log pdf and log sf are both -inf, the ratio is nan and
        # the asymptotic hazard ~ alpha takes over.
        unit = np.ones(1)
        assert truncated_normal_mean(0 * unit, unit, np.inf * unit)[0] == np.inf
        assert truncated_normal_mean(0 * unit, unit, -np.inf * unit)[0] == 0.0
        far = truncated_normal_mean(0 * unit, unit, 1e200 * unit)[0]
        assert far == reference_gp.truncated_normal_mean(0 * unit, unit, 1e200 * unit)[0]
        assert far >= 1e200


class TestNormalForms:
    """The ``ndtr``/``log_ndtr`` forms equal ``scipy.stats.norm``, float for float."""

    GRID = np.concatenate([
        np.linspace(-40.0, 40.0, 8001),
        [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1e6, -1e6, np.inf, -np.inf, np.nan],
    ])

    def test_standard_forms(self):
        with np.errstate(all="ignore"):
            for ours, theirs in ((norm_cdf, stats.norm.cdf), (norm_pdf, stats.norm.pdf),
                                 (norm_logpdf, stats.norm.logpdf), (norm_logsf, stats.norm.logsf)):
                # 1-D, and 2-D as the quadrature's ``(points, nodes)`` grid.
                for grid in (self.GRID, self.GRID[:8000].reshape(-1, 20)):
                    expected = theirs(grid)
                    got = ours(grid)
                    assert np.array_equal(got, expected, equal_nan=True), ours.__name__
                    # Bit for bit at finite arguments, the only ones the
                    # surrogates pass; at -inf ``logsf`` is -0.0, not 0.0.
                    finite = np.isfinite(grid)
                    assert np.array_equal(np.signbit(got[finite]), np.signbit(expected[finite]))

    def test_logpdf_with_the_loc_and_scale_tobit_passes(self):
        rng = np.random.default_rng(38)
        values = np.concatenate([self.GRID[:-3], rng.standard_normal(500) * 1e3])
        mean = rng.standard_normal(len(values)) * 10.0
        # ``tobit_log_likelihood`` clips its scale at 1e-9.
        std = np.maximum(np.exp(rng.uniform(-25.0, 8.0, len(values))), 1e-9)
        with np.errstate(all="ignore"):
            assert np.array_equal(norm_logpdf(values, mean, std),
                                  stats.norm.logpdf(values, mean, std), equal_nan=True)
        censored = rng.random(len(values)) < 0.3
        finite = np.isfinite(values)
        values, mean, std, censored = values[finite], mean[finite], std[finite], censored[finite]
        with np.errstate(all="ignore"):
            z = (values - mean) / std
            expected = float(np.sum(stats.norm.logpdf(values[~censored], mean[~censored], std[~censored])))
            expected += float(np.sum(stats.norm.logsf(z[censored])))
            assert tobit_log_likelihood(values, censored, mean, std) == expected

    def test_expected_improvement(self):
        class Posterior:
            def predict(self, points):
                return points[:, 0], np.abs(points[:, 1])

        rng = np.random.default_rng(7)
        points = rng.standard_normal((400, 2)) * [3.0, 1.0]
        points[:5, 1] = [0.0, 1e-300, 1e-13, 40.0, 1e3]
        mean, std = points[:, 0], np.maximum(np.abs(points[:, 1]), 1e-12)
        improvement = 0.5 - mean
        z = improvement / std
        expected = improvement * stats.norm.cdf(z) + std * stats.norm.pdf(z)
        assert np.array_equal(expected_improvement(Posterior(), points, 0.5), expected)


# ------------------------------------------------------------------ refit oracles
#: ``(n, dim, seed)`` of a random five-point first fit, searched from the
#: default start, for each way a search stops (``optimize.minimize``'s
#: ``message``).  A workload's first refits are this size, and at n = 5-6 some
#: of them run into the iteration limit.
_STOP_CASES = {
    "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL": (5, 1, 0),
    "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH": (5, 2, 5),
    "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT": (5, 2, 0),
}
_DEFAULT_START = np.log([1.0, 1.0, 1e-2])


def _bits(arrays) -> bytes:
    return b"".join(np.asarray(array, dtype=np.float64).tobytes() for array in arrays)


def _searches_match(gp: ExactGP, start: np.ndarray) -> tuple[str, list[float]]:
    """Run the direct driver and ``optimize.minimize`` on ``gp``'s objective
    from ``start``; both must return the same bits after evaluating it at the
    same points, in the same order.  Returns the reference's stop message and
    the objective values the driver saw."""
    points, values = {"ours": [], "theirs": []}, []

    def recorded(side):
        def objective(params):
            points[side].append(params.copy())
            value, grad = gp._negative_log_marginal(params)
            if side == "ours":
                values.append(value)
            return value, grad
        return objective

    ours = gp_module._minimize_lbfgsb(recorded("ours"), start.copy())
    theirs = reference_gp.minimize_lbfgsb(recorded("theirs"), start.copy())
    assert _bits([ours]) == _bits([theirs.x])
    assert len(points["ours"]) == len(points["theirs"]) == theirs.nfev
    assert _bits(points["ours"]) == _bits(points["theirs"])
    return theirs.message, values


def _stream_searches(name: str) -> list[tuple[ExactGP, np.ndarray]]:
    """Every hyper-parameter search a replay of the recorded stream runs: its
    objective (the model's inputs and responses at that refit) and its warm
    start."""
    searches, driver = [], gp_module._minimize_lbfgsb

    def recording(objective, start):
        gp = objective.__self__
        probe = ExactGP(kernel=gp.kernel)
        probe._sqdist, probe._y = gp._sqdist, gp._y
        searches.append((probe, np.array(start)))
        return driver(objective, start)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gp_module, "_minimize_lbfgsb", recording)
        for _ in _replay(_recorded_stream(name)):
            pass
    return searches


class TestDirectLbfgsbOracle:
    """The direct ``setulb`` loop vs. the ``optimize.minimize`` call it replaced."""

    @pytest.mark.parametrize("name", ["replay", "bimodal"])
    def test_every_refit_of_the_recorded_streams_warm_and_cold(self, name):
        searches = _stream_searches(name)
        assert len(searches) >= 30
        messages = set()
        for gp, warm in searches:
            messages.add(_searches_match(gp, warm)[0])
            messages.add(_searches_match(gp, _DEFAULT_START)[0])
        # Both stop reasons of a converged search occur on every stream.
        assert set(list(_STOP_CASES)[:2]) <= messages

    @pytest.mark.parametrize("message", list(_STOP_CASES))
    def test_each_stop_reason(self, message):
        n, dim, seed = _STOP_CASES[message]
        rng = np.random.default_rng(seed)
        gp = _objective_gp(Matern52Kernel, rng.random((n, dim)), rng.standard_normal(n))
        assert _searches_match(gp, _DEFAULT_START)[0] == message

    def test_a_wall_inside_the_box(self):
        """Negative "distances" make the covariance indefinite in part of the
        box: the search steps into the ``1e10`` wall, backs off and ends on
        the factorizable side."""
        x, y = _random_points(12, seed=2)
        gp = _objective_gp(RBFKernel, x, y)
        gp._sqdist = gp._sqdist - 0.5 * (1.0 - np.eye(12))
        with np.errstate(over="ignore", invalid="ignore"):
            _, values = _searches_match(gp, np.zeros(3))
        assert values[0] < 1e10 and 1e10 in values and values[-1] < 1e10

    @settings(max_examples=1000 if ORACLE_FULL else 100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 60),
        dim=st.integers(1, 16),
        kernel_cls=st.sampled_from([Matern52Kernel, RBFKernel]),
        start=st.sampled_from(["default", "inside", "outside", "on_bound"]),
        wall=st.booleans(),
    )
    def test_driver_is_minimize_bit_for_bit(self, seed, n, dim, kernel_cls, start, wall):
        rng = np.random.default_rng(seed)
        x, y = rng.random((n, dim)), rng.standard_normal(n) * rng.uniform(0.1, 3.0)
        if rng.random() < 0.3:  # duplicated points, as a shrunken trust region replays them
            x[n // 2 :] = x[: n - n // 2]
        gp = _objective_gp(RBFKernel if wall else kernel_cls, x, y)
        if wall:
            gp._sqdist = gp._sqdist - rng.uniform(0.0, 1.0) * (1.0 - np.eye(n))
        lows, highs = np.array(reference_gp.LOG_BOUNDS).T
        inside = rng.uniform(lows, highs)
        on_bound = rng.random(3) < 0.5
        on_bound[rng.integers(3)] = True
        initial = {
            "default": _DEFAULT_START,
            "inside": inside,
            "outside": inside + rng.choice([-1.0, 1.0], 3) * rng.uniform(0.1, 5.0, 3),
            "on_bound": np.where(on_bound, np.where(rng.random(3) < 0.5, lows, highs), inside),
        }[start]
        with np.errstate(over="ignore", invalid="ignore"):
            _searches_match(gp, initial)


def _assert_em_matches(model: CensoredGP, x: np.ndarray, y: np.ndarray, censored: np.ndarray) -> None:
    """``CensoredGP.fit`` vs. the per-iteration ``predict`` loop, both
    continued from ``model``'s hyper-parameters."""
    ours = copy.deepcopy(model).fit(x, y, censored)
    theirs = reference_gp.censored_fit(copy.deepcopy(model), x, y, censored)
    assert _bits([ours.gp._y_raw, ours.gp._alpha]) == _bits([theirs.gp._y_raw, theirs.gp._alpha])
    assert (ours.gp._y_mean, ours.gp._y_std) == (theirs.gp._y_mean, theirs.gp._y_std)


class TestEMOracle:
    """The EM loop's once-per-refit solve vs. a full ``predict`` per iteration."""

    @pytest.mark.parametrize("name", ["replay", "bimodal"])
    def test_every_refit_of_the_recorded_streams(self, name):
        boundaries = 0
        for engine, _ in _replay(_recorded_stream(name)):
            model = engine.surrogate
            _assert_em_matches(model, model._x, model._values, model._censored)
            boundaries += 1
        assert boundaries >= 30

    @pytest.mark.parametrize("em_iterations", [0, 1, 2, 3])
    @pytest.mark.parametrize("censoring", ["none", "one", "some", "all"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_sets(self, em_iterations, censoring, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        x, y = rng.random((n, int(rng.integers(1, 9)))), rng.standard_normal(n)
        censored = {
            "none": np.zeros(n, dtype=bool),
            "one": np.arange(n) == rng.integers(n),
            "some": rng.random(n) < 0.5,
            "all": np.ones(n, dtype=bool),
        }[censoring]
        model = CensoredGP(em_iterations=em_iterations)
        _assert_em_matches(model, x, y, censored)
        # And warm: refit a fitted model on one more point.
        model.fit(x[:-1], y[:-1], censored[:-1])
        _assert_em_matches(model, x, y, censored)
