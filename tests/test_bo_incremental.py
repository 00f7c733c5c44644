"""Property-style tests: the incremental surrogate paths (rank-1 Cholesky
updates, closed-form batched fantasize, warm engine updates) must agree with
the from-scratch fit/predict path to tight numerical tolerance."""

import numpy as np
import pytest

from repro.bo.censored import truncated_normal_mean
from repro.bo.gp import CensoredGP, ExactGP
from repro.bo.kernels import Matern52Kernel, RBFKernel, pairwise_sqdist
from repro.bo.loop import BOEngine, BOEngineConfig
from repro.bo.svgp import CensoredSVGP

ATOL = 1e-6


def make_dataset(seed: int, n: int, dim: int):
    rng = np.random.default_rng(seed)
    x = rng.random((n, dim))
    y = np.sin(3.0 * x.sum(axis=1)) + 0.05 * rng.standard_normal(n)
    return x, y, rng


class TestKernelCachedState:
    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    def test_from_sqdist_matches_call(self, kernel_cls, rng):
        kernel = kernel_cls(lengthscale=0.7, outputscale=1.8)
        a, b = rng.standard_normal((8, 3)), rng.standard_normal((5, 3))
        assert np.allclose(kernel(a, b), kernel.from_sqdist(pairwise_sqdist(a, b)), atol=1e-12)

    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    def test_analytic_lengthscale_gradient(self, kernel_cls, rng):
        """grad_from_sqdist matches a central finite difference in log lengthscale."""
        x = rng.standard_normal((6, 2))
        sqdist = pairwise_sqdist(x, x)
        kernel = kernel_cls(lengthscale=0.9, outputscale=1.3)
        _, grad = kernel.grad_from_sqdist(sqdist)
        eps = 1e-6
        up = kernel.with_params(np.exp(np.log(0.9) + eps), 1.3).from_sqdist(sqdist)
        down = kernel.with_params(np.exp(np.log(0.9) - eps), 1.3).from_sqdist(sqdist)
        assert np.allclose(grad, (up - down) / (2 * eps), atol=1e-6)


class TestRank1Update:
    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_incremental_matches_scratch(self, kernel_cls, seed):
        x, y, rng = make_dataset(seed, n=24, dim=3)
        gp = ExactGP(kernel=kernel_cls()).fit(x[:16], y[:16])
        for i in range(16, 24):
            gp.add_observation(x[i], y[i])
        scratch = ExactGP(kernel=gp.kernel, noise=gp.noise).fit(
            x, y, optimize_hyperparameters=False
        )
        query = rng.random((10, 3))
        mean_inc, std_inc = gp.predict(query)
        mean_ref, std_ref = scratch.predict(query)
        assert np.allclose(mean_inc, mean_ref, atol=ATOL)
        assert np.allclose(std_inc, std_ref, atol=ATOL)

    def test_add_observation_restandardizes(self):
        x, y, _ = make_dataset(3, n=10, dim=2)
        gp = ExactGP().fit(x[:9], y[:9], optimize_hyperparameters=False)
        gp.add_observation(x[9], y[9])
        assert gp._y_mean == pytest.approx(float(y.mean()))
        assert gp.num_observations == 10

    def test_duplicate_point_falls_back_to_refactorization(self):
        x, y, rng = make_dataset(4, n=12, dim=2)
        gp = ExactGP().fit(x, y)
        gp.add_observation(x[0], y[0] + 0.1)  # exact duplicate input
        scratch = ExactGP(kernel=gp.kernel, noise=gp.noise).fit(
            np.vstack([x, x[0]]), np.append(y, y[0] + 0.1), optimize_hyperparameters=False
        )
        query = rng.random((5, 2))
        assert np.allclose(gp.predict(query)[0], scratch.predict(query)[0], atol=ATOL)

    def test_wrong_dimension_rejected(self):
        from repro.exceptions import ModelError

        x, y, _ = make_dataset(5, n=6, dim=3)
        gp = ExactGP().fit(x, y)
        with pytest.raises(ModelError):
            gp.add_observation(np.zeros(2), 0.0)


class TestClosedFormFantasize:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fantasize_matches_clone_refit(self, seed):
        x, y, rng = make_dataset(seed, n=18, dim=3)
        gp = ExactGP().fit(x, y)
        x_new, y_new = rng.random(3), 2.0
        query = rng.random((6, 3))
        mean_fast, std_fast = gp.fantasize(x_new, y_new, query)
        clone = ExactGP(kernel=gp.kernel, noise=gp.noise).fit(
            np.vstack([x, x_new]), np.append(y, y_new), optimize_hyperparameters=False
        )
        mean_ref, std_ref = clone.predict(query)
        assert np.allclose(mean_fast, mean_ref, atol=ATOL)
        assert np.allclose(std_fast, std_ref, atol=ATOL)

    def test_batch_matches_per_level_refits(self):
        x, y, rng = make_dataset(6, n=15, dim=2)
        gp = ExactGP().fit(x, y)
        x_new = rng.random(2)
        query = rng.random((4, 2))
        levels = np.linspace(-1.0, 3.0, 17)
        means, stds = gp.fantasize_batch(x_new, levels, query)
        assert means.shape == stds.shape == (17, 4)
        for i, level in enumerate(levels):
            clone = ExactGP(kernel=gp.kernel, noise=gp.noise).fit(
                np.vstack([x, x_new]), np.append(y, level), optimize_hyperparameters=False
            )
            mean_ref, std_ref = clone.predict(query)
            assert np.allclose(means[i], mean_ref, atol=ATOL)
            assert np.allclose(stds[i], std_ref, atol=ATOL)

    def test_censored_batch_matches_impute_then_refit(self):
        """CensoredGP.fantasize_batch == seed semantics: truncated-normal
        imputation under the current posterior, then a (virtual) full refit."""
        x, y, rng = make_dataset(7, n=16, dim=2)
        censored = np.zeros(16, dtype=bool)
        censored[10:13] = True
        y = y.copy()
        y[10:13] += 1.0
        gp = CensoredGP().fit(x, y, censored)
        x_new = rng.random(2)
        query = rng.random((5, 2))
        levels = np.array([0.0, 0.5, 1.5, 3.0])
        means, stds = gp.fantasize_batch(x_new, levels, query)
        post_mean, post_std = gp.predict(np.atleast_2d(x_new))
        fitted_values = gp.gp._y_raw
        for i, level in enumerate(levels):
            imputed = truncated_normal_mean(post_mean, post_std, np.array([level]))[0]
            clone = ExactGP(kernel=gp.gp.kernel, noise=gp.gp.noise).fit(
                np.vstack([x, x_new]),
                np.append(fitted_values, imputed),
                optimize_hyperparameters=False,
            )
            mean_ref, std_ref = clone.predict(query)
            assert np.allclose(means[i], mean_ref, atol=ATOL)
            assert np.allclose(stds[i], std_ref, atol=ATOL)


class TestCensoredIncremental:
    def test_uncensored_add_matches_scratch(self):
        x, y, rng = make_dataset(8, n=20, dim=3)
        censored = np.zeros(20, dtype=bool)
        gp = CensoredGP().fit(x[:15], y[:15], censored[:15])
        for i in range(15, 20):
            gp.add_observation(x[i], y[i], censored=False)
        scratch = ExactGP(kernel=gp.gp.kernel, noise=gp.gp.noise).fit(
            x, y, optimize_hyperparameters=False
        )
        query = rng.random((8, 3))
        assert np.allclose(gp.predict(query)[0], scratch.predict(query)[0], atol=ATOL)
        assert np.allclose(gp.predict(query)[1], scratch.predict(query)[1], atol=ATOL)

    def test_censored_add_is_one_em_step(self):
        """A censored warm add imputes with the truncated-normal mean under the
        *pre-update* posterior, then conditions on the imputed value."""
        x, y, rng = make_dataset(9, n=14, dim=2)
        gp = CensoredGP().fit(x, y, np.zeros(14, dtype=bool))
        x_new, level = rng.random(2), 1.5
        mean, std = gp.predict(np.atleast_2d(x_new))
        expected_imputed = truncated_normal_mean(mean, std, np.array([level]))[0]
        gp.add_observation(x_new, level, censored=True)
        scratch = ExactGP(kernel=gp.gp.kernel, noise=gp.gp.noise).fit(
            np.vstack([x, x_new]),
            np.append(y, expected_imputed),
            optimize_hyperparameters=False,
        )
        query = rng.random((6, 2))
        assert np.allclose(gp.predict(query)[0], scratch.predict(query)[0], atol=ATOL)
        assert gp.num_censored == 1
        assert gp.num_observations == 15

    def test_add_before_fit_bootstraps(self):
        gp = CensoredGP()
        gp.add_observation(np.array([0.2, 0.4]), 1.0)
        assert gp.num_observations == 1


class TestWarmEngine:
    def make_engine(self, refit_every: int) -> BOEngine:
        return BOEngine(
            np.zeros(3), np.ones(3), config=BOEngineConfig(refit_every=refit_every), seed=0
        )

    def test_incremental_fit_reuses_surrogate(self):
        engine = self.make_engine(refit_every=10)
        rng = np.random.default_rng(0)
        for _ in range(5):
            engine.add_observation(rng.random(3), float(rng.standard_normal()))
        engine.fit()
        warm = engine.surrogate
        for _ in range(4):
            engine.add_observation(rng.random(3), float(rng.standard_normal()))
            engine.fit()
        assert engine.surrogate is warm
        assert warm.num_observations == engine.num_observations

    def test_capabilities_are_decided_once_not_per_ask(self, monkeypatch):
        built = []
        build = BOEngine._build_surrogate
        monkeypatch.setattr(
            BOEngine, "_build_surrogate", lambda engine: built.append(engine) or build(engine)
        )
        engine = self.make_engine(refit_every=10)
        # An unfitted engine answers, without a fit and without a model per call.
        assert all(engine.supports_batched_fantasize for _ in range(3))
        assert engine._surrogate is None and len(built) == 1
        rng = np.random.default_rng(0)
        for _ in range(6):
            engine.add_observation(rng.random(3), float(rng.standard_normal()))
            engine.fit()
            assert engine.supports_batched_fantasize
        assert len(built) == 2  # the model the first fit built
        assert engine._observations_since_refit == 5  # ... kept warm since

        # The SVGP has neither capability: every fit is a full one.
        svgp = BOEngine(
            np.zeros(3), np.ones(3), seed=0,
            config=BOEngineConfig(surrogate="svgp", refit_every=10),
        )
        assert not svgp.supports_batched_fantasize and svgp._surrogate is None
        fits = []
        fit = CensoredSVGP.fit
        monkeypatch.setattr(
            CensoredSVGP, "fit", lambda model, *args: fits.append(len(args[0])) or fit(model, *args)
        )
        for _ in range(3):
            svgp.add_observation(rng.random(3), float(rng.standard_normal()))
            svgp.fit()
        assert fits == [1, 2, 3] and svgp._observations_since_refit == 0
        assert not svgp.supports_batched_fantasize and len(built) == 4

    def test_refit_boundary_reoptimizes_and_reimputes(self):
        """What a refit boundary must do, whichever object carries the model:
        re-optimize the hyper-parameters the warm updates froze, absorb every
        observation, restart the cadence and re-impute censored responses
        with the full EM loop under the new hyper-parameters."""
        engine = self.make_engine(refit_every=3)
        x, y, _ = make_dataset(1, n=7, dim=3)
        y = y.copy()
        y[4:] *= 4.0  # the later responses demand another output scale
        censored = np.zeros(7, dtype=bool)
        censored[5] = True

        def hyperparameters():
            gp = engine.surrogate.gp
            return (gp.kernel.lengthscale, gp.kernel.outputscale, gp.noise)

        for i in range(4):
            engine.add_observation(x[i], float(y[i]))
        engine.fit()
        frozen = hyperparameters()
        for i in (4, 5):
            engine.add_observation(x[i], float(y[i]), censored=bool(censored[i]))
            engine.fit()
        assert hyperparameters() == frozen
        assert engine._observations_since_refit == 2
        one_step_imputation = engine.surrogate.gp._y_raw[5]

        engine.add_observation(x[6], float(y[6]))
        engine.fit()
        surrogate = engine.surrogate
        assert not np.allclose(hyperparameters(), frozen, rtol=1e-3)
        assert surrogate.num_observations == engine.num_observations == 7
        assert surrogate.num_censored == 1
        assert engine._observations_since_refit == 0
        # Full EM at the re-optimized hyper-parameters, spelled out.
        reference = ExactGP(kernel=surrogate.gp.kernel, noise=surrogate.gp.noise).fit(
            x, y, optimize_hyperparameters=False
        )
        imputed = y.copy()
        for _ in range(surrogate.em_iterations):
            mean, std = reference.predict(x[censored])
            imputed[censored] = truncated_normal_mean(mean, std, y[censored])
            reference.update_targets(imputed)
        assert np.allclose(surrogate.gp._y_raw, imputed, atol=ATOL)
        assert abs(surrogate.gp._y_raw[5] - one_step_imputation) > 1e-3

    def test_warm_predictions_match_scratch(self):
        engine = self.make_engine(refit_every=100)
        x, y, rng = make_dataset(10, n=20, dim=3)
        for i in range(6):
            engine.add_observation(x[i], float(y[i]))
        engine.fit()
        for i in range(6, 20):
            engine.add_observation(x[i], float(y[i]))
            engine.fit()
        warm = engine.surrogate
        scratch = ExactGP(kernel=warm.gp.kernel, noise=warm.gp.noise).fit(
            engine._normalize(x), y, optimize_hyperparameters=False
        )
        query = rng.random((7, 3))
        mean_w, std_w = engine.predict(query)
        mean_s, std_s = scratch.predict(engine._normalize(query))
        assert np.allclose(mean_w, mean_s, atol=ATOL)
        assert np.allclose(std_w, std_s, atol=ATOL)

    def test_batched_fantasize_matches_sequential(self):
        engine = self.make_engine(refit_every=5)
        rng = np.random.default_rng(3)
        for _ in range(10):
            engine.add_observation(rng.random(3), float(rng.standard_normal()))
        candidate = rng.random(3)
        levels = np.linspace(-0.5, 2.0, 9)
        means, stds = engine.fantasize_censored_batch(candidate, levels)
        for i, level in enumerate(levels):
            mean, std = engine.fantasize_censored(candidate, float(level))
            assert means[i] == pytest.approx(mean, abs=ATOL)
            assert stds[i] == pytest.approx(std, abs=ATOL)
