"""Tests for LML hyperparameter fitting, safe set and acquisition."""

import numpy as np
import pytest

from repro.core.acquisition import safe_lcb_index_from_posterior
from repro.core.gp import GaussianProcess
from repro.core.kernels import Matern
from repro.core.likelihood import fit_hyperparameters, log_marginal_likelihood
from repro.core.posterior import SurrogateEngine
from repro.core.safeset import SafeSetEstimator


def sample_function(rng, n=40, lengthscale=0.4, noise=0.05):
    x = rng.uniform(0, 1, size=(n, 1))
    y = np.sin(x[:, 0] * 6.0) + rng.normal(0, noise, size=n)
    return x, y


class TestLogMarginalLikelihood:
    def test_matches_manual_computation(self):
        kernel = Matern(lengthscales=[1.0], output_scale=1.0)
        x = np.array([[0.0], [1.0]])
        y = np.array([0.5, -0.5])
        noise = 0.1
        gram = kernel(x, x) + noise * np.eye(2)
        manual = (
            -0.5 * y @ np.linalg.inv(gram) @ y
            - 0.5 * np.log(np.linalg.det(gram))
            - np.log(2 * np.pi)
        )
        assert log_marginal_likelihood(kernel, noise, x, y) == pytest.approx(manual)

    def test_good_hyperparams_score_higher(self):
        rng = np.random.default_rng(0)
        x, y = sample_function(rng)
        good = Matern(lengthscales=[0.3], output_scale=1.0)
        bad = Matern(lengthscales=[100.0], output_scale=1e-4)
        assert (
            log_marginal_likelihood(good, 0.01, x, y)
            > log_marginal_likelihood(bad, 0.01, x, y)
        )

    def test_invalid_noise(self):
        kernel = Matern(lengthscales=[1.0])
        with pytest.raises(ValueError):
            log_marginal_likelihood(kernel, 0.0, np.zeros((2, 1)), np.zeros(2))


class TestFitHyperparameters:
    def test_improves_lml(self):
        rng = np.random.default_rng(1)
        x, y = sample_function(rng)
        seed_kernel = Matern(lengthscales=[5.0], output_scale=0.1)
        initial = log_marginal_likelihood(seed_kernel, 0.5, x, y)
        fitted_kernel, fitted_noise, final = fit_hyperparameters(
            seed_kernel, x, y, noise_variance=0.5, n_restarts=2, rng=0
        )
        assert final >= initial
        assert fitted_noise > 0
        assert np.all(fitted_kernel.lengthscales > 0)

    def test_recovers_noise_scale(self):
        rng = np.random.default_rng(2)
        x, y = sample_function(rng, n=80, noise=0.1)
        _, fitted_noise, _ = fit_hyperparameters(
            Matern(lengthscales=[0.5]), x, y, noise_variance=0.01,
            n_restarts=2, rng=0,
        )
        assert 0.001 < fitted_noise < 0.1

    def test_fixed_noise_mode(self):
        rng = np.random.default_rng(3)
        x, y = sample_function(rng)
        _, noise, _ = fit_hyperparameters(
            Matern(lengthscales=[1.0]), x, y,
            noise_variance=0.123, optimize_noise=False, rng=0, n_restarts=1,
        )
        assert noise == 0.123


def build_constraint_gps():
    """Delay GP trained low around x=0.2, high around x=0.8; mAP GP
    high around x=0.2."""
    kernel = Matern(lengthscales=[0.2], output_scale=0.04)
    delay_gp = GaussianProcess(kernel, noise_variance=1e-4, prior_mean=1.0)
    map_gp = GaussianProcess(kernel, noise_variance=1e-4, prior_mean=0.0)
    for _ in range(5):
        delay_gp.add(np.array([0.2]), 0.2)
        delay_gp.add(np.array([0.8]), 0.9)
        map_gp.add(np.array([0.2]), 0.7)
        map_gp.add(np.array([0.8]), 0.7)
    return delay_gp, map_gp


def sweep(heads, grid):
    """One engine sweep of ``heads`` over a context-free 1-D grid."""
    engine = SurrogateEngine(heads, np.asarray(grid, dtype=float),
                             context_dim=0)
    return engine.posterior(np.empty(0))


def constraint_batch(grid):
    delay_gp, map_gp = build_constraint_gps()
    return sweep({"delay": delay_gp, "map": map_gp}, grid)


class TestSafeSet:
    def test_known_safe_point_included(self):
        estimator = SafeSetEstimator(beta=2.0)
        batch = constraint_batch(np.linspace(0, 1, 21)[:, None])
        mask = estimator.safe_mask(batch, d_max_s=0.4, rho_min=0.5)
        idx_02 = 4  # x = 0.2
        idx_08 = 16  # x = 0.8
        assert mask[idx_02]
        assert not mask[idx_08]  # delay 0.9 > 0.4

    def test_unexplored_region_unsafe(self):
        """Pessimistic priors keep far regions out of the safe set."""
        estimator = SafeSetEstimator(beta=2.0)
        mask = estimator.safe_mask(
            constraint_batch(np.array([[10.0]])), d_max_s=0.4, rho_min=0.5
        )
        assert not mask[0]

    def test_always_safe_indices(self):
        estimator = SafeSetEstimator(beta=2.0)
        batch = constraint_batch(np.array([[10.0], [20.0]]))
        mask = estimator.safe_mask(
            batch, d_max_s=0.4, rho_min=0.5, always_safe=np.array([1])
        )
        assert not mask[0] and mask[1]

    def test_always_safe_boolean_mask(self):
        estimator = SafeSetEstimator()
        batch = constraint_batch(np.array([[10.0], [20.0]]))
        mask = estimator.safe_mask(
            batch, 0.4, 0.5, always_safe=np.array([True, False])
        )
        assert mask[0] and not mask[1]

    def test_larger_beta_shrinks_safe_set(self):
        batch = constraint_batch(np.linspace(0, 1, 51)[:, None])
        small = SafeSetEstimator(beta=0.5).safe_mask(batch, 0.4, 0.5)
        large = SafeSetEstimator(beta=3.5).safe_mask(batch, 0.4, 0.5)
        assert small.sum() >= large.sum()

    def test_safe_set_size(self):
        """|S_t| counts exactly the points whose eq.-8 margins are >= 0."""
        estimator = SafeSetEstimator(beta=2.0)
        batch = constraint_batch(np.linspace(0, 1, 21)[:, None])
        mask = estimator.safe_mask(batch, 0.4, 0.5)
        delay_slack, map_slack = estimator.margins_from_batch(batch, 0.4, 0.5)
        certified = (delay_slack >= 0) & (map_slack >= 0)
        assert 0 < mask.sum() < mask.size
        assert np.count_nonzero(certified) == mask.sum()
        np.testing.assert_array_equal(certified, mask)


class TestAcquisition:
    def cost_moments(self, grid):
        kernel = Matern(lengthscales=[0.2], output_scale=1.0)
        gp = GaussianProcess(kernel, noise_variance=1e-4)
        gp.add(np.array([0.2]), 5.0)
        gp.add(np.array([0.5]), 1.0)
        gp.add(np.array([0.8]), 3.0)
        return sweep({"cost": gp}, grid).moments("cost")

    def test_lcb_picks_cheapest_when_certain(self):
        moments = self.cost_moments(np.array([[0.2], [0.5], [0.8]]))
        mask = np.array([True, True, True])
        assert safe_lcb_index_from_posterior(*moments, mask, beta=0.0) == 1

    def test_lcb_respects_mask(self):
        moments = self.cost_moments(np.array([[0.2], [0.5], [0.8]]))
        mask = np.array([True, False, True])
        assert safe_lcb_index_from_posterior(*moments, mask, beta=0.0) == 2

    def test_lcb_explores_uncertain_points(self):
        """With large beta an unexplored point's LCB wins."""
        moments = self.cost_moments(np.array([[0.5], [10.0]]))  # 10.0 unexplored
        mask = np.array([True, True])
        assert safe_lcb_index_from_posterior(*moments, mask, beta=5.0) == 1

    def test_empty_mask_raises(self):
        moments = self.cost_moments(np.array([[0.0]]))
        with pytest.raises(ValueError):
            safe_lcb_index_from_posterior(*moments, np.array([False]))
