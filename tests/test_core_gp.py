"""Tests for the exact GP (posterior eqs. 3-4, incremental updates)."""

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from repro.core import state
from repro.core.gp import GaussianProcess
from repro.core.kernels import Matern, RBF
from repro.core.numerics import robust_cholesky
from repro.core.sparse import make_eviction_policy


def make_gp(**kwargs):
    defaults = dict(
        kernel=Matern(lengthscales=[1.0], output_scale=1.0),
        noise_variance=1e-4,
    )
    defaults.update(kwargs)
    return GaussianProcess(**defaults)


def reference_posterior(kernel, noise, x_train, y_train, x_star,
                        prior_mean=0.0):
    """Direct dense implementation of eqs. (3)-(4)."""
    gram = kernel(x_train, x_train) + noise * np.eye(len(x_train))
    k_star = kernel(x_train, x_star)
    inv = np.linalg.inv(gram)
    mean = prior_mean + k_star.T @ inv @ (y_train - prior_mean)
    var = kernel.diag(x_star) - np.sum(k_star * (inv @ k_star), axis=0)
    return mean, var


class TestPrior:
    def test_prior_mean_and_variance(self):
        gp = make_gp(prior_mean=2.0)
        mean, var = gp.predict(np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(mean, [2.0, 2.0])
        np.testing.assert_allclose(var, [1.0, 1.0])

    def test_invalid_prior_mean(self):
        with pytest.raises(ValueError):
            make_gp(prior_mean=float("nan"))


class TestPosterior:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(15, 2))
        y = np.sin(x[:, 0]) + 0.5 * x[:, 1]
        kernel = Matern(lengthscales=[0.8, 1.2], output_scale=1.5)
        gp = GaussianProcess(kernel, noise_variance=0.01)
        gp.fit(x, y)
        x_star = rng.uniform(-2, 2, size=(7, 2))
        mean, var = gp.predict(x_star)
        ref_mean, ref_var = reference_posterior(kernel, 0.01, x, y, x_star)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(var, ref_var, rtol=1e-6, atol=1e-10)

    def test_interpolates_training_data(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, -1.0, 0.5])
        gp = make_gp(noise_variance=1e-8)
        gp.fit(x, y)
        mean, var = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-4)
        assert np.all(var < 1e-4)

    def test_variance_shrinks_near_data(self):
        gp = make_gp()
        gp.fit(np.array([[0.0]]), np.array([1.0]))
        _, var_near = gp.predict(np.array([[0.1]]))
        _, var_far = gp.predict(np.array([[5.0]]))
        assert var_near[0] < var_far[0]

    def test_mean_reverts_to_prior_far_away(self):
        gp = make_gp(prior_mean=3.0)
        gp.fit(np.array([[0.0]]), np.array([10.0]))
        mean, _ = gp.predict(np.array([[100.0]]))
        assert mean[0] == pytest.approx(3.0, abs=1e-6)

    def test_variance_never_negative(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(40, 3))
        y = rng.normal(size=40)
        gp = GaussianProcess(
            Matern(lengthscales=[0.5, 0.5, 0.5]), noise_variance=1e-6
        )
        gp.fit(x, y)
        _, var = gp.predict(rng.uniform(0, 1, size=(100, 3)))
        assert np.all(var >= 0)


class TestIncrementalUpdates:
    def test_add_matches_batch_fit(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(20, 2))
        y = rng.normal(size=20)
        kernel = Matern(lengthscales=[0.7, 0.9])

        batch = GaussianProcess(kernel, noise_variance=0.01)
        batch.fit(x, y)
        online = GaussianProcess(kernel, noise_variance=0.01)
        for xi, yi in zip(x, y):
            online.add(xi, yi)

        x_star = rng.uniform(-1, 1, size=(9, 2))
        m1, v1 = batch.predict(x_star)
        m2, v2 = online.predict(x_star)
        np.testing.assert_allclose(m1, m2, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(v1, v2, rtol=1e-5, atol=1e-9)

    def test_duplicate_points_stay_stable(self):
        gp = make_gp(noise_variance=1e-6)
        for _ in range(10):
            gp.add(np.array([0.5]), 1.0)
        mean, var = gp.predict(np.array([[0.5]]))
        assert mean[0] == pytest.approx(1.0, abs=1e-3)
        assert np.isfinite(var[0])

    def test_add_rejects_nonfinite(self):
        gp = make_gp()
        with pytest.raises(ValueError):
            gp.add(np.array([np.inf]), 1.0)
        with pytest.raises(ValueError):
            gp.add(np.array([0.0]), float("nan"))

    def test_n_observations(self):
        gp = make_gp()
        assert gp.n_observations == 0
        gp.add(np.array([0.0]), 1.0)
        gp.add(np.array([1.0]), 2.0)
        assert gp.n_observations == 2


class TestEviction:
    def test_budget_enforced(self):
        gp = make_gp(max_observations=10, eviction_block=5)
        for i in range(30):
            gp.add(np.array([float(i)]), float(i))
        assert gp.n_observations <= 15

    def test_keeps_most_recent(self):
        gp = make_gp(max_observations=5, eviction_block=2)
        for i in range(20):
            gp.add(np.array([float(i)]), float(i))
        assert gp.inputs[-1, 0] == 19.0
        # Predictions near recent data stay accurate.
        mean, _ = gp.predict(np.array([[19.0]]))
        assert mean[0] == pytest.approx(19.0, abs=0.5)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            make_gp(max_observations=0)


class TestValidationAndMisc:
    def test_fit_shape_checks(self):
        gp = make_gp()
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 2)), np.zeros(3))

    def test_predict_dim_check(self):
        gp = make_gp()
        with pytest.raises(ValueError):
            gp.predict(np.zeros((2, 3)))

    def test_predict_rejects_nonfinite_queries(self):
        gp = make_gp()
        gp.fit(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                gp.predict(np.array([[bad]]))
            with pytest.raises(ValueError, match="finite"):
                gp.predict_std(np.array([[0.5], [bad]]))

    def test_prior_predict_rejects_nonfinite_queries(self):
        # The validation must also guard the no-observations path.
        gp = make_gp()
        with pytest.raises(ValueError, match="finite"):
            gp.predict(np.array([[np.nan]]))

    def test_nonfinite_error_names_first_bad_coordinate(self):
        # Regression: the error must say *which* entry is bad, not just
        # that one exists (debugging a 14641x6 grid without the index
        # was hopeless).
        gp = make_gp(kernel=Matern(lengthscales=[1.0, 1.0], output_scale=1.0))
        queries = np.zeros((4, 2))
        queries[2, 1] = np.inf
        with pytest.raises(ValueError, match=r"\(2, 1\)") as excinfo:
            gp.predict(queries)
        assert "inf" in str(excinfo.value)

        queries[2, 1] = np.nan
        queries[1, 0] = np.nan  # earlier in row-major order -> reported
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            gp.predict_std(queries)

    def test_nonfinite_error_names_index_on_fit_and_add(self):
        gp = make_gp()
        x = np.array([[0.0], [np.nan], [1.0]])
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            gp.fit(x, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match=r"\(1,\)"):
            gp.fit(np.array([[0.0], [1.0], [2.0]]),
                   np.array([1.0, np.inf, 3.0]))
        with pytest.raises(ValueError, match=r"\(0,\)"):
            gp.add(np.array([np.nan]), 1.0)

    def test_predict_std(self):
        gp = make_gp()
        gp.add(np.array([0.0]), 1.0)
        mean, std = gp.predict_std(np.array([[0.0]]))
        _, var = gp.predict(np.array([[0.0]]))
        assert std[0] == pytest.approx(np.sqrt(var[0]))

    def test_posterior_samples_distribution(self):
        gp = GaussianProcess(RBF(lengthscales=[1.0]), noise_variance=1e-4)
        gp.fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        x_star = np.array([[0.5]])
        draws = gp.sample_posterior(x_star, n_samples=4000, rng=0)
        mean, var = gp.predict(x_star)
        assert draws.mean() == pytest.approx(mean[0], abs=0.05)
        assert draws.var() == pytest.approx(var[0], abs=0.05)

    def test_targets_property(self):
        gp = make_gp()
        gp.add(np.array([0.0]), 5.0)
        np.testing.assert_array_equal(gp.targets, [5.0])


class ReferenceGP:
    """The rank-1 update as written before the capacity buffers.

    A fresh zero-filled factor with the old one copied in, a
    ``solve_triangular`` row, ``vstack``/``append`` of the data and one
    appended entry of ``w``; refactorisations and ``set_prior_mean``
    re-solve ``w``.  Mirrors :class:`GaussianProcess` step by step so
    the buffered implementation can be compared byte for byte.
    """

    def __init__(self, kernel, noise_variance, max_observations,
                 eviction_block, eviction_policy):
        self.kernel = kernel
        self.noise_variance = noise_variance
        self.max_observations = max_observations
        self.eviction_block = eviction_block
        self.eviction_policy = eviction_policy
        self.prior_mean = 0.0
        self.x = self.y = self.chol = self.w = None

    def fit(self, x, y):
        self.x, self.y = np.array(x, dtype=float), np.array(y, dtype=float)
        self.refactorize()

    def refactorize(self):
        gram = self.kernel(self.x, self.x)
        gram[np.diag_indices_from(gram)] += self.noise_variance
        self.chol, _, _ = robust_cholesky(gram)
        self.w = solve_triangular(self.chol, self.y - self.prior_mean,
                                  lower=True)

    def set_prior_mean(self, prior_mean):
        if prior_mean != self.prior_mean:
            self.prior_mean = prior_mean
            self.w = solve_triangular(self.chol, self.y - self.prior_mean,
                                      lower=True)

    def add(self, x_new, y_new, rank1=True):
        if self.x is None:
            self.fit(x_new[None, :], [y_new])
            return
        if rank1:
            cross = self.kernel(self.x, x_new[None, :]).ravel()
            self_var = self.kernel.diag(x_new[None, :])[0] + self.noise_variance
            row = solve_triangular(self.chol, cross, lower=True)
            pivot = np.sqrt(max(self_var - float(row @ row), 1e-12))
            n = self.y.size
            chol = np.zeros((n + 1, n + 1))
            chol[:n, :n] = self.chol
            chol[n, :n] = row
            chol[n, n] = pivot
            w_new = (y_new - self.prior_mean - row @ self.w) / pivot
            self.chol = chol
            self.x = np.vstack([self.x, x_new[None, :]])
            self.y = np.append(self.y, y_new)
            self.w = np.append(self.w, w_new)
        else:
            self.x = np.vstack([self.x, x_new[None, :]])
            self.y = np.append(self.y, y_new)
            self.refactorize()
        if self.y.size <= self.max_observations + self.eviction_block:
            return
        if self.eviction_policy is None:
            keep = self.y.size - self.eviction_block
            self.x, self.y = self.x[-keep:], self.y[-keep:]
        else:
            keep = np.unique(self.eviction_policy(
                self.x, self.y, self.max_observations
            ))
            self.x, self.y = self.x[keep], self.y[keep]
        self.refactorize()

    def moments(self, x_star):
        """Pre-change ``predict``: ``K^T alpha`` mean, ``v^T v`` variance."""
        cross = self.kernel(self.x, x_star)
        alpha = cho_solve((self.chol, True), self.y - self.prior_mean)
        v = solve_triangular(self.chol, cross, lower=True)
        variance = np.maximum(
            self.kernel.diag(x_star) - np.sum(v**2, axis=0), 0.0
        )
        return self.prior_mean + cross.T @ alpha, variance


class TestBufferedUpdateIsBitIdentical:
    """The capacity-buffered add against :class:`ReferenceGP`."""

    @pytest.mark.parametrize("policy", [None, make_eviction_policy()],
                             ids=["oldest-block", "inducing-subset"])
    def test_state_bytes_match_at_every_step(self, policy):
        rng = np.random.default_rng(5)
        kernel = Matern([0.6, 0.9, 1.3], output_scale=1.7)
        fail_rank1 = []

        def hook(site, attempt):
            if site == "rank1" and fail_rank1:
                raise np.linalg.LinAlgError("forced")

        options = dict(max_observations=34, eviction_block=4)
        gp = GaussianProcess(kernel, noise_variance=0.01, fault_hook=hook,
                             eviction_policy=policy, **options)
        ref = ReferenceGP(kernel, 0.01, eviction_policy=policy, **options)
        queries = rng.uniform(-2.0, 2.0, size=(9, 3))
        capacities = set()
        snapshot = None

        def check():
            for got, want in ((gp._chol, ref.chol), (gp._w, ref.w),
                              (gp._x, ref.x), (gp._y, ref.y)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert not np.triu(gp._chol_buf, 1).any()
            capacities.add(gp._y_buf.size)
            mean, variance = gp.predict(queries)
            ref_mean, ref_variance = ref.moments(queries)
            assert variance.tobytes() == ref_variance.tobytes()
            assert np.max(np.abs(mean - ref_mean)) \
                <= 1e-9 * np.sqrt(kernel.output_scale)

        def add(rank1=True):
            x_new = rng.uniform(-2.0, 2.0, size=3)
            y_new = float(np.sin(x_new.sum()) + 0.1 * rng.standard_normal())
            fail_rank1[:] = [] if rank1 else [True]
            gp.add(x_new, y_new)
            ref.add(x_new, y_new, rank1=rank1)
            check()

        for step in range(40):  # grows 8 -> 16 -> 32 -> 64, then evicts
            add(rank1=step % 13 != 7)
            if step == 18:
                gp.set_prior_mean(0.4)
                ref.set_prior_mean(0.4)
                check()
            if step == 24:
                snapshot = state.gp_state(gp)
                ref_at_snapshot = (ref.x, ref.y, ref.chol, ref.w,
                                   ref.prior_mean)
        assert gp.evictions > 0 and gp.rank1_fallbacks == 3
        assert capacities >= {8, 16, 32, 64}

        # Restore into a fresh GP: its buffers are sized to the snapshot.
        gp = GaussianProcess(kernel, noise_variance=0.01, fault_hook=hook,
                             eviction_policy=policy, **options)
        state.restore_gp_state(gp, snapshot)
        ref.x, ref.y, ref.chol, ref.w, ref.prior_mean = ref_at_snapshot
        check()
        for step in range(15):
            add(rank1=step != 4)

        x_fit = rng.uniform(-2.0, 2.0, size=(6, 3))
        y_fit = rng.standard_normal(6)
        gp.fit(x_fit, y_fit)  # shrinks the live block; buffers are reused
        ref.fit(x_fit, y_fit)
        check()
        gp.set_prior_mean(-0.2)
        ref.set_prior_mean(-0.2)
        check()
        for _ in range(5):
            add()

    def test_kernel_swap_rescales_the_inputs(self):
        rng = np.random.default_rng(8)
        gp = make_gp(kernel=Matern([1.0, 1.0]))
        gp.fit(rng.standard_normal((5, 2)), rng.standard_normal(5))
        wider = Matern([2.0, 3.0])
        gp.kernel = wider
        scaled = wider.scale(gp._x)
        assert np.array_equal(gp._scaled.points, scaled.points)
        assert np.array_equal(gp._scaled.sq_norms, scaled.sq_norms)
