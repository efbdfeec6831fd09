"""Tests for the numerics-mode configuration and the sparse policy.

Covers :class:`~repro.core.numerics.NumericsConfig`
construction/validation and its selection through the run's process
state (:func:`repro.telemetry.runtime.configure`, the CLI flags) — plus
the deterministic inducing-subset selection of
:mod:`repro.core.sparse` and its conservative-variance property (the
argument that makes sparse mode safe for eq.-8 certification).
"""

import numpy as np
import pytest

from repro.cli import _numerics
from repro.core.numerics import NumericsConfig, active_numerics
from repro.core.gp import GaussianProcess
from repro.core.kernels import Matern
from repro.core.sparse import greedy_inducing_indices, make_eviction_policy
from repro.telemetry import runtime as telemetry


class TestNumericsConfig:
    def test_defaults_are_dense_numpy(self):
        config = NumericsConfig()
        assert not config.sparse
        assert config.sparse_budget == 256
        assert config.mode == "dense"

    @pytest.mark.parametrize("sparse,mode", [
        (False, "dense"),
        (True, "sparse"),
    ])
    def test_mode_labels(self, sparse, mode):
        assert NumericsConfig(sparse=sparse).mode == mode

    @pytest.mark.parametrize("label", ["dense", "sparse"])
    def test_from_mode_round_trips(self, label):
        config = NumericsConfig.from_mode(label)
        assert config.mode == label

    def test_from_mode_rejects_unknown(self):
        for label in ("lightspeed", "batched", "sparse-batched"):
            with pytest.raises(ValueError, match="unknown numerics mode"):
                NumericsConfig.from_mode(label)

    def test_from_mode_overrides(self):
        config = NumericsConfig.from_mode("sparse", sparse_budget=32)
        assert config.sparse and config.sparse_budget == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            NumericsConfig(sparse_budget=0)
        with pytest.raises(ValueError):
            NumericsConfig(sparse_block=0)
        with pytest.raises(ValueError):
            NumericsConfig(recent_fraction=1.5)

    def test_installed_config_selects_mode(self):
        assert active_numerics() == NumericsConfig()
        sparse = NumericsConfig(sparse=True, sparse_budget=8)
        with telemetry.configure(numerics=sparse):
            assert active_numerics() == sparse
            with telemetry.configure():  # nothing given: keep it
                assert active_numerics() == sparse
        assert active_numerics() == NumericsConfig()

    def test_mode_flag_keeps_installed_budget(self, capsys):
        with telemetry.configure(numerics=NumericsConfig(sparse_budget=99)):
            config = _numerics("sparse", None)
        assert config == NumericsConfig(sparse=True, sparse_budget=99)
        assert "numerics mode: sparse" in capsys.readouterr().out

    def test_flags_override_installed_config(self):
        installed = NumericsConfig(sparse=True, sparse_budget=99)
        with telemetry.configure(numerics=installed):
            assert _numerics("dense", 11) == NumericsConfig(sparse_budget=11)
            assert _numerics(None, 11) == NumericsConfig(sparse=True,
                                                         sparse_budget=11)
        with pytest.raises(SystemExit, match="sparse_budget"):
            _numerics("sparse", 0)

    def test_no_flags_keep_installed_config(self):
        assert _numerics(None, None) is None


class TestGreedyInducingSelection:
    def test_selects_all_when_budget_covers(self, rng):
        x = rng.random((5, 3))
        np.testing.assert_array_equal(
            greedy_inducing_indices(x, 8), np.arange(5)
        )

    def test_deterministic_sorted_unique(self, rng):
        x = rng.random((40, 7))
        first = greedy_inducing_indices(x, 12)
        second = greedy_inducing_indices(x, 12)
        np.testing.assert_array_equal(first, second)
        assert first.size == 12
        assert np.all(np.diff(first) > 0)  # sorted, unique

    def test_seeds_from_most_recent_row(self, rng):
        x = rng.random((10, 2))
        assert 9 in greedy_inducing_indices(x, 3)

    def test_farthest_point_behaviour(self):
        # Seed is the last row (value 2); rows 0 and 4 are the extremes.
        x = np.array([[0.0], [0.9], [1.1], [1.9], [4.0], [2.0]])
        np.testing.assert_array_equal(
            greedy_inducing_indices(x, 3), [0, 4, 5]
        )

    def test_tie_breaks_to_lowest_index(self):
        # Rows 0 and 1 are equidistant from the seed (row 2).
        x = np.array([[0.0], [4.0], [2.0]])
        np.testing.assert_array_equal(
            greedy_inducing_indices(x, 2), [0, 2]
        )

    def test_preselected_rows_forced(self, rng):
        x = rng.random((30, 4))
        keep = greedy_inducing_indices(x, 10, preselected=[3, 17])
        assert {3, 17} <= set(keep.tolist())

    def test_lengthscales_change_the_metric(self):
        # Dimension 0 dominates unscaled; huge lengthscale mutes it so
        # dimension 1 decides instead.
        x = np.array([[0.0, 0.0], [10.0, 0.1], [0.0, 1.0], [0.1, 0.0]])
        unscaled = greedy_inducing_indices(x, 2, preselected=[0])
        muted = greedy_inducing_indices(
            x, 2, lengthscales=[1000.0, 1.0], preselected=[0]
        )
        assert 1 in unscaled
        assert 2 in muted

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            greedy_inducing_indices(rng.random(5), 2)  # 1-D
        with pytest.raises(ValueError):
            greedy_inducing_indices(rng.random((5, 2)), 0)
        with pytest.raises(ValueError):
            greedy_inducing_indices(
                rng.random((5, 2)), 2, preselected=[0, 1, 2]
            )


class TestEvictionPolicy:
    def test_under_budget_keeps_everything(self, rng):
        policy = make_eviction_policy()
        np.testing.assert_array_equal(
            policy(rng.random((6, 3)), rng.normal(size=6), 10),
            np.arange(6),
        )

    def test_over_budget_trims_to_budget_with_recent_block(self, rng):
        policy = make_eviction_policy(recent_fraction=0.25)
        x = rng.random((50, 3))
        keep = policy(x, rng.normal(size=50), 20)
        assert keep.size == 20
        # The newest round(20 * 0.25) = 5 rows are always retained.
        assert set(range(45, 50)) <= set(keep.tolist())

    def test_deterministic(self, rng):
        policy = make_eviction_policy(lengthscales=np.full(3, 0.8))
        x, y = rng.random((40, 3)), rng.normal(size=40)
        np.testing.assert_array_equal(policy(x, y, 16), policy(x, y, 16))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            make_eviction_policy(recent_fraction=-0.1)
        policy = make_eviction_policy()
        with pytest.raises(ValueError):
            policy(rng.random((5, 2)), rng.normal(size=5), 0)


class TestSubsetVarianceConservatism:
    def test_subset_posterior_variance_upper_bounds_full(self, rng):
        """The property that keeps eq.-8 valid in sparse mode.

        Conditioning on more observations never increases posterior
        variance, so a subset-of-data GP reports variances >= the
        full-data GP's at every query point.
        """
        d = 5
        kernel = Matern(lengthscales=np.full(d, 0.7), output_scale=2.0)
        x = rng.random((60, d))
        y = rng.normal(size=60)
        query = rng.random((25, d))

        full = GaussianProcess(kernel, noise_variance=0.05)
        full.fit(x, y)
        _, full_var = full.predict(query)

        keep = greedy_inducing_indices(x, 20, lengthscales=kernel.lengthscales)
        subset = GaussianProcess(kernel, noise_variance=0.05)
        subset.fit(x[keep], y[keep])
        _, subset_var = subset.predict(query)

        assert np.all(subset_var >= full_var - 1e-10)
