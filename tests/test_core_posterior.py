"""Tests for the incremental multi-head posterior engine.

Covers the tentpole invariants: engine posteriors match direct
``GaussianProcess.predict`` within 1e-8 through any mix of ``add``,
eviction, ``set_prior_mean``, ``fit`` and hyperparameter changes; the
GP consistency invariant (incremental state equals a fresh ``fit`` on
the retained data) parametrised over the direct and the engine path;
cache/invalidation behaviour; and the batch/stat APIs.
"""

import gc
import multiprocessing
import sys
import threading
import weakref

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrsm

from repro.core import posterior, state
from repro.core.edgebol import EdgeBOL, EdgeBOLConfig
from repro.core.gp import GaussianProcess
from repro.core.kernels import Matern
from repro.core.posterior import PosteriorBatch, SurrogateEngine, _solve_rows
from repro.experiments.runner import run_agent
from repro.testbed.config import CostWeights, ServiceConstraints, TestbedConfig
from repro.testbed.scenarios import static_scenario

CONTEXT_DIM = 3
CONTROL_DIM = 4
TOL = 1e-8


def make_grid(rng, n_points=60):
    return rng.random((n_points, CONTROL_DIM))


def make_gp(output_scale=4.0, prior_mean=0.0, **kwargs):
    kernel = Matern(
        lengthscales=np.full(CONTEXT_DIM + CONTROL_DIM, 0.7),
        output_scale=output_scale,
    )
    return GaussianProcess(kernel, noise_variance=0.01,
                           prior_mean=prior_mean, **kwargs)


def make_engine(grid, heads=None, **kwargs):
    if heads is None:
        heads = {
            "cost": make_gp(output_scale=4.0),
            "delay": make_gp(output_scale=0.02, prior_mean=0.8),
            "map": make_gp(output_scale=0.02),
        }
    return SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM, **kwargs), heads


def assert_variances_are_exact_sums(engine, batch, context):
    """Running variances equal a fresh sum over the cached rows, bitwise.

    The engine folds each new ``v`` row into ``sumsq`` in arrival order;
    recomputing ``np.sum(v**2, axis=0)`` over the whole cache must give
    the same bits, or the accumulation order has drifted.
    """
    _, states = engine._entry(context)
    for name in batch.heads:
        head = states[name]
        v = head.v[:head.n]
        expected = np.maximum(head.prior_var - np.sum(v**2, axis=0), 0.0)
        np.testing.assert_array_equal(batch.variance(name), expected)


def assert_matches_direct(engine, heads, context, tol=TOL):
    batch = engine.posterior(context)
    assert_variances_are_exact_sums(engine, batch, context)
    joint = engine.joint_grid(context)
    for name, gp in heads.items():
        mean, var = gp.predict(joint)
        np.testing.assert_allclose(batch.mean(name), mean, atol=tol, rtol=0)
        np.testing.assert_allclose(batch.variance(name), var, atol=tol, rtol=0)
        d_mean, d_std = gp.predict_std(joint)
        np.testing.assert_allclose(batch.moments(name)[1], d_std,
                                   atol=tol, rtol=0)
        del d_mean


class TestEngineMatchesDirectPredict:
    def test_empty_heads_return_prior(self):
        rng = np.random.default_rng(0)
        engine, heads = make_engine(make_grid(rng))
        assert_matches_direct(engine, heads, rng.random(CONTEXT_DIM))

    def test_incremental_adds(self):
        rng = np.random.default_rng(1)
        grid = make_grid(rng)
        engine, heads = make_engine(grid)
        contexts = [rng.random(CONTEXT_DIM) for _ in range(3)]
        for t in range(40):
            z = np.concatenate([contexts[t % 3], grid[t % grid.shape[0]]])
            for gp in heads.values():
                gp.add(z, float(rng.normal()))
            assert_matches_direct(engine, heads, contexts[t % 3])

    def test_mixed_mutations(self):
        """add / evict / set_prior_mean / fit / kernel swap, all exact."""
        rng = np.random.default_rng(2)
        grid = make_grid(rng)
        heads = {
            "cost": make_gp(max_observations=15, eviction_block=5),
            "delay": make_gp(output_scale=0.02, prior_mean=0.8),
        }
        engine, _ = make_engine(grid, heads=heads)
        context = rng.random(CONTEXT_DIM)
        for t in range(50):
            z = np.concatenate([rng.random(CONTEXT_DIM), grid[t % 60]])
            for gp in heads.values():
                gp.add(z, float(rng.normal()))
            if t == 20:
                heads["delay"].set_prior_mean(1.5)
            if t == 30:
                gp = heads["cost"]
                gp.kernel = Matern(
                    lengthscales=np.full(CONTEXT_DIM + CONTROL_DIM, 0.9),
                    output_scale=5.0,
                )
                gp.fit(gp.inputs, gp.targets)
            if t == 40:
                heads["delay"].fit(
                    heads["delay"].inputs[:10], heads["delay"].targets[:10]
                )
            assert_matches_direct(engine, heads, context)

    def test_seeded_run_150_periods(self):
        """The acceptance check: a seeded 150-period run stays within 1e-8.

        Each context recurs every fourth period, so every query after
        the first cycle is a four-row extension.
        """
        rng = np.random.default_rng(3)
        grid = make_grid(rng, n_points=80)
        engine, heads = make_engine(grid)
        contexts = [rng.random(CONTEXT_DIM) for _ in range(4)]
        worst = 0.0
        for t in range(150):
            context = contexts[t % 4]
            batch = engine.posterior(context)
            assert_variances_are_exact_sums(engine, batch, context)
            joint = engine.joint_grid(context)
            for name, gp in heads.items():
                mean, var = gp.predict(joint)
                worst = max(
                    worst,
                    float(np.abs(batch.mean(name) - mean).max()),
                    float(np.abs(batch.variance(name) - var).max()),
                )
            z = np.concatenate([context, grid[t % 80]])
            for gp in heads.values():
                gp.add(z, float(rng.normal()))
        assert worst <= TOL


@pytest.mark.parametrize("path", ["direct", "engine"])
class TestConsistencyInvariants:
    """After add/evict/set_prior_mean the posterior equals a fresh fit."""

    def _posterior(self, path, gp, grid, context):
        if path == "direct":
            joint = np.hstack([
                np.tile(context, (grid.shape[0], 1)), grid
            ])
            return gp.predict(joint)
        engine = SurrogateEngine({"head": gp}, grid,
                                 context_dim=CONTEXT_DIM)
        # Query twice so the second pass exercises the cached state.
        engine.posterior(context)
        batch = engine.posterior(context)
        return batch.mean("head"), batch.variance("head")

    def test_matches_fresh_fit(self, path):
        rng = np.random.default_rng(4)
        grid = make_grid(rng)
        gp = make_gp(max_observations=20, eviction_block=5)
        context = rng.random(CONTEXT_DIM)
        for t in range(45):
            z = np.concatenate([rng.random(CONTEXT_DIM), grid[t % 60]])
            gp.add(z, float(rng.normal()))
            if t == 25:
                gp.set_prior_mean(0.3)
        assert gp.n_observations <= 25  # eviction really happened
        fresh = GaussianProcess(gp.kernel, noise_variance=gp.noise_variance,
                                prior_mean=gp.prior_mean)
        fresh.fit(gp.inputs, gp.targets)
        mean, var = self._posterior(path, gp, grid, context)
        ref_mean, ref_var = self._posterior("direct", fresh, grid, context)
        np.testing.assert_allclose(mean, ref_mean, atol=TOL, rtol=0)
        np.testing.assert_allclose(var, ref_var, atol=TOL, rtol=0)

    def test_incremental_add_matches_fresh_fit(self, path):
        rng = np.random.default_rng(5)
        grid = make_grid(rng)
        gp = make_gp()
        x = rng.random((12, CONTEXT_DIM + CONTROL_DIM))
        y = rng.normal(size=12)
        for row, target in zip(x, y):
            gp.add(row, float(target))
        fresh = make_gp()
        fresh.fit(x, y)
        context = rng.random(CONTEXT_DIM)
        mean, var = self._posterior(path, gp, grid, context)
        ref_mean, ref_var = self._posterior("direct", fresh, grid, context)
        np.testing.assert_allclose(mean, ref_mean, atol=TOL, rtol=0)
        np.testing.assert_allclose(var, ref_var, atol=TOL, rtol=0)


class TestCacheBehaviour:
    def test_extension_not_rebuild_on_add(self):
        rng = np.random.default_rng(6)
        grid = make_grid(rng)
        engine, heads = make_engine(grid)
        context = rng.random(CONTEXT_DIM)
        gp = heads["cost"]
        gp.add(np.concatenate([context, grid[0]]), 1.0)
        engine.posterior(context)
        rebuilds = engine.stats.rebuilds
        gp.add(np.concatenate([context, grid[1]]), 2.0)
        engine.posterior(context)
        assert engine.stats.rebuilds == rebuilds
        assert engine.stats.extensions >= 1

    def test_pure_cache_hit_costs_no_kernel_evals(self):
        rng = np.random.default_rng(7)
        grid = make_grid(rng)
        engine, heads = make_engine(grid)
        context = rng.random(CONTEXT_DIM)
        heads["cost"].add(np.concatenate([context, grid[0]]), 1.0)
        first = engine.posterior(context)
        expected = {name: (first.mean(name).copy(), first.variance(name).copy())
                    for name in first.heads}
        # A caller scribbling on its batch must not reach the cache
        # (the fitted "cost" head and the empty prior-only heads alike).
        for name in first.heads:
            first.mean(name)[:] += 1.0
            first.variance(name)[:] *= 2.0
        evals = engine.stats.kernel_evals
        again = engine.posterior(context)
        assert engine.stats.kernel_evals == evals
        assert engine.stats.cache_hits >= 1
        for name, (mean, variance) in expected.items():
            np.testing.assert_array_equal(again.mean(name), mean)
            np.testing.assert_array_equal(again.variance(name), variance)

    def test_repeat_context_workload_accumulates_cache_hits(self):
        """Benchmark-shaped loop: add-then-query never hits, re-query does.

        Regression for the committed ``BENCH_posterior.json`` showing
        ``cache_hits: 0``: the counter was fine — the benchmark added
        an observation to every head before each timed query, so every
        query legitimately took the extension path.  A same-context
        re-query with no new data must count one hit per head.
        """
        rng = np.random.default_rng(11)
        grid = make_grid(rng)
        engine, heads = make_engine(grid)
        context = rng.random(CONTEXT_DIM)
        engine.posterior(context)  # first-contact rebuilds, no hits yet
        assert engine.stats.cache_hits == 0
        rounds = 4
        for t in range(rounds):
            z = np.concatenate([context, grid[t]])
            for gp in heads.values():
                gp.add(z, float(t))
            hits_before = engine.stats.cache_hits
            engine.posterior(context)  # extension path: no hit
            assert engine.stats.cache_hits == hits_before
            engine.posterior(context)  # pure re-query: one hit per head
            assert engine.stats.cache_hits == hits_before + len(heads)
        assert engine.stats.cache_hits == rounds * len(heads)
        assert_matches_direct(engine, heads, context)

    def test_eviction_triggers_rebuild(self):
        rng = np.random.default_rng(8)
        grid = make_grid(rng)
        gp = make_gp(max_observations=5, eviction_block=2)
        engine, _ = make_engine(grid, heads={"cost": gp})
        context = rng.random(CONTEXT_DIM)
        for t in range(6):
            gp.add(np.concatenate([context, grid[t]]), float(t))
            engine.posterior(context)
        rebuilds = engine.stats.rebuilds
        for t in range(6, 10):  # push past the budget -> eviction
            gp.add(np.concatenate([context, grid[t]]), float(t))
        assert gp.n_observations <= 7
        assert_matches_direct(engine, {"cost": gp}, context)
        assert engine.stats.rebuilds > rebuilds

    def test_hyperparameter_swap_invalidates(self):
        rng = np.random.default_rng(9)
        grid = make_grid(rng)
        gp = make_gp()
        engine, _ = make_engine(grid, heads={"cost": gp})
        context = rng.random(CONTEXT_DIM)
        gp.add(np.concatenate([context, grid[0]]), 1.0)
        engine.posterior(context)
        gp.kernel = Matern(
            lengthscales=np.full(CONTEXT_DIM + CONTROL_DIM, 1.3),
            output_scale=9.0,
        )
        gp.fit(gp.inputs, gp.targets)
        assert_matches_direct(engine, {"cost": gp}, context)

    def test_noise_change_invalidates_while_empty(self):
        rng = np.random.default_rng(10)
        grid = make_grid(rng)
        gp = make_gp(output_scale=4.0)
        engine, _ = make_engine(grid, heads={"cost": gp})
        context = rng.random(CONTEXT_DIM)
        before = engine.posterior(context)
        np.testing.assert_allclose(before.variance("cost"), 4.0)
        gp.kernel = Matern(
            lengthscales=np.full(CONTEXT_DIM + CONTROL_DIM, 0.7),
            output_scale=2.0,
        )
        after = engine.posterior(context)
        np.testing.assert_allclose(after.variance("cost"), 2.0)

    def test_lru_bound(self):
        rng = np.random.default_rng(11)
        grid = make_grid(rng)
        engine, _ = make_engine(grid, max_cached_contexts=2)
        for _ in range(5):
            engine.posterior(rng.random(CONTEXT_DIM))
        assert engine.n_cached_contexts == 2
        assert engine.stats.lru_evictions == 3

    def test_reset_cache(self):
        rng = np.random.default_rng(12)
        grid = make_grid(rng)
        engine, _ = make_engine(grid)
        engine.posterior(rng.random(CONTEXT_DIM))
        assert engine.n_cached_contexts == 1
        engine.reset_cache()
        assert engine.n_cached_contexts == 0

    def test_joint_grid_layout(self):
        rng = np.random.default_rng(13)
        grid = make_grid(rng)
        engine, _ = make_engine(grid)
        context = rng.random(CONTEXT_DIM)
        joint = engine.joint_grid(context)
        np.testing.assert_array_equal(joint[:, :CONTEXT_DIM],
                                      np.tile(context, (grid.shape[0], 1)))
        np.testing.assert_array_equal(joint[:, CONTEXT_DIM:], grid)
        # Cached: same object on the second call.
        assert engine.joint_grid(context) is joint


class TestValidationAndStats:
    def test_unknown_head_raises(self):
        rng = np.random.default_rng(14)
        engine, _ = make_engine(make_grid(rng))
        with pytest.raises(KeyError):
            engine.posterior(rng.random(CONTEXT_DIM), heads=("bogus",))

    def test_subset_head_query_preserves_order(self):
        rng = np.random.default_rng(3)
        grid = make_grid(rng, n_points=20)
        engine, heads = make_engine(grid)
        context = rng.random(CONTEXT_DIM)
        z = np.concatenate([context, grid[0]])
        for gp in heads.values():
            gp.add(z, 1.0)
        batch = engine.posterior(context, heads=("delay", "cost"))
        assert batch.heads == ("delay", "cost")
        with pytest.raises(KeyError):
            engine.posterior(context, heads=("bogus",))

    def test_context_shape_and_finiteness(self):
        rng = np.random.default_rng(15)
        engine, _ = make_engine(make_grid(rng))
        with pytest.raises(ValueError):
            engine.posterior(rng.random(CONTEXT_DIM + 1))
        bad = np.array([0.1, np.nan, 0.2])
        with pytest.raises(ValueError):
            engine.posterior(bad)

    def test_head_dim_mismatch_raises(self):
        rng = np.random.default_rng(16)
        bad_gp = GaussianProcess(
            Matern(lengthscales=np.ones(2), output_scale=1.0)
        )
        with pytest.raises(ValueError):
            SurrogateEngine({"cost": bad_gp}, make_grid(rng),
                            context_dim=CONTEXT_DIM)

    def test_constructor_validation(self):
        rng = np.random.default_rng(17)
        grid = make_grid(rng)
        with pytest.raises(ValueError):
            SurrogateEngine({}, grid, context_dim=CONTEXT_DIM)
        with pytest.raises(ValueError):
            make_engine(grid, max_cached_contexts=0)

    def test_stats_snapshot_keys(self):
        rng = np.random.default_rng(18)
        engine, _ = make_engine(make_grid(rng))
        engine.posterior(rng.random(CONTEXT_DIM))
        snap = engine.stats.snapshot()
        for key in ("queries", "head_queries", "kernel_evals", "cache_hits",
                    "extensions", "rebuilds", "lru_evictions", "lane_sweeps",
                    "wall_time_s"):
            assert key in snap
        assert snap["queries"] == 1
        assert snap["head_queries"] == 3

    def test_batch_accessors(self):
        rng = np.random.default_rng(19)
        grid = make_grid(rng)
        engine, _ = make_engine(grid)
        batch = engine.posterior(rng.random(CONTEXT_DIM))
        assert isinstance(batch, PosteriorBatch)
        assert batch.n_points == grid.shape[0]
        assert set(batch.heads) == {"cost", "delay", "map"}
        mean, std = batch.moments("cost")
        np.testing.assert_allclose(std, np.sqrt(batch.variance("cost")))
        assert mean.shape == (grid.shape[0],)
        # std is cached after the first derivation.
        assert batch.std("cost") is batch.std("cost")


def feed(heads, context, rng, count):
    """``count`` adds of one observation to every head, under ``context``."""
    for _ in range(count):
        z = np.concatenate([context, rng.random(CONTROL_DIM)])
        y = float(rng.standard_normal())
        for gp in heads.values():
            gp.add(z, y)


class TestReservedRows:
    def test_v_buffer_stays_put_while_n_fits(self):
        """Rebuilds, extensions and context returns write in place."""
        rng = np.random.default_rng(32)
        grid = make_grid(rng)
        engine, heads = make_engine(grid)
        home, away = rng.random(CONTEXT_DIM), rng.random(CONTEXT_DIM)
        feed(heads, home, rng, 5)
        engine.posterior(home)
        states = engine._entry(home)[1]
        reserve = posterior.RESERVE_BYTES // (8 * grid.shape[0])
        assert all(s.v.shape == (reserve, grid.shape[0])
                   for s in states.values())
        where = {name: s.v.ctypes.data for name, s in states.items()}

        def assert_in_place():
            assert {name: s.v.ctypes.data
                    for name, s in states.items()} == where

        feed(heads, home, rng, 1)
        engine.posterior(home)  # 1-row extension
        assert_in_place()
        feed(heads, home, rng, 3)
        engine.posterior(home)  # 3-row extension
        assert_in_place()
        for _ in range(4):
            feed(heads, away, rng, 2)
            engine.posterior(away)
        engine.posterior(home)  # context return: an 8-row extension
        assert_in_place()
        assert all(s.row_ends == [5, 6, 9, 17] for s in states.values())
        for gp in heads.values():
            gp.fit(gp.inputs, gp.targets)
        rebuilds = engine.stats.rebuilds
        engine.posterior(home)
        assert engine.stats.rebuilds == rebuilds + len(heads)
        assert_in_place()
        assert_matches_direct(engine, heads, home)

    def test_overflow_copy_path_matches_a_reserved_engine(self, monkeypatch):
        """Past a 3-row reservation ``v`` doubles; the bytes do not move."""
        rng = np.random.default_rng(33)
        grid = make_grid(rng)
        heads = {
            "cost": make_gp(output_scale=4.0),
            "delay": make_gp(output_scale=0.02, prior_mean=0.8),
        }
        roomy = SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM)
        tight = SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM)
        reserve = posterior.RESERVE_BYTES
        home, away = rng.random(CONTEXT_DIM), rng.random(CONTEXT_DIM)

        def assert_same_bytes(context):
            monkeypatch.setattr(posterior, "RESERVE_BYTES", reserve)
            want = roomy.posterior(context)
            monkeypatch.setattr(posterior, "RESERVE_BYTES",
                                3 * 8 * grid.shape[0])
            got = tight.posterior(context)
            for name in heads:
                assert got.mean(name).tobytes() == want.mean(name).tobytes()
                assert got.variance(name).tobytes() \
                    == want.variance(name).tobytes()

        feed(heads, home, rng, 2)
        assert_same_bytes(home)  # rebuild into a 3-row reservation
        for count in (1, 1, 3, 1):
            feed(heads, home, rng, count)
            assert_same_bytes(home)  # extensions past it: copy, double
        feed(heads, away, rng, 4)
        assert_same_bytes(away)
        feed(heads, away, rng, 6)
        assert_same_bytes(away)
        assert_same_bytes(home)  # a context return that regrows
        for gp in heads.values():
            gp.fit(gp.inputs, gp.targets)
        assert_same_bytes(home)  # a rebuild that fits the grown buffer
        tight_rows = tight._entry(home)[1]["cost"].v.shape[0]
        assert tight_rows == 24  # 3, 6, 12, 24 rows: three doublings
        assert roomy._entry(home)[1]["cost"].v.shape[0] \
            == reserve // (8 * grid.shape[0])

    def test_v_bytes_follow_n(self):
        rng = np.random.default_rng(34)
        grid = make_grid(rng)
        engine, heads = make_engine(grid)
        row = 8 * grid.shape[0]
        reserved = len(heads) * (posterior.RESERVE_BYTES // row) * row
        assert engine.v_bytes == (0, 0)
        home, away = rng.random(CONTEXT_DIM), rng.random(CONTEXT_DIM)
        engine.posterior(home)  # empty heads write and reserve nothing
        assert engine.v_bytes == (0, 0)
        feed(heads, home, rng, 4)
        engine.posterior(home)
        assert engine.v_bytes == (len(heads) * 4 * row, reserved)
        feed(heads, home, rng, 3)
        engine.posterior(home)
        engine.posterior(away)
        assert engine.v_bytes == (2 * len(heads) * 7 * row, 2 * reserved)
        engine.reset_cache()
        assert engine.v_bytes == (0, 0)


def sharing_heads():
    """EdgeBOL-shaped heads: cost and delay share one correlation.

    ``map`` has other lengthscales; ``twin`` has cost's lengthscales but
    is fed other observations, so neither may share cost's block.
    """
    shared = np.full(CONTEXT_DIM + CONTROL_DIM, 0.7)
    return {
        "cost": GaussianProcess(Matern(shared, output_scale=4.0),
                                noise_variance=0.01),
        "delay": GaussianProcess(Matern(shared, output_scale=0.02),
                                 noise_variance=0.01, prior_mean=0.8),
        "map": GaussianProcess(
            Matern(np.full(CONTEXT_DIM + CONTROL_DIM, 0.9),
                   output_scale=0.02), noise_variance=0.01),
        "twin": GaussianProcess(Matern(shared, output_scale=1.5),
                                noise_variance=0.01),
    }


class TestSharedCorrelation:
    def test_moments_do_not_depend_on_the_heads_swept_together(self):
        """A head's moments are the same bytes alone or beside sharers.

        Fails if heads share a block across lengthscales (``map``) or
        inputs (``twin``), or if a sharer skips its own output scale.
        """
        rng = np.random.default_rng(30)
        grid = make_grid(rng)
        context = rng.random(CONTEXT_DIM)
        together = sharing_heads()
        alone = {name: sharing_heads()[name] for name in together}
        engine = SurrogateEngine(together, grid, context_dim=CONTEXT_DIM)
        lone = {name: SurrogateEngine({name: gp}, grid,
                                      context_dim=CONTEXT_DIM)
                for name, gp in alone.items()}

        def feed(count):
            for _ in range(count):
                z = np.concatenate([context, rng.random(CONTROL_DIM)])
                twin_z = np.concatenate([context, rng.random(CONTROL_DIM)])
                y = float(rng.standard_normal())
                for heads in (together, alone):
                    for name, gp in heads.items():
                        gp.add(twin_z if name == "twin" else z, y)

        def assert_same_bytes():
            batch = engine.posterior(context)
            for name, lone_engine in lone.items():
                want = lone_engine.posterior(context)
                assert batch.mean(name).tobytes() == want.mean(name).tobytes()
                assert batch.variance(name).tobytes() \
                    == want.variance(name).tobytes()

        x = rng.random((12, CONTEXT_DIM + CONTROL_DIM))
        x_twin = rng.random((12, CONTEXT_DIM + CONTROL_DIM))
        y = rng.standard_normal(12)
        for heads in (together, alone):
            for name, gp in heads.items():
                gp.fit(x_twin if name == "twin" else x, y)
        assert_same_bytes()  # rebuild
        for _ in range(2):
            feed(1)
            assert_same_bytes()  # 1-row extensions
        feed(3)
        assert_same_bytes()  # multi-row extension
        # One block for cost and delay, counted once.
        lone_evals = {name: e.stats.kernel_evals for name, e in lone.items()}
        assert engine.stats.kernel_evals \
            == sum(lone_evals.values()) - lone_evals["delay"]

    def test_sharers_share_the_scaled_grid(self):
        rng = np.random.default_rng(31)
        grid = make_grid(rng)
        heads = sharing_heads()
        for gp in heads.values():
            gp.fit(rng.random((5, CONTEXT_DIM + CONTROL_DIM)),
                   rng.standard_normal(5))
        engine = SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM)
        context = rng.random(CONTEXT_DIM)
        engine.posterior(context)
        states = engine._entry(context)[1]
        assert states["cost"].scaled is states["delay"].scaled
        assert states["cost"].scaled is states["twin"].scaled
        assert states["map"].scaled is not states["cost"].scaled


def lower_factor(k, seed=40):
    """A kernel-matrix Cholesky factor (C-ordered) and rows to solve."""
    rng = np.random.default_rng(seed)
    gp = GaussianProcess(Matern(np.full(7, 0.7), output_scale=4.0),
                         noise_variance=0.01)
    x = rng.random((k, 7))
    gp.fit(x, rng.standard_normal(k))
    chol = np.ascontiguousarray(gp._chol)
    rows = gp.kernel(x, rng.random((300, 7)))
    return chol, rows


def strided(chol, fortran):
    """``chol`` as the leading block of a larger buffer, like a GP's."""
    k = chol.shape[0]
    buffer = np.zeros((k + 5, k + 5), order="F" if fortran else "C")
    buffer[2:2 + k, 3:3 + k] = chol
    return buffer[2:2 + k, 3:3 + k]


class TestRowSolve:
    @pytest.mark.parametrize("layout", [
        np.asfortranarray,
        lambda chol: strided(chol, fortran=False),
        lambda chol: strided(chol, fortran=True),
    ], ids=["fortran", "strided-c", "strided-f"])
    @pytest.mark.parametrize("k", [1, 2, 30])
    def test_memory_order_of_the_factor_does_not_change_bits(self, layout,
                                                             k):
        chol, rows = lower_factor(k)
        want = rows.copy()
        _solve_rows(chol, want)
        got = rows.copy()
        _solve_rows(layout(chol), got)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 30])
    def test_agrees_with_solve_triangular(self, k):
        """Per grid column within 1e-13 of its largest entry.

        A right-side solve rounds differently from the left-side one;
        seen: at most ~20 ulps of the column maximum.
        """
        chol, rows = lower_factor(k)
        want = solve_triangular(chol, rows, lower=True)
        got = rows.copy()
        _solve_rows(chol, got)
        error = np.max(np.abs(got - want), axis=0)
        assert np.all(error <= 1e-13 * np.max(np.abs(want), axis=0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["factor", "rows"])
    @pytest.mark.parametrize("k", [1, 4])
    def test_non_finite_input_raises(self, value, where, k):
        chol, rows = lower_factor(k)
        if where == "factor":
            chol[-1, 0] = value
        else:
            rows[-1, 7] = value
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solve_rows(chol, rows)

    @pytest.mark.parametrize("bad", ["fortran-rows", "float32-rows",
                                     "short-factor"])
    def test_blocks_blas_cannot_take_are_rejected(self, bad):
        """Checked before any pointer reaches BLAS."""
        chol, rows = lower_factor(4)
        if bad == "fortran-rows":
            rows = np.asfortranarray(rows)
        elif bad == "float32-rows":
            rows = rows.astype(np.float32)
        else:
            chol = chol[:3, :3]
        with pytest.raises(ValueError):
            _solve_rows(chol, rows)

    @pytest.mark.parametrize("k", [2, 30])
    @pytest.mark.parametrize("fortran", [False, True])
    def test_same_bits_as_the_scipy_wrapper(self, k, fortran):
        """The GIL-free call is the routine scipy's ``dtrsm`` wraps."""
        chol, rows = lower_factor(k)
        want = rows.copy()
        dtrsm(1.0, chol, want.T, side=1, lower=1, trans_a=1, overwrite_b=1)
        got = rows.copy()
        _solve_rows(strided(chol, fortran), got)
        assert got.tobytes() == want.tobytes()


# -- two lanes -------------------------------------------------------------


def lane_heads(kind):
    """Head sets whose sweeps split differently over the two lanes.

    ``edgebol``: two correlation groups (cost + delay, map); ``shared``:
    the ``BENCH_posterior`` heads, one three-way group; ``decoupled``:
    the four heads EdgeBOL's decoupled-power mode sweeps (delay and the
    two power heads share one group) plus an ``idle`` head that never
    sees data.
    """
    shared = np.full(CONTEXT_DIM + CONTROL_DIM, 0.7)
    other = np.full(CONTEXT_DIM + CONTROL_DIM, 0.9)

    def gp(scale, lengthscales=shared, noise=0.01, prior_mean=0.0):
        return GaussianProcess(Matern(lengthscales, output_scale=scale),
                               noise_variance=noise, prior_mean=prior_mean)

    if kind == "edgebol":
        return {"cost": gp(4.0), "delay": gp(0.02, prior_mean=0.8),
                "map": gp(0.02, other)}
    if kind == "shared":
        return {"cost": gp(60.0**2, noise=4.0),
                "delay": gp(0.15**2, noise=4e-4, prior_mean=0.8),
                "map": gp(0.15**2, noise=4e-4)}
    return {"delay": gp(0.02, prior_mean=0.8), "map": gp(0.02, other),
            "server_power": gp(1600.0, noise=6.0), "bs_power": gp(2.25),
            "idle": gp(1.0)}


def play_sweeps(kind, n_points=60, scale=1):
    """Every kind of sweep on one engine; returns all the bytes it left.

    Rebuild, 1- and 3-row extensions, a cache hit, a context return,
    prior-mean changes with and without new rows, a rebuild after a
    refit and a subset sweep: each sweep's moments and ``v`` rows, then
    the engine's stats (bar wall time) and its snapshot.  ``scale``
    multiplies every block's rows: with a few thousand grid points and
    ``scale=4`` the lanes' BLAS calls run long enough to overlap.
    """
    rng = np.random.default_rng(60)
    grid = make_grid(rng, n_points)
    heads = lane_heads(kind)
    fed = {name: gp for name, gp in heads.items() if name != "idle"}
    engine = SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM)
    home, away = rng.random(CONTEXT_DIM), rng.random(CONTEXT_DIM)
    trace = []

    def sweep(context, names=None):
        batch = engine.posterior(context, heads=names)
        for name in batch.heads:
            trace.append(batch.mean(name).tobytes())
            trace.append(batch.variance(name).tobytes())
        for head in engine._cache[context.tobytes()][1].values():
            trace.append(head.v[:head.n].tobytes())

    feed(fed, home, rng, 6 * scale)
    sweep(home)  # rebuild
    feed(fed, home, rng, 1)
    sweep(home)
    feed(fed, home, rng, 3 * scale)
    sweep(home)
    sweep(home)  # cache hit
    for _ in range(3):
        feed(fed, away, rng, 2 * scale)
        sweep(away)
    sweep(home)  # context return: 6 blocks' rows at once
    heads["delay"].set_prior_mean(0.7)
    feed(fed, home, rng, 2 * scale)
    sweep(home)
    heads["map"].set_prior_mean(0.1)
    sweep(home)  # a stale mean, no new rows
    for gp in fed.values():
        gp.fit(gp.inputs, gp.targets)
    sweep(home)  # rebuild after a refit
    feed(fed, home, rng, 2)
    sweep(home, names=("map", "delay"))
    stats = engine.stats.snapshot()
    del stats["wall_time_s"], stats["lane_sweeps"]  # how it ran, not what
    trace.append(repr(stats).encode())
    trace.append(state.encode_snapshot(state.engine_state(engine)))
    return trace


def force_inline(monkeypatch):
    """Put both lane thresholds out of reach: every sweep runs inline."""
    monkeypatch.setattr(posterior, "_LANE_ELEMENTS", 1 << 62)
    monkeypatch.setattr(posterior, "_LANE_POINTS", 1 << 62)


def inline_then_two_lanes(monkeypatch, jobs, play):
    """``play()`` inline, then on two lanes; returns both results."""
    force_inline(monkeypatch)
    inline = play()
    assert not jobs
    monkeypatch.setattr(posterior, "_LANE_ELEMENTS", 0)
    lanes = play()
    assert jobs, "no task ran on the worker lane"
    return inline, lanes


class TestTwoLanes:
    @pytest.mark.parametrize("kind, n_points, scale", [
        ("edgebol", 60, 1), ("shared", 60, 1), ("decoupled", 60, 1),
        ("edgebol", 4000, 4),  # long enough for the lanes to overlap
    ])
    def test_every_sweep_is_byte_equal_to_inline(self, kind, n_points, scale,
                                                 monkeypatch, two_lanes):
        inline, lanes = inline_then_two_lanes(
            monkeypatch, two_lanes,
            lambda: play_sweeps(kind, n_points, scale))
        assert len(lanes) == len(inline)
        for got, want in zip(lanes, inline):
            assert got == want

    def test_edgebol_decoupled_power_run_is_byte_equal(self, monkeypatch,
                                                       two_lanes):
        """Four heads and an agent's whole loop, through the engine."""
        testbed = TestbedConfig(n_levels=3)

        def run():
            env = static_scenario(n_users=1, rng=3, config=testbed)
            agent = EdgeBOL(testbed.control_grid(), ServiceConstraints(),
                            CostWeights(1.0, 1.0),
                            config=EdgeBOLConfig(decoupled_power_gps=True))
            log = run_agent(env, agent, 12)
            return log.as_rows(), agent.engine.stats.snapshot()["rebuilds"]

        inline, lanes = inline_then_two_lanes(monkeypatch, two_lanes, run)
        assert lanes == inline

    def test_callers_on_three_threads_share_the_worker(self, monkeypatch,
                                                       two_lanes):
        """Three threads sweep their own engines through the one worker,
        with the interpreter switching threads as often as it can."""
        inline, _ = inline_then_two_lanes(
            monkeypatch, two_lanes, lambda: play_sweeps("edgebol", 2000, 4))
        traces = [None] * 3

        def play(index):
            traces[index] = play_sweeps("edgebol", 2000, 4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=play, args=(index,))
                       for index in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(trace == inline for trace in traces)

    def test_tasks_go_largest_first_to_the_idler_lane(self, two_lanes):
        ran = []

        def task(name):
            return lambda lane: ran.append(name) or name

        sizes = {"a": 1, "b": 5, "c": 3, "d": 3}
        results = posterior._run(
            [(size, task(name)) for name, size in sizes.items()],
            posterior._Lane())
        assert results == ["a", "b", "c", "d"]  # in task order
        # b to the caller, c and d to the worker (loads 5 vs 3, then
        # 5 vs 6), a to the caller.
        assert [[index for index, _ in job] for job in two_lanes] == [[2, 3]]
        assert sorted(ran) == ["a", "b", "c", "d"]

    def test_a_worker_lane_error_surfaces_and_the_next_sweep_recovers(
            self, two_lanes):
        rng = np.random.default_rng(61)
        grid = make_grid(rng)
        heads = lane_heads("edgebol")
        engine = SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM)
        home = rng.random(CONTEXT_DIM)
        feed(heads, home, rng, 5)
        engine.posterior(home)
        feed(heads, home, rng, 3)
        # Equal sizes: cost to the caller, delay to the worker, map to
        # the caller (tied loads go to the caller).
        gp = heads["delay"]
        n = gp.n_observations
        saved = gp._chol[n - 1, n - 2]
        gp._chol[n - 1, n - 2] = np.nan
        two_lanes.clear()
        with pytest.raises(ValueError, match="infs or NaNs"):
            engine.posterior(home)
        worker_gps = {task.args[0].gp for job in two_lanes for _, task in job
                      if task.func == SurrogateEngine._finish}
        assert worker_gps == {gp}
        gp._chol[n - 1, n - 2] = saved
        assert_matches_direct(engine, heads, home)

    def test_the_worker_keeps_nothing_of_a_finished_sweep(self, two_lanes):
        rng = np.random.default_rng(64)
        heads = lane_heads("edgebol")
        engine = SurrogateEngine(heads, make_grid(rng),
                                 context_dim=CONTEXT_DIM)
        home = rng.random(CONTEXT_DIM)
        feed(heads, home, rng, 4)
        engine.posterior(home)
        assert two_lanes
        two_lanes.clear()  # the fixture's record of the tasks
        gps = [weakref.ref(gp) for gp in heads.values()]
        del engine, heads
        gc.collect()
        assert all(ref() is None for ref in gps)

    def test_lane_scratch_grows_to_the_largest_block_only(self):
        lane = posterior._Lane()
        first = lane.scratch(3, 10)
        assert first.shape == (3, 10) and first.flags.c_contiguous
        assert lane.scratch(2, 15).base is first.base  # 30 elements fit
        assert lane.scratch(5, 10).base.size == 50  # grown, not doubled

    @pytest.mark.filterwarnings(
        "ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_sweeps_after_the_parent_used_the_worker(
            self, two_lanes):
        rng = np.random.default_rng(62)
        grid = make_grid(rng)
        heads = lane_heads("edgebol")
        engine = SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM)
        home, away = rng.random(CONTEXT_DIM), rng.random(CONTEXT_DIM)
        feed(heads, home, rng, 5)
        engine.posterior(home)
        assert two_lanes and posterior._worker is not None
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)

        def child():
            batch = engine.posterior(away)
            sender.send([batch.mean(name).tobytes() for name in heads])

        process = context.Process(target=child)
        process.start()
        process.join(timeout=60)
        if process.is_alive():
            process.kill()
            pytest.fail("the forked child hung in its sweep")
        assert process.exitcode == 0
        batch = engine.posterior(away)
        assert receiver.recv() == [batch.mean(name).tobytes()
                                   for name in heads]


def test_fleet_sized_sweeps_stay_inline(monkeypatch):
    """The fleet's 625-point grid over a 100-period episode never
    reaches the worker: a cold three-head rebuild of all 100 rows is
    below the threshold, whatever the CPUs."""
    monkeypatch.setattr(posterior, "_cpus", lambda: 2)
    submitted = []
    monkeypatch.setattr(posterior._Worker, "submit",
                        lambda self, tasks, results: submitted.append(tasks))
    testbed = TestbedConfig(n_levels=5)
    grid = testbed.control_grid()
    assert 3 * 100 * grid.shape[0] < posterior._LANE_ELEMENTS
    rng = np.random.default_rng(63)
    heads = lane_heads("edgebol")
    engine = SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM)
    home, away = rng.random(CONTEXT_DIM), rng.random(CONTEXT_DIM)
    feed(heads, away, rng, 100)
    engine.posterior(home)  # cold rebuild of 100 rows per head
    feed(heads, home, rng, 1)
    engine.posterior(home)
    assert not submitted


# -- when the lanes engage -------------------------------------------------


@pytest.mark.parametrize("kind, jobs", [
    ("shared", 1),  # one correlation group: one fill, the solves split
    ("edgebol", 2),  # two groups: the fills split, then the solves
])
def test_paper_grid_one_row_sweeps_use_two_lanes(kind, jobs, lane_jobs):
    """At the module's thresholds, a three-head one-row extension on the
    paper's 11^4 grid takes the worker: the grid reaches
    ``_LANE_POINTS`` though its rows x M stay below ``_LANE_ELEMENTS``."""
    grid = TestbedConfig(n_levels=11).control_grid()
    assert grid.shape[0] >= posterior._LANE_POINTS
    assert 3 * grid.shape[0] < posterior._LANE_ELEMENTS
    rng = np.random.default_rng(66)
    heads = lane_heads(kind)
    engine = SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM)
    home = rng.random(CONTEXT_DIM)
    feed(heads, home, rng, 5)
    engine.posterior(home)
    feed(heads, home, rng, 1)
    lane_jobs.clear()
    engine.posterior(home)
    assert engine.stats.extensions == 3
    assert len(lane_jobs) == jobs
    assert engine.stats.lane_sweeps == 2
    engine.posterior(home)  # a cache hit: no new rows, no hand-off
    assert len(lane_jobs) == jobs
    assert engine.stats.lane_sweeps == 2


def test_mid_sized_grid_sweeps_stay_inline(lane_jobs):
    """On a 7^4 = 2,401-point grid, below ``_LANE_POINTS``, three-head
    one-row and 10-row sweeps never reach the worker."""
    grid = TestbedConfig(n_levels=7).control_grid()
    assert grid.shape[0] < posterior._LANE_POINTS
    assert 3 * 10 * grid.shape[0] < posterior._LANE_ELEMENTS
    rng = np.random.default_rng(67)
    heads = lane_heads("edgebol")
    engine = SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM)
    home = rng.random(CONTEXT_DIM)
    for rows in (10, 1, 10, 1):
        feed(heads, home, rng, rows)
        engine.posterior(home)  # a 10-row rebuild, then extensions
    assert engine.stats.extensions == 9
    assert not lane_jobs
    assert engine.stats.lane_sweeps == 0


def test_one_row_extensions_at_the_module_thresholds_match_inline(
        monkeypatch, lane_jobs):
    """One-row extensions on a grid of exactly ``_LANE_POINTS`` points
    leave the same moments, ``v`` rows and stats on two lanes as
    forced inline."""

    n_points = posterior._LANE_POINTS

    def play():
        rng = np.random.default_rng(68)
        grid = make_grid(rng, n_points)
        heads = lane_heads("edgebol")
        engine = SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM)
        home = rng.random(CONTEXT_DIM)
        trace = []
        feed(heads, home, rng, 4)
        for _ in range(6):
            batch = engine.posterior(home)
            for name in batch.heads:
                trace.append(batch.mean(name).tobytes())
                trace.append(batch.variance(name).tobytes())
            for head in engine._cache[home.tobytes()][1].values():
                trace.append(head.v[:head.n].tobytes())
            feed(heads, home, rng, 1)
        stats = engine.stats.snapshot()
        del stats["wall_time_s"]
        return trace, stats.pop("lane_sweeps"), stats

    lanes, lane_sweeps, stats = play()
    assert lane_jobs and lane_sweeps == 6
    lane_jobs.clear()
    force_inline(monkeypatch)
    inline, inline_sweeps, inline_stats = play()
    assert not lane_jobs and inline_sweeps == 0
    assert len(lanes) == len(inline)
    for got, want in zip(lanes, inline):
        assert got == want
    assert stats == inline_stats


@pytest.mark.parametrize("levels", [11, 5])
def test_lane_sweeps_count_the_edgebol_sweeps_on_two_lanes(levels,
                                                           lane_jobs):
    """On the paper grid every three-head sweep after the first (which
    has no observations, so no rows) runs on two lanes; on the fleet's
    625-point grid none does.  The run log's engine table carries the
    count."""
    testbed = TestbedConfig(n_levels=levels)
    env = static_scenario(n_users=1, rng=3, config=testbed)
    agent = EdgeBOL(testbed.control_grid(), ServiceConstraints(),
                    CostWeights(1.0, 1.0))
    log = run_agent(env, agent, 6)
    stats = log.engine_stats
    assert stats["queries"] == 6 and stats["head_queries"] == 18
    expected = stats["queries"] - 1 if levels == 11 else 0
    assert stats["lane_sweeps"] == expected
    assert bool(lane_jobs) == bool(expected)
