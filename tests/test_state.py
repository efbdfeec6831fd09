"""Snapshot/restore determinism tests for :mod:`repro.core.state`.

The contract under test: a restored agent/environment replays
bit-identically to an uninterrupted one at the same seed.  "Close" is
not good enough — the GP Cholesky factor built by rank-1 extensions
differs in the last bits from a fresh factorisation, so every test here
compares with ``==`` / ``array_equal``, never ``allclose``.
"""

import hashlib

import numpy as np
import pytest

from repro.core import posterior, state
from repro.core.edgebol import EdgeBOL, EdgeBOLConfig
from repro.core.gp import GaussianProcess
from repro.core.kernels import Matern
from repro.core.posterior import SurrogateEngine
from repro.experiments.recorder import RunLog
from repro.obs.decision import DecisionTracer
from repro.telemetry import runtime as telemetry
from repro.telemetry.export import InMemorySink
from repro.testbed.config import CostWeights, ServiceConstraints, TestbedConfig
from repro.testbed.scenarios import static_scenario


def make_world(seed=0, levels=4, decoupled=False):
    testbed = TestbedConfig(n_levels=levels)
    env = static_scenario(n_users=1, rng=seed, config=testbed)
    agent = EdgeBOL(
        testbed.control_grid(), ServiceConstraints(), CostWeights(1.0, 1.0),
        config=EdgeBOLConfig(decoupled_power_gps=decoupled),
    )
    return env, agent


def run_periods(env, agent, n):
    """Drive the bare control loop; returns exact per-period tuples."""
    rows = []
    for _ in range(n):
        context = env.observe_context()
        policy = agent.select(context)
        observation = env.step(policy)
        cost = agent.observe(context, policy, observation)
        rows.append((
            cost, observation.delay_s, observation.map_score,
            observation.server_power_w, observation.bs_power_w,
            agent.last_safe_set_size,
        ))
    return rows


def frame_round_trip(arr):
    """``arr`` through the array codec and the binary snapshot frame."""
    blob = state.encode_snapshot({"a": state._maybe_encode(arr)})
    return state._maybe_decode(state.decode_snapshot(blob)["a"])


class TestArrayCodec:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((7, 3))
        arr[0, 0] = -0.0
        arr[1, 1] = np.nan
        cases = [
            arr,
            rng.standard_normal(5),                     # float64 series
            np.array([3, 0, 2**40], dtype=np.int64),    # safe_set_size
            np.empty((0, 3)),                           # 0-row cache slice
        ]
        for case in cases:
            for out in (state._decode_array(state._encode_array(case)),
                        frame_round_trip(case)):
                assert out.dtype == case.dtype and out.shape == case.shape
                assert case.tobytes() == out.tobytes()
                assert out.flags.writeable and out.flags.owndata
        assert frame_round_trip(None) is None

    def test_rng_state_round_trip(self):
        gen = np.random.default_rng(42)
        gen.standard_normal(17)
        snap = state.rng_state(gen)
        ahead = gen.standard_normal(5)
        state.set_rng_state(gen, snap)
        assert np.array_equal(gen.standard_normal(5), ahead)


class TestGPState:
    def test_restore_preserves_rank1_factor_bits(self):
        rng = np.random.default_rng(1)
        gp = GaussianProcess(Matern([1.0, 1.0]), noise_variance=0.01)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        gp.fit(x[:3], y[:3])
        for i in range(3, 6):  # rank-1 extensions, not a fresh factor
            gp.add(x[i], y[i])
        snap = state.gp_state(gp)
        chol_before = gp._chol.copy()
        version_before = gp._factor_version
        gp.add(rng.standard_normal(2), 0.5)  # diverge
        state.restore_gp_state(gp, snap)
        assert gp._chol.tobytes() == chol_before.tobytes()
        assert gp._factor_version == version_before
        query = rng.standard_normal((4, 2))
        mean1, var1 = gp.predict(query)
        state.restore_gp_state(gp, snap)
        mean2, var2 = gp.predict(query)
        assert np.array_equal(mean1, mean2) and np.array_equal(var1, var2)

    @pytest.mark.parametrize("adds", [0, 1], ids=["fresh-factor",
                                                  "rank1-factor"])
    def test_restored_factor_extends_bit_identically(self, adds):
        # Regression: a factor fresh from fit() is Cholesky's
        # Fortran-ordered array, solved through another LAPACK branch
        # than a rank-1-extended one.  A restore that lost the memory
        # order made every later add diverge in the last bits.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        live = GaussianProcess(Matern([0.8, 1.1, 0.6]), noise_variance=0.01)
        live.fit(x[:30], y[:30])
        for i in range(30, 30 + adds):
            live.add(x[i], y[i])
        restored = GaussianProcess(Matern([0.8, 1.1, 0.6]),
                                   noise_variance=0.01)
        blob = state.encode_snapshot(state.gp_state(live))
        state.restore_gp_state(restored, state.decode_snapshot(blob))
        query = rng.standard_normal((5, 3))
        for got, want in zip(restored.predict(query), live.predict(query)):
            assert got.tobytes() == want.tobytes()
        for i in range(30 + adds, 40):
            live.add(x[i], y[i])
            restored.add(x[i], y[i])
        assert restored._chol.tobytes() == live._chol.tobytes()
        assert restored._w.tobytes() == live._w.tobytes()

    def test_restore_does_not_touch_setters(self):
        gp = GaussianProcess(Matern([1.0]), noise_variance=0.01)
        snap = state.gp_state(gp)
        version = gp._factor_version
        state.restore_gp_state(gp, snap)
        assert gp._factor_version == version  # setters would have bumped it

    def test_empty_gp_round_trip(self):
        gp = GaussianProcess(Matern([1.0]), noise_variance=0.01)
        snap = state.gp_state(gp)
        state.restore_gp_state(gp, snap)
        assert gp._x is None and gp._chol is None

    def test_snapshot_carries_no_alpha_and_only_the_live_block(self):
        rng = np.random.default_rng(3)
        gp = GaussianProcess(Matern([1.0, 1.0]), noise_variance=0.01)
        for _ in range(11):  # capacity 16
            gp.add(rng.standard_normal(2), float(rng.standard_normal()))
        snap = state.gp_state(gp)
        assert "alpha" not in snap
        assert snap["chol"]["shape"] == [11, 11]
        assert snap["chol"]["data"] == gp._chol.tobytes()
        assert snap["w"]["shape"] == [11] and snap["x"]["shape"] == [11, 2]

    def test_restore_rescales_inputs_for_the_restored_lengthscales(self):
        # restore_gp_state writes the lengthscales onto the live kernel
        # in place; the scaled inputs must follow, or the next add builds
        # its kernel row with the old lengthscales.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        source = GaussianProcess(Matern([0.7, 1.4]), noise_variance=0.01)
        source.fit(x[:4], y[:4])
        for i in range(4, 7):
            source.add(x[i], y[i])
        snap = state.gp_state(source)
        target = GaussianProcess(Matern([3.0, 0.2]), noise_variance=0.01)
        target.fit(rng.standard_normal((9, 2)), rng.standard_normal(9))
        state.restore_gp_state(target, snap)
        source.add(x[7], y[7])
        target.add(x[7], y[7])
        assert target._chol.tobytes() == source._chol.tobytes()
        assert target._w.tobytes() == source._w.tobytes()
        cold = GaussianProcess(Matern([0.7, 1.4]), noise_variance=0.01)
        cold.fit(x, y)
        query = rng.standard_normal((6, 2))
        for got, want in zip(target.predict(query), cold.predict(query)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def relax_delay_and_swap_cost_kernel(env, agent):
    """Rewrite the delay prior mean and the cost kernel, then run on.

    A restore must undo both: the engine's prior-mean stamps and its
    scaled joint grids have to describe the *restored* GPs.
    """
    agent.set_constraints(ServiceConstraints(d_max_s=1.0, rho_min=0.5))
    cost = agent.head_surrogates()["cost"]
    cost.kernel = Matern(cost.kernel.lengthscales * 1.5,
                         output_scale=2.0 * cost.kernel.output_scale)
    cost.fit(cost.inputs, cost.targets)
    run_periods(env, agent, 2)


class TestAgentReplay:
    @pytest.mark.parametrize("diverge", [
        None, relax_delay_and_swap_cost_kernel,
    ], ids=["plain", "prior-mean-and-kernel-change"])
    def test_restored_agent_replays_bit_identically(self, diverge):
        env, agent = make_world(seed=7)
        run_periods(env, agent, 6)
        agent_snap = state.agent_state(agent)
        env_snap = state.env_state(env)
        live = agent.posterior(env.observe_context())
        expected = run_periods(env, agent, 8)
        if diverge is not None:
            diverge(env, agent)
        state.restore_agent_state(agent, agent_snap)
        state.restore_env_state(env, env_snap)
        restored = agent.posterior(env.observe_context())
        for head in live.heads:  # decisions alone can hide a drift
            assert np.array_equal(restored.mean(head), live.mean(head))
            assert np.array_equal(restored.variance(head), live.variance(head))
        replayed = run_periods(env, agent, 8)
        assert replayed == expected  # exact float equality, tuple-wise

    def test_restored_agent_encodes_the_live_agents_bytes(self):
        # A fresh agent restored from an earlier snapshot has smaller
        # buffers than the live one; after the same periods both must
        # encode the same blob, so capacity never reaches a frame.
        env, agent = make_world(seed=5)
        run_periods(env, agent, 9)
        agent_snap = state.agent_state(agent)
        env_snap = state.env_state(env)
        run_periods(env, agent, 10)
        restored_env, restored = make_world(seed=5)
        state.restore_agent_state(restored, agent_snap)
        state.restore_env_state(restored_env, env_snap)
        run_periods(restored_env, restored, 10)
        live_cost = agent.head_surrogates()["cost"]
        restored_cost = restored.head_surrogates()["cost"]
        assert live_cost._y_buf.size != restored_cost._y_buf.size
        assert state.encode_snapshot(state.agent_state(restored)) \
            == state.encode_snapshot(state.agent_state(agent))

    def test_head_mismatch_is_rejected(self):
        env, agent = make_world(seed=3)
        snap = state.agent_state(agent)
        snap["heads"] = {"bogus": next(iter(snap["heads"].values()))}
        with pytest.raises(state.SnapshotError, match="heads"):
            state.restore_agent_state(agent, snap)

    def test_json_round_trip_preserves_replay(self):
        env, agent = make_world(seed=11)
        run_periods(env, agent, 5)
        blob = state.encode_snapshot({
            "agent": state.agent_state(agent),
            "env": state.env_state(env),
        })
        expected = run_periods(env, agent, 6)
        payload = state.decode_snapshot(blob)
        state.restore_agent_state(agent, payload["agent"])
        state.restore_env_state(env, payload["env"])
        assert run_periods(env, agent, 6) == expected

    def test_decoupled_agent_warm_starts_from_a_frame(self):
        # The warm-start path: a decoupled-power agent's frame restored
        # into a fresh agent of the same config, power heads included.
        env, agent = make_world(seed=13, decoupled=True)
        run_periods(env, agent, 7)
        blob = state.encode_snapshot({
            "agent": state.agent_state(agent),
            "env": state.env_state(env),
        })
        expected = run_periods(env, agent, 6)
        fresh_env, fresh = make_world(seed=13, decoupled=True)
        payload = state.decode_snapshot(blob)
        state.restore_agent_state(fresh, payload["agent"])
        state.restore_env_state(fresh_env, payload["env"])
        assert set(fresh.head_surrogates()) == {
            "cost", "delay", "map", "server_power", "bs_power"}
        assert run_periods(fresh_env, fresh, 6) == expected


#: Control grid of the bare-engine tests (context_dim 1, so 3-D inputs).
ENGINE_GRID = np.random.default_rng(20).uniform(size=(60, 2))


def engine_gp(rng, n_obs=0, lengthscales=(0.5, 0.8, 0.6)):
    """A 3-D Matern GP holding ``n_obs`` random observations."""
    gp = GaussianProcess(Matern(list(lengthscales)), noise_variance=0.01)
    if n_obs:
        gp.fit(rng.uniform(size=(n_obs, 3)), rng.standard_normal(n_obs))
    return gp


def add_points(gp, rng, count):
    for _ in range(count):
        gp.add(rng.uniform(size=3), float(rng.standard_normal()))


def restored_engine(engine):
    """Fresh GPs and engine restored from ``engine``'s framed snapshot."""
    payload = state.decode_snapshot(state.encode_snapshot({
        "gps": {name: state.gp_state(gp)
                for name, gp in engine.heads.items()},
        "engine": state.engine_state(engine),
    }))
    gps = {}
    for name in engine.heads:
        gps[name] = engine_gp(None, lengthscales=(1.0, 1.0, 1.0))
        state.restore_gp_state(gps[name], payload["gps"][name])
    restored = SurrogateEngine(gps, ENGINE_GRID, context_dim=1)
    state.restore_engine_state(restored, payload["engine"])
    return restored


def count_fills(monkeypatch):
    """Record the row count of every ``Matern.fill`` call from now on."""
    rows = []
    fill = Matern.fill

    def counted(self, x, *args, **kwargs):
        rows.append(len(x))
        return fill(self, x, *args, **kwargs)

    monkeypatch.setattr(Matern, "fill", counted)
    return rows


def assert_cache_replayed(live, restored):
    """Same entries in LRU order, bit-equal ``v`` rows and posteriors."""
    assert list(restored._cache) == list(live._cache)
    for key, (_, states) in live._cache.items():
        restored_states = restored._cache[key][1]
        assert list(restored_states) == list(states)
        for name, want in states.items():
            got = restored_states[name]
            assert got.n == want.n and got.row_ends == want.row_ends
            assert got.factor_version == want.factor_version
            assert got.sumsq.tobytes() == want.sumsq.tobytes()
            assert got.mean_acc.tobytes() == want.mean_acc.tobytes()
            if want.factor_version == live.heads[name].factor_version:
                assert got.v[:got.n].tobytes() == want.v[:want.n].tobytes()
            else:  # stale: never read before its rebuild, so not replayed
                assert got.v.shape[0] == 0
    for key in list(live._cache):
        context = np.frombuffer(key, dtype=float)
        want = live.posterior(context)
        got = restored.posterior(context)
        for head in want.heads:
            assert got.mean(head).tobytes() == want.mean(head).tobytes()
            assert got.variance(head).tobytes() \
                == want.variance(head).tobytes()


class TestEngineCacheState:
    def test_warm_cache_is_part_of_the_snapshot(self):
        # Regression: with the engine cache dropped on restore, seed 0
        # diverges at the third replayed period — a cold rebuild's full
        # triangular solve differs in the last bits from the warm
        # cache's incremental extensions, flipping a near-tie argmin.
        env, agent = make_world(seed=0)
        run_periods(env, agent, 4)
        snap = state.agent_state(agent)
        env_snap = state.env_state(env)
        assert snap["engine"]["entries"]  # the static context is cached
        expected = run_periods(env, agent, 4)
        state.restore_agent_state(agent, snap)
        state.restore_env_state(env, env_snap)
        assert run_periods(env, agent, 4) == expected

    def test_unknown_head_in_cache_is_rejected(self):
        env, agent = make_world(seed=2)
        run_periods(env, agent, 2)
        snap = state.engine_state(agent._engine)
        snap["entries"][0]["heads"]["bogus"] = next(
            iter(snap["entries"][0]["heads"].values())
        )
        with pytest.raises(state.SnapshotError, match="bogus"):
            state.restore_engine_state(agent._engine, snap)

    @pytest.mark.parametrize("change", ["fit", "kernel-swap"])
    def test_rebuild_against_a_fortran_factor(self, change):
        # fit() leaves Cholesky's Fortran-ordered array as the factor;
        # the replay must give the live rows even after a rank-1 add has
        # turned the GP's factor into a C-ordered buffer view.
        rng = np.random.default_rng(21)
        gp = engine_gp(rng, n_obs=12)
        add_points(gp, rng, 3)
        engine = SurrogateEngine({"a": gp}, ENGINE_GRID, context_dim=1)
        engine.posterior([0.3])
        if change == "kernel-swap":
            gp.kernel = Matern([0.9, 0.4, 0.7], output_scale=2.0)
        gp.fit(gp.inputs, gp.targets)
        engine.posterior([0.3])
        head = engine._cache[np.array([0.3]).tobytes()][1]["a"]
        assert head.row_ends == [15]
        assert_cache_replayed(engine, restored_engine(engine))
        add_points(gp, rng, 1)
        assert_cache_replayed(engine, restored_engine(engine))

    def test_multi_row_extension_blocks(self):
        rng = np.random.default_rng(22)
        gp = engine_gp(rng, n_obs=20)
        add_points(gp, rng, 1)
        engine = SurrogateEngine({"a": gp}, ENGINE_GRID, context_dim=1)
        engine.posterior([0.6])
        for block in (2, 1, 3):
            add_points(gp, rng, block)
            engine.posterior([0.6])
        head = engine._cache[np.array([0.6]).tobytes()][1]["a"]
        assert head.row_ends == [21, 23, 24, 27]
        assert_cache_replayed(engine, restored_engine(engine))

    def test_shared_heads_after_a_two_add_extension(self, monkeypatch):
        # Two heads of one correlation share the block of their 2-row
        # extension live, and so does the replay: one fill per block,
        # into buffers reserved once.
        rng = np.random.default_rng(25)
        heads = {"a": engine_gp(rng), "b": engine_gp(rng)}
        heads["b"].kernel = Matern([0.5, 0.8, 0.6], output_scale=0.3)
        x, y = rng.uniform(size=(14, 3)), rng.standard_normal(14)
        for gp in heads.values():
            gp.fit(x, y)
        engine = SurrogateEngine(heads, ENGINE_GRID, context_dim=1)
        engine.posterior([0.2])
        for _ in range(2):
            z, target = rng.uniform(size=3), float(rng.standard_normal())
            for gp in heads.values():
                gp.add(z, target)
        engine.posterior([0.2])
        states = engine._cache[np.array([0.2]).tobytes()][1]
        assert states["a"].row_ends == states["b"].row_ends == [14, 16]
        assert states["a"].scaled is states["b"].scaled
        fills = count_fills(monkeypatch)
        restored = restored_engine(engine)
        assert fills == [14, 2]
        restored_states = restored._cache[np.array([0.2]).tobytes()][1]
        assert restored_states["a"].scaled is restored_states["b"].scaled
        reserve = posterior.RESERVE_BYTES // (8 * ENGINE_GRID.shape[0])
        for head in restored_states.values():
            assert head.v.shape == (reserve, ENGINE_GRID.shape[0])
        assert_cache_replayed(engine, restored)

    def test_replay_shares_only_the_blocks_the_schedules_share(
            self, monkeypatch):
        # "a" was once swept alone, so the two schedules part after the
        # rebuild: [14, 15, 16] and [14, 16].  Only the rebuild block has
        # byte-equal inputs in both.
        rng = np.random.default_rng(26)
        heads = {"a": engine_gp(rng), "b": engine_gp(rng)}
        heads["b"].kernel = Matern([0.5, 0.8, 0.6], output_scale=0.3)
        x, y = rng.uniform(size=(14, 3)), rng.standard_normal(14)
        for gp in heads.values():
            gp.fit(x, y)
        engine = SurrogateEngine(heads, ENGINE_GRID, context_dim=1)
        engine.posterior([0.2])
        for only in (["a"], None):
            z, target = rng.uniform(size=3), float(rng.standard_normal())
            for gp in heads.values():
                gp.add(z, target)
            engine.posterior([0.2], heads=only)
        states = engine._cache[np.array([0.2]).tobytes()][1]
        assert states["a"].row_ends == [14, 15, 16]
        assert states["b"].row_ends == [14, 16]
        fills = count_fills(monkeypatch)
        restored = restored_engine(engine)
        assert sorted(fills) == [1, 1, 2, 14]
        assert_cache_replayed(engine, restored)

    def test_replay_on_two_lanes_matches_the_inline_live_cache(
            self, monkeypatch, two_lanes):
        # Three heads, two correlation groups, schedules that part: each
        # replayed block's fills and solves are split over the lanes.
        rng = np.random.default_rng(27)
        heads = {"a": engine_gp(rng), "b": engine_gp(rng),
                 "c": engine_gp(rng, lengthscales=(0.9, 0.4, 0.7))}
        heads["b"].kernel = Matern([0.5, 0.8, 0.6], output_scale=0.3)
        x, y = rng.uniform(size=(14, 3)), rng.standard_normal(14)
        for gp in heads.values():
            gp.fit(x, y)
        monkeypatch.setattr(posterior, "_LANE_ELEMENTS", 1 << 62)
        monkeypatch.setattr(posterior, "_LANE_POINTS", 1 << 62)
        engine = SurrogateEngine(heads, ENGINE_GRID, context_dim=1)
        for context, block, only in (([0.2], 0, None), ([0.7], 3, None),
                                     ([0.2], 1, ["a", "c"]),
                                     ([0.2], 3, None)):
            z, target = rng.uniform(size=(block, 3)), rng.standard_normal(block)
            for gp in heads.values():
                for point, value in zip(z, target):
                    gp.add(point, float(value))
            engine.posterior(context, heads=only)
        states = engine._cache[np.array([0.2]).tobytes()][1]
        assert states["a"].row_ends == [14, 18, 21]
        assert states["b"].row_ends == [14, 21]
        assert not two_lanes
        monkeypatch.setattr(posterior, "_LANE_ELEMENTS", 0)
        restored = restored_engine(engine)
        assert two_lanes, "the replay ran no task on the worker lane"
        assert_cache_replayed(engine, restored)

    def test_contexts_in_lru_order_with_a_stale_entry_and_an_empty_head(self):
        rng = np.random.default_rng(23)
        gp, emptied = engine_gp(rng, n_obs=10), engine_gp(rng, n_obs=5)
        engine = SurrogateEngine({"a": gp, "empty": emptied},
                                 ENGINE_GRID, context_dim=1)
        for context in ([0.1], [0.5], [0.9]):
            engine.posterior(context)
            add_points(gp, rng, 2)
        emptied.fit(np.empty((0, 3)), np.empty(0))
        gp.fit(gp.inputs, gp.targets)
        engine.posterior([0.9])
        add_points(gp, rng, 2)
        engine.posterior([0.5])
        add_points(gp, rng, 1)
        engine.posterior([0.1], heads=["empty"])  # "a" stays stale there
        first = engine._cache[np.array([0.1]).tobytes()][1]
        assert first["a"].factor_version != gp.factor_version
        assert first["empty"].n == 0 and first["empty"].row_ends == []
        assert_cache_replayed(engine, restored_engine(engine))


class TestScheduleValidation:
    """A malformed snapshotted schedule is rejected, not replayed."""

    @staticmethod
    def snapshot():
        rng = np.random.default_rng(24)
        gp = engine_gp(rng, n_obs=20)
        add_points(gp, rng, 1)
        engine = SurrogateEngine({"a": gp}, ENGINE_GRID, context_dim=1)
        engine.posterior([0.4])
        add_points(gp, rng, 2)
        engine.posterior([0.4])
        payload = state.engine_state(engine)
        head = payload["entries"][0]["heads"]["a"]
        assert state._decode_array(head["row_ends"]).tolist() == [21, 23]
        return engine, head, payload

    @pytest.mark.parametrize("row_ends, n, match", [
        ([23, 21, 23], 23, "strictly increasing"),
        ([21, 21, 23], 23, "strictly increasing"),
        ([0, 21, 23], 23, "below 1"),
        ([21, 22], 23, "ends at"),
        ([], 23, "ends at"),
        ([21, 23, 30], 30, "observations"),
    ], ids=["decreasing", "repeated", "first-below-1", "last-not-n",
            "empty-with-rows", "n-above-observations"])
    def test_malformed_schedule_is_rejected(self, row_ends, n, match):
        engine, head, payload = self.snapshot()
        head["row_ends"] = state._encode_array(
            np.array(row_ends, dtype=np.int64)
        )
        head["n"] = n
        with pytest.raises(state.SnapshotError, match=match):
            state.restore_engine_state(engine, payload)

    @pytest.mark.parametrize("row_ends", [
        np.array([21.0, 23.0]),
        np.array([23, 21, 23], dtype=np.uint64),  # np.diff would wrap
        np.array([[21, 23]], dtype=np.int64),
    ], ids=["float", "unsigned", "2-d"])
    def test_schedule_of_another_dtype_or_shape_is_rejected(self, row_ends):
        engine, head, payload = self.snapshot()
        head["row_ends"] = state._encode_array(row_ends)
        with pytest.raises(state.SnapshotError, match="int64"):
            state.restore_engine_state(engine, payload)


class TestEnvState:
    def test_channel_and_measurement_streams_restore(self):
        env, agent = make_world(seed=5)
        run_periods(env, agent, 3)
        snap = state.env_state(env)
        policy = agent.select(env.observe_context())
        expected = env.step(policy)
        state.restore_env_state(env, snap)
        replayed = env.step(policy)
        assert replayed == expected

    def test_channel_count_mismatch_is_rejected(self):
        env, _agent = make_world(seed=5)
        snap = state.env_state(env)
        snap["channels"] = []
        with pytest.raises(state.SnapshotError, match="channels"):
            state.restore_env_state(env, snap)


class TestTracerState:
    def test_round_trip_and_boundary_guard(self):
        env, agent = make_world(seed=9)
        with telemetry.attach(InMemorySink()):
            tracer = DecisionTracer(agent, label="cell000")
            agent.attach_tracer(tracer)
            run_periods(env, agent, 4)
            snap = state.tracer_state(tracer)
            run_periods(env, agent, 3)
            state.restore_tracer_state(tracer, snap)
            assert state.tracer_state(tracer) == snap
            tracer._pending = {"t": 99}
            with pytest.raises(state.SnapshotError, match="boundar"):
                state.tracer_state(tracer)
            agent.attach_tracer(None)


class TestRunLogState:
    def test_round_trip_truncates_to_snapshot(self):
        env, agent = make_world(seed=13)
        log = RunLog()
        for _ in range(4):
            context = env.observe_context()
            policy = agent.select(context)
            observation = env.step(policy)
            cost = agent.observe(context, policy, observation)
            log.append(cost=cost, policy=policy, observation=observation,
                       safe_set_size=agent.last_safe_set_size,
                       snr_db=30.0, d_max_s=0.4, rho_min=0.5)
        snap = state.runlog_state(log)
        costs = list(log.cost)
        log.append(cost=1.0, policy=policy, observation=observation,
                   safe_set_size=1, snr_db=30.0, d_max_s=0.4, rho_min=0.5)
        state.restore_runlog_state(log, snap)
        assert log.cost == costs and len(log) == 4


#: The array every corruption case frames (512 raw bytes).
FRAMED_ARRAY = np.arange(64, dtype=np.float64)


def flip(blob, at):
    """``blob`` with the byte at ``at`` inverted."""
    return blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]


def forge(header, buffers, header_len=None):
    """A frame with a *valid* digest around an arbitrary header."""
    length = len(header) if header_len is None else header_len
    body = length.to_bytes(8, "little") + header + buffers
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return state._MAGIC + digest + b"\n" + body


class TestFraming:
    def test_round_trip(self):
        payload = {"t": 3, "nested": {"a": [1.5, None]}}
        assert state.decode_snapshot(state.encode_snapshot(payload)) == payload

    @pytest.mark.parametrize("mutate", [
        lambda b: b[:-1] + bytes([b[-1] ^ 0xFF]),   # flipped byte
        lambda b: b[:len(b) // 2],                  # truncation
        lambda b: b"JUNK" + b,                      # bad magic
        lambda b: b[:len(state._MAGIC) + 8],        # unterminated header
        pytest.param(lambda b: flip(b, len(b) - FRAMED_ARRAY.nbytes // 2),
                     id="buffer-byte-flip"),
        pytest.param(lambda b: flip(b, state._BODY_AT + 8 + 3),
                     id="header-byte-flip"),
        pytest.param(lambda b: b[:-FRAMED_ARRAY.nbytes // 3],
                     id="buffer-truncation"),
        pytest.param(lambda b: forge(b'{"a":{"dtype":"float64","shape":[4],'
                                     b'"data":{"$buf":[0,32]}}}', bytes(16)),
                     id="forged-buffer-past-end"),
        pytest.param(lambda b: forge(b'{"a":{"dtype":"float64","shape":[3],'
                                     b'"data":{"$buf":[0,16]}}}', bytes(16)),
                     id="forged-shape-mismatch"),
        pytest.param(lambda b: forge(b'{"a":{"dtype":"bogus","shape":[2],'
                                     b'"data":{"$buf":[0,16]}}}', bytes(16)),
                     id="forged-unknown-dtype"),
        pytest.param(lambda b: forge(b'{"t":0}', b"", header_len=1 << 40),
                     id="forged-header-length-past-body"),
    ])
    def test_corruption_is_detected(self, mutate):
        blob = mutate(state.encode_snapshot(
            {"t": 0, "a": state._encode_array(FRAMED_ARRAY)}
        ))
        with pytest.raises(state.SnapshotCorruptionError):
            state.decode_snapshot(blob)

    def test_stale_frame_is_rejected(self):
        blob = forge(b'{"t":0}', b"")
        for magic in (b"SNAP3:", b"SNAP4:", b"SNAP5:"):
            stale = magic + blob[len(state._MAGIC):]  # digest still valid
            with pytest.raises(state.SnapshotCorruptionError, match="stale"):
                state.decode_snapshot(stale)

    def test_non_bytes_rejected(self):
        with pytest.raises(state.SnapshotCorruptionError):
            state.decode_snapshot("not-bytes")

    def test_warm_snapshot_is_raw_bytes_plus_a_small_header(self):
        # Guards against a text encoding of the arrays creeping back:
        # base64 alone would add a third of the raw bytes.
        env, agent = make_world(seed=0, levels=4)
        run_periods(env, agent, 20)
        payload = {"agent": state.agent_state(agent)}

        def raw_bytes(node):
            if isinstance(node, dict):
                if set(node) == {"dtype", "shape", "data"}:  # one array
                    count = int(np.prod(node["shape"]))
                    return np.dtype(node["dtype"]).itemsize * count
                return sum(raw_bytes(value) for value in node.values())
            if isinstance(node, list):
                return sum(raw_bytes(value) for value in node)
            return 0

        raw = raw_bytes(payload)
        for entry in payload["agent"]["engine"]["entries"]:
            for head in entry["heads"].values():
                # The N x M v rows are replayed on restore, not stored.
                n, m = head["n"], head["sumsq"]["shape"][0]
                assert n > 1
                for value in head.values():
                    if isinstance(value, dict):
                        assert int(np.prod(value["shape"])) < n * m
        assert len(state.encode_snapshot(payload)) <= raw + 16_384


class TestInjectorState:
    def test_round_trip(self):
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultSpec
        spec = FaultSpec(kind="cell", mode="crash", probability=0.5)
        injector = FaultInjector([spec], rng=3, kind="cell")
        for t in range(5):
            injector.supervisor_decision("cell000", opportunity=t)
        snap = state.injector_state(injector)
        ahead = [injector.supervisor_decision("cell000", opportunity=t)
                 for t in range(5, 10)]
        state.restore_injector_state(injector, snap)
        replay = [injector.supervisor_decision("cell000", opportunity=t)
                  for t in range(5, 10)]
        assert [s is not None for s in replay] == [s is not None for s in ahead]
        assert injector.counts == snap["counts"] or injector.counts
