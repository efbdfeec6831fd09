"""Tests for EdgeBOL checkpointing."""

import json

import numpy as np
import pytest

from repro.core import EdgeBOL, EdgeBOLConfig
from repro.core.persistence import load_edgebol, save_edgebol
from repro.experiments.runner import run_agent
from repro.testbed.config import (
    CostWeights,
    ServiceConstraints,
    TestbedConfig,
)
from repro.testbed.scenarios import static_scenario


def trained_agent(n_periods=25, decoupled=False, seed=0):
    testbed = TestbedConfig(n_levels=5)
    env = static_scenario(mean_snr_db=35.0, rng=seed, config=testbed)
    agent = EdgeBOL(
        testbed.control_grid(),
        ServiceConstraints(0.4, 0.5),
        CostWeights(1.0, 2.0),
        config=EdgeBOLConfig(decoupled_power_gps=decoupled),
    )
    run_agent(env, agent, n_periods)
    return agent, env


class TestCheckpointRoundtrip:
    def test_problem_definition_restored(self, tmp_path):
        agent, _ = trained_agent()
        path = save_edgebol(agent, tmp_path / "agent.npz")
        restored = load_edgebol(path)
        assert restored.constraints == agent.constraints
        assert restored.cost_weights == agent.cost_weights
        np.testing.assert_array_equal(restored.control_grid, agent.control_grid)

    def test_gp_buffers_restored(self, tmp_path):
        agent, _ = trained_agent()
        restored = load_edgebol(save_edgebol(agent, tmp_path / "a.npz"))
        for original, copy in zip(agent.gps, restored.gps):
            assert copy.n_observations == original.n_observations
            np.testing.assert_allclose(copy.inputs, original.inputs)
            np.testing.assert_allclose(copy.targets, original.targets)
            np.testing.assert_allclose(
                copy.kernel.lengthscales, original.kernel.lengthscales
            )
            assert copy.noise_variance == pytest.approx(original.noise_variance)

    def test_identical_predictions(self, tmp_path):
        agent, env = trained_agent()
        restored = load_edgebol(save_edgebol(agent, tmp_path / "a.npz"))
        context = env.observe_context()
        joint = agent._joint_grid(context)
        for original, copy in zip(agent.gps, restored.gps):
            m1, v1 = original.predict(joint[:50])
            m2, v2 = copy.predict(joint[:50])
            np.testing.assert_allclose(m1, m2, rtol=1e-9)
            np.testing.assert_allclose(v1, v2, rtol=1e-7, atol=1e-12)

    def test_identical_decisions(self, tmp_path):
        agent, env = trained_agent()
        restored = load_edgebol(save_edgebol(agent, tmp_path / "a.npz"))
        context = env.observe_context()
        assert restored.select(context) == agent.select(context)
        assert restored.last_safe_set_size == agent.last_safe_set_size

    def test_decoupled_power_gps_roundtrip(self, tmp_path):
        agent, env = trained_agent(decoupled=True)
        restored = load_edgebol(save_edgebol(agent, tmp_path / "a.npz"))
        assert restored._power_gps is not None
        for original, copy in zip(agent._power_gps, restored._power_gps):
            assert copy.n_observations == original.n_observations
        context = env.observe_context()
        assert restored.select(context) == agent.select(context)

    def test_warm_start_continues_learning(self, tmp_path):
        agent, env = trained_agent(n_periods=40)
        restored = load_edgebol(save_edgebol(agent, tmp_path / "a.npz"))
        log = run_agent(env, restored, 20)
        assert np.all(np.isfinite(log.cost))
        assert restored.n_observations == agent.n_observations + 20

    def test_empty_agent_roundtrip(self, tmp_path):
        testbed = TestbedConfig(n_levels=4)
        agent = EdgeBOL(
            testbed.control_grid(), ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0),
        )
        restored = load_edgebol(save_edgebol(agent, tmp_path / "empty.npz"))
        assert restored.n_observations == 0

    def test_custom_config_preserved(self, tmp_path):
        testbed = TestbedConfig(n_levels=4)
        config = EdgeBOLConfig(beta=3.0, max_observations=50)
        agent = EdgeBOL(
            testbed.control_grid(), ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0), config=config,
        )
        restored = load_edgebol(save_edgebol(agent, tmp_path / "c.npz"))
        assert restored.config.beta == 3.0
        assert restored.config.max_observations == 50

    def test_bad_format_rejected(self, tmp_path):
        agent, _ = trained_agent(n_periods=2)
        path = save_edgebol(agent, tmp_path / "a.npz")
        saved = dict(np.load(path, allow_pickle=False))

        def with_numerics(payload):
            config = json.loads(str(saved["config_json"][0]))
            config["numerics"] = payload
            return {"config_json": np.array([json.dumps(config)])}

        cases = [
            # A format this code never wrote.
            ({"format_version": np.array([99])},
             "unsupported checkpoint format 99"),
            # A version-1 archive, whose numerics config carried fields
            # that no longer exist.
            ({"format_version": np.array([1]),
              **with_numerics({"backend": "numpy", "sparse": False})},
             "unsupported checkpoint format 1"),
            # A current-format archive with an unknown numerics key: a
            # ValueError naming the key, not a TypeError.
            (with_numerics({"backend": "numpy", "sparse": False}),
             "unknown key.*'backend'"),
        ]
        for i, (tamper, match) in enumerate(cases):
            bad = tmp_path / f"bad{i}.npz"
            np.savez_compressed(bad, **{**saved, **tamper})
            with pytest.raises(ValueError, match=match):
                load_edgebol(bad)
