"""Tests for the SafeOpt and LinUCB baselines and the decoupled-power
EdgeBOL extension."""

import numpy as np
import pytest

from repro.bandit import LinUCBController, SafeOptController
from repro.core import EdgeBOL, EdgeBOLConfig
from repro.core.acquisition import safe_lcb_index_from_values
from repro.experiments.runner import run_agent
from repro.testbed.config import (
    CostWeights,
    ServiceConstraints,
    TestbedConfig,
)
from repro.testbed.scenarios import static_scenario


def make_problem(seed=0, n_levels=5):
    testbed = TestbedConfig(n_levels=n_levels)
    env = static_scenario(mean_snr_db=35.0, rng=seed, config=testbed)
    return testbed, env


class TestSafeOptController:
    def test_first_pick_is_safe(self):
        testbed, env = make_problem()
        agent = SafeOptController(
            testbed.control_grid(), ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0),
        )
        policy = agent.select(env.observe_context())
        np.testing.assert_allclose(policy.to_array(), [1, 1, 1, 1])

    def test_runs_safely(self):
        testbed, env = make_problem()
        agent = SafeOptController(
            testbed.control_grid(), ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0),
        )
        log = run_agent(env, agent, 40)
        delay_viol, map_viol = log.violation_rates()
        assert delay_viol < 0.1 and map_viol < 0.1

    def test_neighbour_lists_cover_grid(self):
        testbed, _ = make_problem()
        agent = SafeOptController(
            testbed.control_grid(), ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0),
        )
        assert len(agent._neighbours) == testbed.control_grid().shape[0]
        # Every point is its own neighbour.
        for idx in (0, 100, 624):
            assert idx in agent._neighbours[idx]

    def test_slower_than_edgebol(self):
        """The paper's claim: SafeOpt's uncertainty-sampling acquisition
        converges more slowly than EdgeBOL's cost-LCB."""
        testbed = TestbedConfig(n_levels=7)
        results = {}
        for name, cls in (("edgebol", EdgeBOL), ("safeopt", SafeOptController)):
            env = static_scenario(mean_snr_db=35.0, rng=3, config=testbed)
            agent = cls(
                testbed.control_grid(), ServiceConstraints(0.4, 0.5),
                CostWeights(1.0, 1.0),
            )
            log = run_agent(env, agent, 70)
            results[name] = log.tail_mean("cost", 15)
        assert results["edgebol"] <= results["safeopt"] + 2.0


class TestLinUCBController:
    def test_runs_and_stays_feasible_mostly(self):
        testbed, env = make_problem()
        agent = LinUCBController(
            testbed.control_grid(), ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0),
        )
        log = run_agent(env, agent, 50)
        assert np.all(np.isfinite(log.cost))

    def test_linear_model_underperforms_gp(self):
        """The misspecified linear surrogate cannot match EdgeBOL."""
        testbed = TestbedConfig(n_levels=7)
        results = {}
        for name, cls in (("edgebol", EdgeBOL), ("linucb", LinUCBController)):
            env = static_scenario(mean_snr_db=35.0, rng=4, config=testbed)
            agent = cls(
                testbed.control_grid(), ServiceConstraints(0.4, 0.5),
                CostWeights(1.0, 1.0),
            )
            log = run_agent(env, agent, 80)
            results[name] = log.tail_mean("cost", 15)
        assert results["edgebol"] < results["linucb"] + 1.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            LinUCBController(
                np.zeros((2, 3)), ServiceConstraints(), CostWeights()
            )

    def test_set_constraints_keeps_models(self):
        testbed, env = make_problem()
        agent = LinUCBController(
            testbed.control_grid(), ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0),
        )
        context = env.observe_context()
        policy = agent.select(context)
        agent.observe(context, policy, env.step(policy))
        theta_before = agent._cost._theta.copy()
        agent.set_constraints(ServiceConstraints(0.5, 0.4))
        np.testing.assert_array_equal(agent._cost._theta, theta_before)


class TestDecoupledPowerGPs:
    def make_agent(self, testbed):
        return EdgeBOL(
            testbed.control_grid(), ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0),
            config=EdgeBOLConfig(decoupled_power_gps=True),
        )

    def test_power_gps_learn(self):
        testbed, env = make_problem()
        agent = self.make_agent(testbed)
        for _ in range(5):
            context = env.observe_context()
            policy = agent.select(context)
            agent.observe(context, policy, env.step(policy))
        assert agent._power_gps[0].n_observations == 5
        assert agent._power_gps[1].n_observations == 5

    def test_update_requires_powers(self):
        testbed, env = make_problem()
        agent = self.make_agent(testbed)
        context = env.observe_context()
        policy = agent.select(context)
        with pytest.raises(ValueError):
            agent.update(context, policy, cost=100.0, delay_s=0.3,
                         map_score=0.6)

    def test_converges_like_coupled(self):
        testbed = TestbedConfig(n_levels=7)
        env = static_scenario(mean_snr_db=35.0, rng=5, config=testbed)
        agent = self.make_agent(testbed)
        log = run_agent(env, agent, 80)
        assert log.tail_mean("cost", 15) < np.mean(log.cost[:5]) * 0.97

    def test_price_change_is_instant(self):
        """After a price change, the very next decision reflects it."""
        testbed = TestbedConfig(n_levels=7)
        env = static_scenario(mean_snr_db=35.0, rng=6, config=testbed)
        agent = self.make_agent(testbed)
        for _ in range(60):
            context = env.observe_context()
            policy = agent.select(context)
            agent.observe(context, policy, env.step(policy))
        context = env.observe_context()
        baseline_policy = agent.select(context)
        agent.set_cost_weights(CostWeights(1.0, 64.0))
        repriced_policy = agent.select(context)
        # The decision problem changed; the agent must at least be able
        # to produce a (possibly different) safe decision immediately.
        assert repriced_policy is not None
        mask = agent.safe_mask(context)
        lcb = agent.cost_lcb_values(agent.posterior(context))
        idx = safe_lcb_index_from_values(lcb, mask)
        assert mask[idx]
        del baseline_policy

    def test_selection_minimises_traced_lcb_surface(self):
        """Each pick is the safe argmin of :meth:`EdgeBOL.cost_lcb_values`.

        Decision traces price safety against that surface, so the
        decoupled-power selection must minimise exactly it.
        """

        class Recorder:
            def __init__(self):
                self.checked = 0

            def on_select(self, context, batch, mask, index):
                lcb = agent.cost_lcb_values(batch)
                assert index == safe_lcb_index_from_values(lcb, mask)
                self.checked += 1

            def on_degraded(self, context):
                raise AssertionError("surrogate went down")

            def on_observe(self, *args, **kwargs):
                pass

        testbed = TestbedConfig(n_levels=5)
        env = static_scenario(mean_snr_db=35.0, rng=7, config=testbed)
        agent = EdgeBOL(
            testbed.control_grid(), ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 8.0),
            config=EdgeBOLConfig(decoupled_power_gps=True),
        )
        recorder = Recorder()
        agent.attach_tracer(recorder)
        run_agent(env, agent, 30)
        assert recorder.checked == 30
