"""Graceful-degradation tests: the ladders the fault plans exercise.

GP level: jitter escalation, rank-1 fallback and factor loss/recovery.
Agent level: observation quarantine and the S0 degraded mode.  Sensor
level: the power-meter clamp.  See ``docs/ROBUSTNESS.md`` for the
degradation-ladder contract these tests pin down.
"""

import numpy as np
import pytest

from repro.core import EdgeBOL, EdgeBOLConfig, NumericalInstabilityError
from repro.core.gp import GaussianProcess
from repro.core.kernels import RBF
from repro.core.numerics import MAX_JITTER_RETRIES, robust_cholesky
from repro.faults import FaultPlan, FaultSpec, uninstall, use
from repro.testbed.config import (
    ControlPolicy,
    CostWeights,
    ServiceConstraints,
    TestbedConfig,
)
from repro.testbed.env import TestbedObservation
from repro.testbed.powermeter import PowerMeter
from repro.testbed.scenarios import static_scenario


@pytest.fixture(autouse=True)
def _fault_free():
    """Every test starts and ends with no plan installed."""
    uninstall()
    yield
    uninstall()


def _make_gp(fault_hook=None):
    return GaussianProcess(
        kernel=RBF(lengthscales=np.ones(2), output_scale=1.0),
        noise_variance=1e-2,
        fault_hook=fault_hook,
    )


def _observation(delay=0.2, map_score=0.6, server=100.0, bs=5.0):
    return TestbedObservation(
        delay_s=delay,
        map_score=map_score,
        server_power_w=server,
        bs_power_w=bs,
        gpu_delay_s=0.05,
        gpu_utilization=0.5,
        total_rate_hz=10.0,
        mean_mcs=20.0,
        offered_load_bps=1e6,
        per_user_delay_s=(delay,),
        per_user_rate_hz=(10.0,),
    )


def _make_agent(**config_overrides):
    testbed = TestbedConfig(n_levels=3)
    return EdgeBOL(
        testbed.control_grid(),
        ServiceConstraints(d_max_s=0.4, rho_min=0.5),
        CostWeights(delta1=1.0, delta2=1.0),
        config=EdgeBOLConfig(**config_overrides),
    )


# -- robust_cholesky -----------------------------------------------------


def test_robust_cholesky_recovers_near_singular_gram():
    x = np.array([[0.0], [1e-9], [1.0]])
    gram = np.exp(-0.5 * (x - x.T) ** 2)  # two near-duplicate rows
    chol, jitter, attempt = robust_cholesky(gram)
    assert np.all(np.isfinite(chol))
    reconstructed = chol @ chol.T
    assert np.allclose(reconstructed, gram, atol=max(jitter * 10, 1e-8))


def test_robust_cholesky_exhausts_ladder_into_typed_error():
    calls = []

    def always_fail(site, attempt):
        calls.append((site, attempt))
        raise np.linalg.LinAlgError("injected")

    with pytest.raises(NumericalInstabilityError, match="jittered retries"):
        robust_cholesky(np.eye(3), fault_hook=always_fail)
    assert len(calls) == MAX_JITTER_RETRIES + 1  # bare + escalations


# -- GP degradation ladder ----------------------------------------------


def test_gp_transient_fault_recovers_via_refactorize():
    """A failed rank-1 update falls back to a full (jittered) rebuild."""
    fail_rank1_once = {"armed": True}

    def hook(site, attempt):
        if site == "rank1" and fail_rank1_once["armed"]:
            fail_rank1_once["armed"] = False
            raise np.linalg.LinAlgError("injected")

    gp = _make_gp(fault_hook=hook)
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(6, 2))
    gp.fit(x[:5], np.sin(x[:5].sum(axis=1)))
    version = gp.factor_version
    gp.add(x[5], float(np.sin(x[5].sum())))

    assert gp.rank1_fallbacks == 1
    assert gp.factor_available
    assert gp.factor_version > version
    mean, std = gp.predict_std(x)
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))


def test_gp_jitter_escalation_recovers_and_advances_version():
    """Failing the first ladder attempts still yields a finite posterior."""
    def hook(site, attempt):
        if site == "refactorize" and attempt < 2:
            raise np.linalg.LinAlgError("injected")

    gp = _make_gp(fault_hook=hook)
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(8, 2))
    gp.fit(x, np.cos(x.sum(axis=1)))

    assert gp.jitter_retries == 2
    assert gp.last_jitter > 0.0
    assert gp.factor_available
    mean, std = gp.predict_std(x)
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))


def test_gp_persistent_fault_loses_factor_but_keeps_data():
    def hook(site, attempt):
        raise np.linalg.LinAlgError("injected")

    gp = _make_gp(fault_hook=hook)
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(5, 2))
    y = np.sin(x.sum(axis=1))
    with pytest.raises(NumericalInstabilityError):
        gp.fit(x, y)
    assert not gp.factor_available
    assert gp.n_observations == 5  # data survives for the recovery refit
    with pytest.raises(NumericalInstabilityError, match="posterior unavailable"):
        gp.predict(x)

    gp._fault_hook = None  # the fault clears; refit from retained data
    gp.fit(gp.inputs, gp.targets)
    assert gp.factor_available
    mean, _ = gp.predict_std(x)
    assert np.allclose(mean, y, atol=0.3)


# -- EdgeBOL quarantine gate ---------------------------------------------


@pytest.mark.parametrize("observation, reason", [
    (_observation(server=float("nan")), "non-finite"),
    (_observation(delay=float("nan")), "NaN delay"),
    (_observation(map_score=float("nan")), "non-finite mAP"),
    (_observation(bs=0.0), "implausible"),
    (_observation(server=-5.0), "implausible"),
])
def test_quarantine_rejects_corrupt_observations(observation, reason):
    agent = _make_agent()
    context = static_scenario(
        mean_snr_db=35.0, rng=0, config=TestbedConfig(n_levels=3)
    ).observe_context()
    policy = ControlPolicy.max_resources()
    agent.observe(context, policy, observation)
    assert agent.quarantined_observations == 1
    assert agent.n_observations == 0  # nothing reached the surrogates


def test_quarantine_keeps_clipped_infinite_delay():
    """Infinite delay is a real 'unserved period' signal, not corruption."""
    agent = _make_agent()
    env = static_scenario(mean_snr_db=35.0, rng=0,
                          config=TestbedConfig(n_levels=3))
    context = env.observe_context()
    policy = ControlPolicy.max_resources()
    agent.observe(context, policy, _observation(delay=float("inf")))
    assert agent.quarantined_observations == 0
    assert agent.n_observations == 1


def test_quarantine_spike_gate_needs_history():
    agent = _make_agent(quarantine_spike_factor=6.0, quarantine_min_history=5)
    env = static_scenario(mean_snr_db=35.0, rng=0,
                          config=TestbedConfig(n_levels=3))
    context = env.observe_context()
    policy = ControlPolicy.max_resources()
    # An early outlier passes (exploration legitimately spans a wide range).
    agent.observe(context, policy, _observation(server=1000.0))
    assert agent.quarantined_observations == 0
    for _ in range(5):
        agent.observe(context, policy, _observation(server=100.0))
    before = agent.n_observations
    # Now the same magnitude is a spike relative to the running median.
    agent.observe(context, policy, _observation(server=5000.0))
    assert agent.quarantined_observations == 1
    assert agent.n_observations == before


def test_set_cost_weights_rearms_spike_gate():
    agent = _make_agent(quarantine_min_history=3)
    env = static_scenario(mean_snr_db=35.0, rng=0,
                          config=TestbedConfig(n_levels=3))
    context = env.observe_context()
    policy = ControlPolicy.max_resources()
    for _ in range(3):
        agent.observe(context, policy, _observation(server=100.0))
    agent.set_cost_weights(CostWeights(delta1=50.0, delta2=50.0))
    # Costs are ~50x larger now; without rearming this would quarantine.
    agent.observe(context, policy, _observation(server=100.0))
    assert agent.quarantined_observations == 0


# -- EdgeBOL S0 degraded mode --------------------------------------------


def test_edgebol_degrades_to_s0_and_recovers():
    # Event 6 (the period-2 cost-head add) collapses a surrogate; event 7
    # is that head's recovery refit, which must also fail once for the
    # agent to actually serve a degraded S0 period.
    plan = FaultPlan(specs=(
        FaultSpec(kind="gp", mode="persistent", at=(6, 7), max_events=2),
    ))
    with use(plan):
        agent = _make_agent()
        env = static_scenario(mean_snr_db=35.0, rng=0,
                              config=TestbedConfig(n_levels=3))
        s0 = ControlPolicy.from_array(agent.control_grid[agent.s0_index])

        degraded_policies = []
        for t in range(6):
            context = env.observe_context()
            chosen = agent.select(context)
            if agent.degraded:
                degraded_policies.append(chosen)
            observation = env.step(chosen)
            agent.observe(context, chosen, observation)

        stats = agent.robustness_stats()
        assert stats["surrogate_failures"] >= 1
        assert stats["degraded_periods"] >= 1
        assert stats["recoveries"] >= 1
        assert not agent.degraded  # the injected fault cleared; refit worked
        for chosen in degraded_policies:
            assert np.allclose(chosen.to_array(), s0.to_array())


def test_edgebol_select_survives_surrogate_loss_without_plan():
    """Direct factor loss (no fault plan) also lands on the S0 path."""
    agent = _make_agent()
    env = static_scenario(mean_snr_db=35.0, rng=0,
                          config=TestbedConfig(n_levels=3))
    context = env.observe_context()
    policy = ControlPolicy.max_resources()
    for _ in range(3):
        agent.observe(context, policy, _observation())
    # Sabotage every head's factor the way an exhausted ladder would.
    for gp in agent.gps:
        gp._chol = None
    agent._surrogate_down = True
    chosen = agent.select(context)
    # Recovery refit succeeds immediately (the data is healthy).
    assert agent.robustness_stats()["recoveries"] == 1
    assert np.all(np.isfinite(chosen.to_array()))


# -- power meter clamp (regression) --------------------------------------


def test_power_meter_never_reads_negative_watts():
    meter = PowerMeter(noise_rel=5.0, rng=0)  # absurd noise to force it
    readings = [meter.read(1.0) for _ in range(200)]
    assert min(readings) >= 0.0
    assert any(r == 0.0 for r in readings)  # the clamp actually engaged
