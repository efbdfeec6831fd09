"""Tests for the fault-injection subsystem (plan, injector, runtime).

Layer-level behaviour: spec validation, deterministic firing, sensor
corruption in the testbed, bus loss/delay, and the GP fault hook's
transient/persistent semantics.  End-to-end chaos runs live in
``test_chaos.py``; the degradation paths the faults exercise are
covered in ``test_robustness.py``.
"""

import numpy as np
import pytest

from repro.core.numerics import MAX_JITTER_RETRIES
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    install,
    make_injector,
    uninstall,
    use,
)
from repro.oran.bus import AsyncMessageBus, post
from repro.testbed.config import ControlPolicy, TestbedConfig
from repro.testbed.scenarios import static_scenario


@pytest.fixture(autouse=True)
def _fault_free():
    """Every test starts and ends with no plan installed."""
    uninstall()
    yield
    uninstall()


# -- plan validation and serialisation -----------------------------------


def test_spec_rejects_unknown_kind_and_mode():
    with pytest.raises(ValueError, match="kind"):
        FaultSpec(kind="cosmic", mode="ray", at=(0,))
    with pytest.raises(ValueError, match="mode"):
        FaultSpec(kind="sensor", mode="crash", at=(0,))


def test_spec_must_be_able_to_fire():
    with pytest.raises(ValueError, match="never fires"):
        FaultSpec(kind="sensor", mode="nan")


def test_spec_rejects_bad_sensor_target():
    with pytest.raises(ValueError, match="sensor target"):
        FaultSpec(kind="sensor", mode="nan", target="gps", at=(0,))


def test_plan_json_round_trip(tmp_path):
    plan = FaultPlan(
        specs=(
            FaultSpec(kind="sensor", mode="dropout", probability=0.1),
            FaultSpec(kind="worker", mode="crash", at=(0, 3), max_events=1),
        ),
        seed=99,
    )
    path = plan.to_json(tmp_path / "plan.json")
    assert FaultPlan.from_json(path) == plan


def test_plan_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown fault-plan field"):
        FaultPlan.from_dict({"seed": 0, "chaos": []})
    with pytest.raises(ValueError, match="unknown fault-spec field"):
        FaultPlan.from_dict(
            {"faults": [{"kind": "sensor", "mode": "nan", "when": 3}]}
        )


def test_for_kind_filters_in_order():
    plan = FaultPlan(specs=(
        FaultSpec(kind="bus", mode="loss", probability=0.5),
        FaultSpec(kind="sensor", mode="nan", at=(1,)),
        FaultSpec(kind="bus", mode="delay", at=(2,)),
    ))
    assert [s.mode for s in plan.for_kind("bus")] == ["loss", "delay"]
    assert plan.for_kind("worker") == ()


# -- runtime: install / use / make_injector ------------------------------


def test_make_injector_returns_none_when_fault_free():
    assert make_injector("sensor") is None
    install(FaultPlan(specs=(FaultSpec(kind="bus", mode="loss", at=(0,)),)))
    assert make_injector("sensor") is None  # no sensor specs in the plan
    assert make_injector("bus") is not None


def test_use_restores_previous_plan():
    outer = FaultPlan(specs=(FaultSpec(kind="bus", mode="loss", at=(0,)),))
    inner = FaultPlan(specs=(FaultSpec(kind="sensor", mode="nan", at=(0,)),))
    install(outer)
    with use(inner):
        assert make_injector("sensor") is not None
    assert make_injector("sensor") is None
    assert make_injector("bus") is not None


def test_injector_streams_are_deterministic():
    plan = FaultPlan(
        specs=(FaultSpec(kind="sensor", mode="dropout", probability=0.3),),
        seed=7,
    )

    def draw_firings():
        install(plan, seed_path=(4, 2))
        injector = make_injector("sensor")
        return [
            injector.corrupt_reading("server_power", 100.0) == 0.0
            for _ in range(50)
        ]

    first, second = draw_firings(), draw_firings()
    assert first == second
    assert any(first)
    # A different seed path (another sweep cell) gives a different stream.
    install(plan, seed_path=(4, 3))
    other = make_injector("sensor")
    third = [
        other.corrupt_reading("server_power", 100.0) == 0.0
        for _ in range(50)
    ]
    assert third != first


# -- firing decisions ----------------------------------------------------


def test_at_indices_fire_exactly_and_max_events_caps():
    spec = FaultSpec(kind="sensor", mode="nan", target="delay", at=(1, 3))
    injector = FaultInjector([spec], rng=0, kind="sensor")
    out = [injector.corrupt_reading("delay", 1.0) for _ in range(5)]
    assert [np.isnan(v) for v in out] == [False, True, False, True, False]
    assert injector.counts == {"sensor.nan": 2}

    capped = FaultInjector(
        [FaultSpec(kind="sensor", mode="nan", target="delay", at=(0, 1, 2),
                   max_events=1)],
        rng=0, kind="sensor",
    )
    fired = [np.isnan(capped.corrupt_reading("delay", 1.0)) for _ in range(3)]
    assert fired == [True, False, False]
    assert capped.fired_total == 1


def test_sensor_modes_and_empty_target_matches_power_only():
    injector = FaultInjector(
        [FaultSpec(kind="sensor", mode="spike", probability=1.0,
                   magnitude=8.0)],
        rng=0, kind="sensor",
    )
    assert injector.corrupt_reading("server_power", 10.0) == 80.0
    assert injector.corrupt_reading("bs_power", 5.0) == 40.0
    # '' scopes to the power meter; delay and mAP pass through untouched.
    assert injector.corrupt_reading("delay", 0.2) == 0.2
    assert injector.corrupt_reading("map", 0.6) == 0.6


# -- GP hook semantics ---------------------------------------------------


def test_gp_hook_transient_fails_only_bare_attempt():
    injector = FaultInjector(
        [FaultSpec(kind="gp", mode="transient", at=(0,))], rng=0, kind="gp",
    )
    with pytest.raises(np.linalg.LinAlgError):
        injector.gp_hook("refactorize", 0)
    # Jittered retries of the same event sail through: the ladder recovers.
    for attempt in range(1, MAX_JITTER_RETRIES + 1):
        injector.gp_hook("refactorize", attempt)
    # And the next factorisation event is clean.
    injector.gp_hook("refactorize", 0)


def test_gp_hook_persistent_fails_one_full_ladder_then_clears():
    injector = FaultInjector(
        [FaultSpec(kind="gp", mode="persistent", at=(0,))], rng=0, kind="gp",
    )
    for attempt in range(MAX_JITTER_RETRIES + 1):
        with pytest.raises(np.linalg.LinAlgError):
            injector.gp_hook("refactorize", attempt)
    # The budget is spent: the recovery refit (a fresh event) succeeds.
    injector.gp_hook("refactorize", 0)


def test_gp_hook_persistent_at_rank1_covers_the_fallback_refactorize():
    injector = FaultInjector(
        [FaultSpec(kind="gp", mode="persistent", at=(0,))], rng=0, kind="gp",
    )
    with pytest.raises(np.linalg.LinAlgError):
        injector.gp_hook("rank1", 0)
    # The failed rank-1 chains into a full refactorize; every attempt of
    # that ladder must also fail for the fault to be 'persistent'.
    for attempt in range(MAX_JITTER_RETRIES + 1):
        with pytest.raises(np.linalg.LinAlgError):
            injector.gp_hook("refactorize", attempt)
    injector.gp_hook("refactorize", 0)


# -- worker decisions ----------------------------------------------------


def test_worker_faults_only_fire_on_first_attempt():
    injector = FaultInjector(
        [FaultSpec(kind="worker", mode="crash", at=(2,))], rng=0, kind="worker",
    )
    assert injector.worker_decision(0, attempt=0) is None
    spec = injector.worker_decision(2, attempt=0)
    assert spec is not None and spec.mode == "crash"
    assert injector.worker_decision(2, attempt=1) is None


# -- sensor faults through the testbed environment -----------------------


def test_environment_injects_sensor_faults_only_when_noisy():
    plan = FaultPlan(specs=(
        FaultSpec(kind="sensor", mode="nan", target="server_power",
                  probability=1.0),
    ))
    with use(plan):
        env = static_scenario(mean_snr_db=35.0, rng=0,
                              config=TestbedConfig(n_levels=3))
        policy = ControlPolicy.max_resources()
        clean = env.evaluate(policy, noisy=False)
        assert np.isfinite(clean.server_power_w)
        noisy = env.evaluate(policy, noisy=True)
        assert np.isnan(noisy.server_power_w)
        assert np.isfinite(noisy.bs_power_w)  # untargeted reading intact


def test_environment_is_bit_identical_without_a_plan():
    def run(plan):
        if plan is not None:
            install(plan)
        else:
            uninstall()
        env = static_scenario(mean_snr_db=35.0, rng=0,
                              config=TestbedConfig(n_levels=3))
        obs = env.step(ControlPolicy.max_resources())
        return (obs.delay_s, obs.map_score, obs.server_power_w, obs.bs_power_w)

    # A plan with no sensor specs must not shift the KPI noise streams.
    bus_only = FaultPlan(specs=(FaultSpec(kind="bus", mode="loss", at=(0,)),))
    assert run(None) == run(bus_only)


# -- bus faults ----------------------------------------------------------


def _publish(bus, topic, message):
    """Publish and drain; the subscriber count the publish reached."""
    task = post(bus, topic, message)
    bus.drain()
    return task.result


def test_bus_loss_drops_messages_deterministically():
    plan = FaultPlan(specs=(
        FaultSpec(kind="bus", mode="loss", target="e2.control", at=(1,)),
    ))
    with use(plan):
        bus = AsyncMessageBus()
        seen = []
        bus.subscribe("e2.control", seen.append)
        assert _publish(bus, "e2.control", "m0") == 1
        assert _publish(bus, "e2.control", "m1") == 0  # dropped
        assert _publish(bus, "e2.control", "m2") == 1
        assert seen == ["m0", "m2"]
        assert bus.history("e2.control") == ["m0", "m2"]
        # Untargeted topics are untouched.
        assert _publish(bus, "o1", "x") == 0 and bus.history("o1") == ["x"]


def test_bus_delay_reorders_but_eventually_delivers():
    plan = FaultPlan(specs=(
        FaultSpec(kind="bus", mode="delay", target="a1", at=(0,),
                  magnitude=2.0),
    ))
    with use(plan):
        bus = AsyncMessageBus()
        seen = []
        bus.subscribe("a1", seen.append)
        assert _publish(bus, "a1", "held") == 0  # held for 2 publishes
        assert _publish(bus, "a1", "m1") == 1
        _publish(bus, "a1", "m2")                # releases 'held' first
        assert seen == ["m1", "held", "m2"]
