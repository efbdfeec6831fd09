"""Tests for the async O-RAN runtime and the multi-cell fleet harness.

The headline contract (``docs/CONTROL_PLANE.md``): a single-cell run
through the event-loop plane — a one-cell fleet — is **bit-identical**
to committed digests of its RunLog rows, decision-trace records and
the per-period policy, observation and cost the agent learned from,
with and without an installed fault plan.  The digests were taken when
a second, synchronous transport and a separate single-cell runtime
still existed and agreed with them.  On top: fleet determinism,
per-cell policy isolation, the load models, and alert rule/throttle
behaviour.
"""

import dataclasses
import gc
import hashlib
import json
import warnings

import numpy as np
import pytest

from repro.core import EdgeBOL
from repro.experiments.fleet import run_fleet_cell_sim, run_fleet_spec_cell
from repro.experiments.runner import run_agent
from repro.faults import FaultPlan, FaultSpec, use
from repro.oran import (
    AlertRouter,
    AlertRule,
    FleetLoadModel,
    FleetRuntime,
    default_rules,
)
from repro.telemetry import runtime as telemetry
from repro.telemetry.export import InMemorySink
from repro.testbed.config import CostWeights, ServiceConstraints, TestbedConfig
from repro.testbed.scenarios import static_scenario
from repro.utils.rng import seed_tree

TESTBED = TestbedConfig(n_levels=4)


def _make_cell(seed):
    """One (env, agent) pair from one seed node."""
    env_rng, = seed_tree(seed, 1)
    env = static_scenario(rng=env_rng, config=TESTBED)
    agent = EdgeBOL(
        TESTBED.control_grid(), ServiceConstraints(), CostWeights(1.0, 1.0)
    )
    return env, agent


def _digest(payload) -> str:
    """SHA-256 of the JSON text (floats serialise exactly via repr)."""
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _record_observations(agent) -> list:
    """Wrap ``agent.observe``; the list fills with one entry per period:
    ``[period, policy, observation, cost]``, arrays as lists."""
    records = []
    observe = agent.observe

    def recording_observe(context, policy, observation):
        cost = observe(context, policy, observation)
        fields = {
            name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in dataclasses.asdict(observation).items()
        }
        records.append([len(records) + 1, dataclasses.asdict(policy),
                        fields, cost])
        return cost

    agent.observe = recording_observe
    return records


# -- async plane == committed digests ------------------------------------


class TestBitIdentity:
    def test_runlog_rows_identical(self):
        """The acceptance gate: async RunLog rows == committed digest."""
        env, agent = _make_cell(7)
        log = run_agent(env, agent, 12, plane="async")
        assert _digest(log.as_rows()) == (
            "cd8fc6f3cfe6b28f1bbe1e2bbd135d469328ca82951f371f92406c5df0d1cbb5"
        )

    def test_decision_traces_identical(self):
        env, agent = _make_cell(11)
        with telemetry.attach(InMemorySink()) as sink:
            run_agent(env, agent, 8, plane="async")
        assert _digest(sink.of_type("decision")) == (
            "f16f5cf972be97a8d3dab2f2945b6b58ef258ae8ef607f046e90a00d095b827f"
        )

    def test_identity_survives_fault_plan(self):
        """Bus faults are drawn per publish, in publish order: the
        faulted rows are as reproducible as clean ones."""
        plan = FaultPlan(specs=(
            FaultSpec(kind="bus", mode="loss",
                      target="cell000.e2.indication", at=(2,)),
            FaultSpec(kind="bus", mode="delay", target="cell000.e2.control",
                      at=(4,), magnitude=2.0),
        ))
        with use(plan):
            env, agent = _make_cell(3)
            log = run_agent(env, agent, 10, plane="async")
        assert _digest(log.as_rows()) == (
            "6c7f76f0eb49d56ee4454d1f35b6ccd3e6220b1dad891e1829e5e38692752afc"
        )

    def test_orchestration_records_identical(self):
        """What the agent observed carries the full observation
        (per-user arrays, GPU and rate KPIs), which RunLog rows do not:
        pinned separately."""
        env, agent = _make_cell(5)
        records = _record_observations(agent)
        run_agent(env, agent, 10, plane="async")
        assert _digest(records) == (
            "f86b371faf7aa7ab8d1b29f9fff413e6464f925ed311df04e475c7b987976c62"
        )

    def test_async_run_leaves_no_unawaited_coroutines(self):
        """The last period's alert publish is drained before the run
        returns, so no never-started coroutine is left for the GC."""
        env, _ = _make_cell(7)
        agent = EdgeBOL(TESTBED.control_grid(),
                        ServiceConstraints(d_max_s=1e-6),
                        CostWeights(1.0, 1.0))
        gc.collect()  # earlier tests' garbage is not this test's
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # Every delay breaches d_max: `negative_margin` (sustain 3)
            # first raises in the third and last period.
            log = run_agent(env, agent, 3, plane="async")
            assert min(log.delay_s) > 1e-6
            del env, agent, log
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not leaked, [str(w.message) for w in leaked]

    def test_plane_validation(self):
        env, agent = _make_cell(0)
        with pytest.raises(ValueError, match="plane"):
            run_agent(env, agent, 1, plane="quantum")


# -- fleet runtime -------------------------------------------------------


class TestFleetRuntime:
    def test_fleet_runs_and_accounts_decisions(self):
        cells = [_make_cell(100 + i) for i in range(3)]
        fleet = FleetRuntime(cells)
        result = fleet.run(6)
        assert result.n_cells == 3 and result.n_periods == 6
        assert result.decisions == 18
        assert sorted(result.logs) == ["cell000", "cell001", "cell002"]
        assert all(len(log) == 6 for log in result.logs.values())
        assert result.decisions_per_s > 0
        # Per-cell topic namespaces all saw traffic.
        stats = result.mailbox_stats
        for cell_id in result.logs:
            assert f"{cell_id}.e2.indication" in stats

    def test_fleet_is_deterministic(self):
        def run():
            cells = [_make_cell(200 + i) for i in range(2)]
            load = FleetLoadModel(2, profile="correlated", seed=5)
            result = FleetRuntime(cells, load_model=load).run(5)
            return json.dumps({
                cell: log.as_rows() for cell, log in result.logs.items()
            })

        assert run() == run()

    def test_cells_enforce_their_own_policies(self):
        """The shared A1 service must not leak one cell's policy into
        another (per-cell ``policy_id`` filtering on the xApps)."""
        cells = [_make_cell(300 + i) for i in range(2)]
        fleet = FleetRuntime(cells)
        fleet.run(3)
        for cell in fleet.cells:
            # Each cell's E2 node enforced the decision its own agent
            # deployed (quantised through the shared A1 radio policy).
            last_control = fleet.bus.history(f"{cell.prefix}e2.control")[-1]
            assert last_control.airtime \
                == pytest.approx(cell.e2_node.radio_policy.airtime)

    def test_load_model_mismatch_rejected(self):
        cells = [_make_cell(0)]
        with pytest.raises(ValueError, match="load model covers"):
            FleetRuntime(cells, load_model=FleetLoadModel(3))

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetRuntime([])


# -- load models ---------------------------------------------------------


class TestFleetLoadModel:
    @pytest.mark.parametrize("profile", ["flat", "diurnal", "flash",
                                         "correlated"])
    def test_profiles_positive_and_deterministic(self, profile):
        def trajectory():
            model = FleetLoadModel(4, profile=profile, seed=9)
            return [model.step().tolist() for _ in range(20)]

        a, b = trajectory(), trajectory()
        assert a == b
        assert all(v > 0 for row in a for v in row)

    def test_flat_is_constant(self):
        model = FleetLoadModel(3, profile="flat", base=2.0)
        assert model.step().tolist() == [2.0, 2.0, 2.0]

    def test_diurnal_phases_stagger_across_cells(self):
        model = FleetLoadModel(4, profile="diurnal", seed=0,
                               periods_per_day=16)
        first = model.step()
        # Phase-staggered starts: the cells do not begin at one point
        # of the day curve.
        assert len({round(v, 6) for v in first}) > 1

    def test_flash_surges_decay_and_spill(self):
        model = FleetLoadModel(5, profile="flash", seed=3, flash_rate=1.0,
                               flash_duration=2)
        values = model.step()
        assert model.active_flashes >= 1
        assert values.max() > model.base  # somebody is surging
        # With rate 0 afterwards the surge decays away.
        model.flash_rate = 0.0
        for _ in range(4):
            values = model.step()
        assert model.active_flashes == 0
        assert values.tolist() == [model.base] * 5

    def test_validation(self):
        with pytest.raises(ValueError, match="profile"):
            FleetLoadModel(2, profile="tsunami")
        with pytest.raises(ValueError, match="n_cells"):
            FleetLoadModel(0)


# -- alerts --------------------------------------------------------------


class TestAlerts:
    @staticmethod
    def _sample(cell="cell000", t=0, **kw):
        base = {"cell": cell, "t": t, "delay_s": 0.1, "map_score": 0.9,
                "d_max_s": 0.5, "rho_min": 0.4, "degraded": False}
        base.update(kw)
        return base

    def test_delay_violation_fires_and_throttles(self):
        router = AlertRouter(default_rules(min_gap=5))
        raised = []
        for t in range(8):
            raised += router.process(self._sample(t=t, delay_s=0.9))
        # Raised at t=0, throttled until t=5, raised again.
        delays = [a.t for a in raised if a.rule == "delay_violation"]
        assert delays == [0, 5]
        by_rule = router.counts_by_rule()["delay_violation"]
        assert by_rule == {"raised": 2, "suppressed": 6}

    def test_sustain_requires_consecutive_periods(self):
        rule = AlertRule(
            name="streak", predicate=lambda s: s["delay_s"] > 0.5,
            message=lambda s: "streak", sustain=3, min_gap=100,
        )
        router = AlertRouter((rule,))
        fired = []
        pattern = [0.9, 0.9, 0.1, 0.9, 0.9, 0.9]   # broken then full streak
        for t, delay in enumerate(pattern):
            fired += router.process(self._sample(t=t, delay_s=delay))
        assert [a.t for a in fired] == [5]

    def test_per_cell_throttle_state_is_independent(self):
        router = AlertRouter(default_rules(min_gap=10))
        for cell in ("cell000", "cell001"):
            router.process(self._sample(cell=cell, t=0, delay_s=0.9))
        by_rule = router.counts_by_rule()
        assert by_rule["delay_violation"]["raised"] == 2
        assert by_rule["delay_violation"]["suppressed"] == 0

    def test_degraded_stretch_and_negative_margin(self):
        router = AlertRouter(default_rules(degraded_sustain=3,
                                           margin_sustain=2))
        fired = []
        for t in range(4):
            fired += router.process(
                self._sample(t=t, delay_s=0.9, degraded=True)
            )
        names = [a.rule for a in fired]
        assert "negative_margin" in names       # margin < 0 for 2 periods
        assert "degraded_stretch" in names      # degraded for 3 periods
        critical = [a for a in fired if a.severity == "critical"]
        assert len(critical) == len(fired) - names.count("delay_violation")

    def test_alerts_route_to_bus_topic(self, new_bus):
        bus = new_bus()
        seen = []
        bus.subscribe("smo.alerts", seen.append)
        router = AlertRouter(default_rules(), bus=bus)
        router.process(self._sample(delay_s=0.9))
        bus.drain()
        assert len(seen) == 1
        assert seen[0]["type"] == "alert"
        assert seen[0]["rule"] == "delay_violation"

    def test_duplicate_rule_names_rejected(self):
        rule = default_rules()[0]
        with pytest.raises(ValueError, match="duplicate"):
            AlertRouter((rule, rule))


# -- the fleet experiment spec -------------------------------------------


class TestFleetSpec:
    PARAMS = {"cells": 2, "periods": 4, "levels": 3, "users": 1,
              "load": "diurnal", "policy": "block", "batch": 1}

    def test_cell_rows_deterministic_and_complete(self):
        rows_a = run_fleet_spec_cell(self.PARAMS, 0)
        rows_b = run_fleet_spec_cell(self.PARAMS, 0)
        assert json.dumps(rows_a) == json.dumps(rows_b)
        assert [r["cell"] for r in rows_a] == ["cell000", "cell001"]
        for row in rows_a:
            assert row["decisions"] == 4
            # No wall-clock in rows: the schema must stay reproducible.
            assert "wall_s" not in row and "decisions_per_s" not in row

    def test_alerts_counted_under_pressure(self):
        """A tight capacity + flash load exercises drops and alerts
        without breaking the run."""
        result = run_fleet_cell_sim(
            n_cells=2, n_periods=6, seed=1, levels=3,
            load_profile="flash", mailbox_policy="drop-oldest",
        )
        counts = result.alert_counts
        assert counts["raised"] >= 0 and counts["suppressed"] >= 0
        assert result.decisions == 12
