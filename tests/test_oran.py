"""Tests for the O-RAN orchestration plane.

Every publish goes through :func:`repro.oran.post` and is delivered
when the bus drains, so the tests drain before they look.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from repro.oran import (
    A1Client,
    A1PolicyRequest,
    A1PolicyService,
    A1Termination,
    AsyncMessageBus,
    E2Node,
    E2Termination,
    FleetRuntime,
    O1Termination,
    post,
)
from repro.oran.a1 import RADIO_POLICY_TYPE_ID, PolicyType, radio_policy_type
from repro.oran.apps import (
    DataCollectorRApp,
    KPIDatabaseXApp,
    PolicyServiceRApp,
    PolicyServiceXApp,
)
from repro.core import EdgeBOL
from repro.experiments.runner import run_agent
from repro.testbed.config import (
    ControlPolicy,
    CostWeights,
    ServiceConstraints,
    TestbedConfig,
)
from repro.testbed.scenarios import static_scenario


class TestMessageBus:
    """The topic surface of :class:`AsyncMessageBus`."""

    def test_publish_subscribe(self):
        bus = AsyncMessageBus()
        received = []
        bus.subscribe("topic", received.append)
        task = post(bus, "topic", "hello")
        bus.drain()
        assert task.result == 1 and received == ["hello"]

    def test_multiple_subscribers_in_order(self):
        bus = AsyncMessageBus()
        log = []
        bus.subscribe("t", lambda m: log.append(("a", m)))
        bus.subscribe("t", lambda m: log.append(("b", m)))
        post(bus, "t", 1)
        bus.drain()
        assert log == [("a", 1), ("b", 1)]

    def test_unsubscribe(self):
        bus = AsyncMessageBus()
        received = []
        bus.subscribe("t", received.append)
        bus.unsubscribe("t", received.append)
        post(bus, "t", 1)
        bus.drain()
        assert received == []

    def test_history_bounded(self):
        bus = AsyncMessageBus(history_limit=3)
        for i in range(10):
            post(bus, "t", i)
        bus.drain()
        assert bus.history("t") == [7, 8, 9]

    def test_empty_topic_rejected(self):
        bus = AsyncMessageBus()
        post(bus, "", 1)
        with pytest.raises(ValueError, match="topic"):
            bus.drain()
        with pytest.raises(ValueError, match="topic"):
            bus.subscribe("", lambda m: None)

    def test_topics_listing(self):
        bus = AsyncMessageBus()
        post(bus, "a", 1)
        bus.subscribe("b", lambda m: None)
        bus.drain()
        assert bus.topics() == ["a", "b"]


class TestA1PolicyService:
    def make(self):
        service = A1PolicyService()
        service.register_type(radio_policy_type())
        return service

    def put(self, service, airtime=0.5, max_mcs=20, policy_id="p1"):
        return service.handle(A1PolicyRequest(
            operation="PUT",
            policy_type_id=RADIO_POLICY_TYPE_ID,
            policy_id=policy_id,
            body={"airtime": airtime, "max_mcs": max_mcs},
        ))

    def test_put_creates(self):
        service = self.make()
        response = self.put(service)
        assert response.status == 201
        assert service.instances(RADIO_POLICY_TYPE_ID) == ["p1"]

    def test_put_replaces(self):
        service = self.make()
        self.put(service)
        response = self.put(service, airtime=0.9)
        assert response.status == 200

    def test_get(self):
        service = self.make()
        self.put(service, airtime=0.7)
        response = service.handle(A1PolicyRequest(
            operation="GET", policy_type_id=RADIO_POLICY_TYPE_ID,
            policy_id="p1",
        ))
        assert response.ok and response.body["airtime"] == 0.7

    def test_get_missing_404(self):
        service = self.make()
        response = service.handle(A1PolicyRequest(
            operation="GET", policy_type_id=RADIO_POLICY_TYPE_ID,
            policy_id="nope",
        ))
        assert response.status == 404

    def test_delete(self):
        service = self.make()
        self.put(service)
        response = service.handle(A1PolicyRequest(
            operation="DELETE", policy_type_id=RADIO_POLICY_TYPE_ID,
            policy_id="p1",
        ))
        assert response.status == 204
        assert service.instances(RADIO_POLICY_TYPE_ID) == []

    def test_schema_validation(self):
        service = self.make()
        response = service.handle(A1PolicyRequest(
            operation="PUT", policy_type_id=RADIO_POLICY_TYPE_ID,
            policy_id="p1", body={"airtime": 2.0, "max_mcs": 20},
        ))
        assert response.status == 400
        assert any("airtime" in e for e in response.body["errors"])

    def test_unknown_field_rejected(self):
        service = self.make()
        response = service.handle(A1PolicyRequest(
            operation="PUT", policy_type_id=RADIO_POLICY_TYPE_ID,
            policy_id="p1",
            body={"airtime": 0.5, "max_mcs": 20, "bogus": 1},
        ))
        assert response.status == 400

    def test_unknown_type_404(self):
        service = self.make()
        response = service.handle(A1PolicyRequest(
            operation="PUT", policy_type_id=99999, policy_id="p1",
        ))
        assert response.status == 404

    def test_enforcer_called(self):
        service = self.make()
        calls = []
        service.register_enforcer(lambda t, p, b: calls.append((t, p, b)))
        self.put(service, airtime=0.4)
        assert calls[-1][2]["airtime"] == 0.4
        service.handle(A1PolicyRequest(
            operation="DELETE", policy_type_id=RADIO_POLICY_TYPE_ID,
            policy_id="p1",
        ))
        assert calls[-1][2] is None

    def test_policy_type_validate(self):
        ptype = PolicyType(1, "t", {"x": (0.0, 1.0)})
        assert ptype.validate({"x": 0.5}) == []
        assert ptype.validate({}) == ["missing field 'x'"]
        assert "must be numeric" in ptype.validate({"x": "str"})[0]


class TestE2:
    def test_control_sets_mac_policy(self):
        bus = AsyncMessageBus()
        node = E2Node("enb", bus)
        termination = E2Termination(bus)
        termination.send_control(airtime=0.3, max_mcs=12)
        bus.drain()
        assert node.radio_policy.airtime == 0.3
        assert node.radio_policy.max_mcs == 12

    def test_indication_requires_subscription(self):
        bus = AsyncMessageBus()
        node = E2Node("enb", bus)
        termination = E2Termination(bus)
        received = []
        termination.register_indication_handler(received.append)
        node.report_kpis({"bs_power_w": 5.0})
        bus.drain()
        assert received == []  # no subscription yet
        termination.subscribe_kpis("xapp", ("bs_power_w",))
        bus.drain()
        node.report_kpis({"bs_power_w": 5.0})
        bus.drain()
        assert len(received) == 1
        assert received[0].kpis == {"bs_power_w": 5.0}

    def test_indication_filters_kpis(self):
        bus = AsyncMessageBus()
        node = E2Node("enb", bus)
        termination = E2Termination(bus)
        received = []
        termination.register_indication_handler(received.append)
        termination.subscribe_kpis("xapp", ("bs_power_w",))
        bus.drain()
        node.report_kpis({"bs_power_w": 5.0, "secret": 1.0})
        bus.drain()
        assert "secret" not in received[0].kpis


class TestO1AndApps:
    def test_o1_forwarding(self):
        bus = AsyncMessageBus()
        o1 = O1Termination(bus)
        received = []
        o1.register_handler(received.append)
        o1.forward("src", {"k": 1.0})
        bus.drain()
        assert received[0].kpis == {"k": 1.0}

    def test_kpi_xapp_pipeline(self):
        bus = AsyncMessageBus()
        node = E2Node("enb", bus)
        e2 = E2Termination(bus)
        o1 = O1Termination(bus)
        xapp = KPIDatabaseXApp(e2, o1)
        collector = DataCollectorRApp(o1)
        e2.subscribe_kpis(xapp.name, ("bs_power_w",))
        bus.drain()
        node.report_kpis({"bs_power_w": 6.2})
        bus.drain()
        assert collector.latest_kpis == {"bs_power_w": 6.2}
        assert len(xapp.records) == 1

    def test_policy_rapp_xapp_path(self):
        """rApp -> A1 client -> A1 termination -> xApp -> E2 control."""
        bus = AsyncMessageBus()
        node = E2Node("enb", bus)
        e2 = E2Termination(bus)
        a1 = A1PolicyService()
        a1.register_type(radio_policy_type())
        A1Termination(bus, a1)
        PolicyServiceXApp(a1, e2, policy_id="slice-0")
        service_knobs = []
        rapp = PolicyServiceRApp(
            A1Client(bus), "slice-0",
            on_service_policy=lambda r, g: service_knobs.append((r, g)),
        )
        decision = ControlPolicy(0.5, 0.6, 0.7, 0.8)
        rapp.deploy(decision)
        bus.drain()
        assert node.radio_policy.airtime == pytest.approx(0.6)
        assert node.radio_policy.max_mcs == decision.radio_policy().max_mcs
        assert service_knobs == [(0.5, 0.7)]
        assert a1.instances(RADIO_POLICY_TYPE_ID) == ["slice-0"]


class TestOranSystem:
    """One cell's loop: a one-cell :class:`FleetRuntime`."""

    def test_full_loop_enforces_decision(self):
        testbed = TestbedConfig(n_levels=5)
        env = static_scenario(mean_snr_db=35.0, rng=0, config=testbed)
        agent = EdgeBOL(
            testbed.control_grid(),
            ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0),
        )
        fleet = FleetRuntime([(env, agent)])
        log = fleet.run(5).logs["cell000"]
        assert len(log) == 5
        cell = fleet.cells[0]
        assert cell.policy_rapp.deployed_policies == 5
        assert cell.policy_xapp.enforced == 5
        assert cell.collector.report_count == 5
        # KPI path delivered the BS power the agent consumed.
        assert log.bs_power_w[-1] == pytest.approx(
            cell.collector.latest_kpis["bs_power_w"]
        )

    def test_loop_matches_direct_drive_structure(self):
        """Costs through the O-RAN plane stay in the same range as
        driving the environment directly."""
        testbed = TestbedConfig(n_levels=5)
        env = static_scenario(mean_snr_db=35.0, rng=1, config=testbed)
        agent = EdgeBOL(
            testbed.control_grid(),
            ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0),
        )
        log = run_agent(env, agent, 10, plane="async")
        assert all(80.0 < c < 200.0 for c in log.cost)


class TestReleaseDueReentrancy:
    """Regression: ``_release_due`` under reentrant same-topic publish.

    A handler that publishes on the topic it receives from re-enters
    ``_release_due`` while a delayed message is being delivered.  The
    old implementation committed the new held state only *after*
    delivering, so the reentrant call re-aged the already-due entry and
    delivered it a second time, out of order relative to history.
    """

    @staticmethod
    def _plan():
        from repro.faults import FaultPlan, FaultSpec
        return FaultPlan(specs=(
            FaultSpec(kind="bus", mode="delay", target="t", at=(0, 1),
                      magnitude=1.0),
        ))

    def test_async_bus_no_duplicate_release(self):
        from repro.faults import use

        with use(self._plan()):
            bus = AsyncMessageBus()
            seen = []
            fired = []

            def handler(message):
                seen.append(message)
                if message == "A" and not fired:
                    fired.append(True)
                    post(bus, "t", "R")

            bus.subscribe("t", handler)
            for message in ("A", "B", "C"):
                post(bus, "t", message)
                bus.drain()
            assert seen.count("A") == 1, "delayed message delivered twice"
            # The handler runs deferred (after publish "B" completed and
            # held its message), so its reentrant publish is the aging
            # publish that releases "B" — ahead of "R".  The invariants
            # under test: exactly-once release, history == delivery.
            assert seen == ["A", "B", "R", "C"]
            assert bus.history("t") == seen


class TestIntegrationExample:
    """``examples/oran_integration.py`` runs on the current API."""

    def test_main_runs_three_periods(self, capsys):
        path = Path(__file__).parents[1] / "examples" / "oran_integration.py"
        spec = importlib.util.spec_from_file_location("oran_integration", path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        example.main(3)
        out = capsys.readouterr().out
        for counter in ("periods run", "A1 policies deployed (rApp)",
                        "O1 reports received (collector rApp)"):
            assert re.search(rf"{re.escape(counter)}\s+\| 3\s", out), counter
        assert "O-eNB MAC state after the run" in out
