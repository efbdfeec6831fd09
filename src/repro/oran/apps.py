"""rApps and xApps (the application layer of Fig. 7).

* :class:`PolicyServiceRApp` (non-RT RIC): translates the learning
  agent's joint decisions into A1 policy requests for the radio knobs,
  published through an :class:`~repro.oran.a1.A1Client`, and direct
  edge-orchestrator calls for the service knobs.
* :class:`PolicyServiceXApp` (near-RT RIC): enforces one cell's A1
  policy instance onto its E2 node through RIC Control.
* :class:`KPIDatabaseXApp` (near-RT RIC): subscribes to E2 KPI
  indications, stores them, and forwards them over O1.
* :class:`DataCollectorRApp` (non-RT RIC): receives O1 reports and
  hands consolidated KPI feedback to the learning agent.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.oran.a1 import RADIO_POLICY_TYPE_ID, A1Client, A1PolicyService
from repro.oran.e2 import E2Termination
from repro.oran.messages import A1PolicyRequest, E2Indication, O1Report
from repro.oran.o1 import O1Termination
from repro.testbed.config import ControlPolicy


class PolicyServiceRApp:
    """Deploys radio policies through A1 (non-RT RIC side).

    The image-resolution and GPU-speed knobs do not traverse A1 (they
    go to the service application and the edge orchestrator, per
    Section 4.2); callbacks allow the runtime to route them.
    """

    def __init__(
        self,
        a1_client: A1Client,
        policy_id: str,
        on_service_policy: Callable[[float, float], None] | None = None,
    ) -> None:
        self.a1_client = a1_client
        self.policy_id = policy_id
        self.on_service_policy = on_service_policy
        self.deployed_policies = 0

    def deploy(self, policy: ControlPolicy) -> None:
        """Push one joint control decision into the system.

        The A1 request is published; it is enforced — or a rejection
        raises from the client's response handler — at the next drain.
        """
        radio = policy.radio_policy()
        self.a1_client.send(A1PolicyRequest(
            operation="PUT",
            policy_type_id=RADIO_POLICY_TYPE_ID,
            policy_id=self.policy_id,
            body={"airtime": radio.airtime, "max_mcs": radio.max_mcs},
        ))
        if self.on_service_policy is not None:
            self.on_service_policy(policy.resolution, policy.gpu_speed)
        self.deployed_policies += 1


class PolicyServiceXApp:
    """Enforces one A1 policy instance on an E2 node (near-RT RIC side).

    ``policy_id`` scopes the xApp to its cell's policy instance: every
    cell hosts its own enforcement xApp against the *shared* A1
    service, and the filter keeps cell A's policies off cell B's E2
    node.
    """

    def __init__(self, a1_service: A1PolicyService, e2: E2Termination,
                 policy_id: str) -> None:
        self.e2 = e2
        self.policy_id = policy_id
        self.enforced = 0
        a1_service.register_enforcer(self._on_policy)

    def _on_policy(
        self, policy_type_id: int, policy_id: str, body: dict | None
    ) -> None:
        if (policy_type_id != RADIO_POLICY_TYPE_ID or body is None
                or policy_id != self.policy_id):
            return
        self.e2.send_control(
            airtime=float(body["airtime"]), max_mcs=int(body["max_mcs"])
        )
        self.enforced += 1


class KPIDatabaseXApp:
    """Stores E2 KPI indications and forwards them over O1."""

    def __init__(
        self, e2: E2Termination, o1: O1Termination, name: str = "kpi-database",
        history_limit: int = 10_000,
    ) -> None:
        if history_limit < 1:
            raise ValueError("history_limit must be >= 1")
        self.name = name
        self.o1 = o1
        self.history_limit = history_limit
        self._records: list[E2Indication] = []
        e2.register_indication_handler(self._on_indication)

    @property
    def records(self) -> list[E2Indication]:
        """All KPI indications stored so far (insertion order)."""
        return list(self._records)

    def _on_indication(self, indication: E2Indication) -> None:
        self._records.append(indication)
        if len(self._records) > self.history_limit:
            self._records = self._records[-self.history_limit:]
        self.o1.forward(source=self.name, kpis=indication.kpis)


class DataCollectorRApp:
    """Aggregates O1 KPI reports for the learning agent (non-RT RIC)."""

    def __init__(self, o1: O1Termination) -> None:
        self._latest: dict[str, float] = {}
        self._report_count = 0
        o1.register_handler(self._on_report)

    @property
    def latest_kpis(self) -> dict[str, float]:
        """Most recent value per KPI name."""
        return dict(self._latest)

    @property
    def report_count(self) -> int:
        """Number of O1 reports received."""
        return self._report_count

    def _on_report(self, report: O1Report) -> None:
        self._latest.update(report.kpis)
        self._report_count += 1
