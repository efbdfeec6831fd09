"""SMO framework: end-to-end O-RAN wiring of the EdgeBOL loop.

Builds the complete Fig. 7 deployment on a message bus — near-RT and
non-RT RICs, policy/KPI xApps, policy/data rApps, an E2 node attached
to the simulated vBS — so that every control decision travels A1 -> E2
and every KPI sample travels E2 -> O1.
:class:`~repro.oran.runtime.AsyncOranSystem` runs the orchestration
loop over it; the experiment harness drives the environment directly
for speed unless asked for ``plane="async"``.
"""

from __future__ import annotations

from repro.oran.apps import (
    DataCollectorRApp,
    KPIDatabaseXApp,
    PolicyServiceRApp,
    PolicyServiceXApp,
)
from repro.oran.bus import AsyncMessageBus
from repro.oran.e2 import E2Node
from repro.oran.ric import NearRTRIC, NonRTRIC
from repro.ran.phy import MAX_MCS
from repro.testbed.config import ControlPolicy


class SMOFramework:
    """Service Management and Orchestration: owns and wires components.

    Parameters
    ----------
    bus:
        Transport for the whole plane.  Publishes are delivered when
        the caller drains the bus at a period's synchronisation points
        (see :class:`~repro.oran.runtime.AsyncOranSystem`).
    node_id, prefix:
        E2 node identity and topic namespace (multi-cell layouts give
        every cell its own prefix on one shared bus).
    batch_size:
        E2 indication batch size (see :class:`~repro.oran.e2.E2Node`).
    """

    def __init__(self, bus: AsyncMessageBus, node_id: str = "o-enb-0",
                 prefix: str = "", batch_size: int = 1) -> None:
        self.bus = bus
        self.prefix = prefix
        self.near_rt_ric = NearRTRIC(self.bus, prefix=prefix)
        self.non_rt_ric = NonRTRIC(self.near_rt_ric)
        self.e2_node = E2Node(
            node_id=node_id, bus=self.bus, prefix=prefix,
            batch_size=batch_size,
        )

        # xApps on the near-RT RIC.
        self.policy_xapp = PolicyServiceXApp(
            self.near_rt_ric.a1_service, self.near_rt_ric.e2
        )
        self.kpi_xapp = KPIDatabaseXApp(self.near_rt_ric.e2, self.near_rt_ric.o1)
        self.near_rt_ric.host_xapp(self.policy_xapp)
        self.near_rt_ric.host_xapp(self.kpi_xapp)

        # rApps on the non-RT RIC.
        self._service_policy: tuple[float, float] = (1.0, 1.0)
        self.policy_rapp = PolicyServiceRApp(
            self.non_rt_ric.a1_service,
            on_service_policy=self._set_service_policy,
        )
        self.data_rapp = DataCollectorRApp(self.near_rt_ric.o1)
        self.non_rt_ric.host_rapp(self.policy_rapp)
        self.non_rt_ric.host_rapp(self.data_rapp)

        # The KPI xApp subscribes for the vBS power metric (Section 4.1).
        self.near_rt_ric.e2.subscribe_kpis(
            subscriber=self.kpi_xapp.name, kpi_names=("bs_power_w",)
        )

    def _set_service_policy(self, resolution: float, gpu_speed: float) -> None:
        self._service_policy = (resolution, gpu_speed)

    @property
    def enforced_policy(self) -> ControlPolicy:
        """Joint control as actually enforced across the system.

        Radio knobs come from the E2 node's MAC state (having traversed
        A1 -> xApp -> E2 control), service knobs from the edge
        orchestrator.
        """
        radio = self.e2_node.radio_policy
        resolution, gpu_speed = self._service_policy
        return ControlPolicy(
            resolution=resolution,
            airtime=radio.airtime,
            gpu_speed=gpu_speed,
            mcs_fraction=radio.max_mcs / MAX_MCS,
        )
