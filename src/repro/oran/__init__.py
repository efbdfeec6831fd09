"""O-RAN compliant orchestration plane (Fig. 7 of the paper).

In-process implementations of the O-RAN components EdgeBOL plugs into:

* the **A1 interface** (Policy Management Service) between the non-RT
  RIC and the near-RT RIC, served over the bus
  (:class:`A1Termination` / :class:`A1Client`),
* the **E2 interface** (subscription / indication / control) between
  the near-RT RIC and the O-eNB, with optional indication batching,
* the **O1 interface** reporting KPIs up to the SMO / non-RT RIC,
* **rApps** (policy service, data collector) hosted by the non-RT RIC
  and **xApps** (policy service, database/KPI) hosted by the near-RT
  RIC,
* the **runtime** (:class:`FleetRuntime`) that wires one plane per
  cell and runs the orchestration loop.

Every control decision of the learning agent travels A1 -> E2 to the
base station, and every KPI sample travels E2 -> O1 back to the agent,
exactly as laid out in Section 4.1.

One transport carries the plane (``docs/CONTROL_PLANE.md``):
:class:`AsyncMessageBus` — bounded per-xApp mailboxes with explicit
backpressure on a deterministic virtual-time scheduler
(:class:`VirtualTimeLoop`).  One runtime drives it:
:class:`FleetRuntime` runs one or tens of cells in one process with a
shared SMO, an optional load harness (:class:`FleetLoadModel`) and
throttled alerting (:class:`AlertRouter`); a single cell is a one-cell
fleet.  Each fleet carries a :class:`FleetSupervisor`
(``docs/ROBUSTNESS.md``, "Fleet resilience") for snapshot
checkpointing, crash/stall recovery with restart policies and a
mailbox circuit breaker.
"""

from repro.oran.bus import (
    MAILBOX_POLICIES,
    AsyncMessageBus,
    Mailbox,
    post,
)
from repro.oran.loop import Future, Task, VirtualTimeLoop, sleep
from repro.oran.messages import (
    A1PolicyRequest,
    A1PolicyResponse,
    E2ControlRequest,
    E2Indication,
    E2IndicationBatch,
    E2Subscription,
    O1Report,
)
from repro.oran.a1 import (
    A1Client,
    A1PolicyService,
    A1Termination,
    PolicyType,
)
from repro.oran.e2 import E2Node, E2Termination
from repro.oran.o1 import O1Termination
from repro.oran.apps import (
    DataCollectorRApp,
    KPIDatabaseXApp,
    PolicyServiceRApp,
    PolicyServiceXApp,
)
from repro.oran.alerts import Alert, AlertRouter, AlertRule, default_rules
from repro.oran.load import LOAD_PROFILES, FleetLoadModel
from repro.oran.runtime import (
    FleetCell,
    FleetResult,
    FleetRuntime,
)
from repro.oran.supervisor import FleetSupervisor, SupervisorPolicy

__all__ = [
    "AsyncMessageBus",
    "Mailbox",
    "MAILBOX_POLICIES",
    "post",
    "Future",
    "Task",
    "VirtualTimeLoop",
    "sleep",
    "A1PolicyRequest",
    "A1PolicyResponse",
    "E2ControlRequest",
    "E2Indication",
    "E2IndicationBatch",
    "E2Subscription",
    "O1Report",
    "A1Client",
    "A1PolicyService",
    "A1Termination",
    "PolicyType",
    "E2Node",
    "E2Termination",
    "O1Termination",
    "DataCollectorRApp",
    "KPIDatabaseXApp",
    "PolicyServiceRApp",
    "PolicyServiceXApp",
    "Alert",
    "AlertRouter",
    "AlertRule",
    "default_rules",
    "FleetLoadModel",
    "LOAD_PROFILES",
    "FleetCell",
    "FleetResult",
    "FleetRuntime",
    "FleetSupervisor",
    "SupervisorPolicy",
]
