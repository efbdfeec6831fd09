"""E2 interface: RIC services toward the base station.

The E2 node (the srsRAN-based O-eNB in the prototype) terminates two
RIC services used by EdgeBOL:

* **RIC Control** — the near-RT RIC pushes the airtime / max-MCS radio
  policies, which the node's MAC scheduler must respect;
* **RIC Subscription / Indication** — the node periodically reports
  KPIs (BS power consumption in the paper) to subscribed xApps.

Both ends publish through :func:`repro.oran.bus.post` (synchronous
call sites schedule a publish task on the bus's loop) and take a topic
``prefix`` so a multi-cell runtime can namespace each cell's E2 plane
(``cell003.e2.control``) on one shared bus.

Indications may be *batched*: with ``batch_size > 1`` the node buffers
reports and ships them as one
:class:`~repro.oran.messages.E2IndicationBatch`, which the RIC-side
termination unpacks in order.  ``batch_size=1`` (the default) publishes
plain :class:`~repro.oran.messages.E2Indication` messages exactly as
before — the configuration the committed rows digests are stated
for.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.oran.bus import post
from repro.oran.messages import (
    E2ControlRequest,
    E2Indication,
    E2IndicationBatch,
    E2Subscription,
)
from repro.ran.mac import RadioPolicy
from repro.ran.phy import MAX_MCS


class E2Node:
    """Base-station side E2 termination.

    Holds the currently enforced radio policy and produces KPI
    indications when polled by the host environment loop.

    Parameters
    ----------
    node_id:
        E2 node identifier.
    bus:
        Transport used for indications (topic ``{prefix}e2.indication``).
    prefix:
        Topic namespace (the runtime gives each cell its own, e.g.
        ``cell000.``; empty for a standalone node).
    batch_size:
        Indications buffered per :class:`E2IndicationBatch`; ``1``
        publishes unbatched indications.
    """

    def __init__(self, node_id: str, bus, prefix: str = "",
                 batch_size: int = 1) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.node_id = node_id
        self.bus = bus
        self.prefix = prefix
        self.batch_size = int(batch_size)
        self._policy = RadioPolicy(airtime=1.0, max_mcs=MAX_MCS)
        self._subscriptions: list[E2Subscription] = []
        self._period = 0
        self._pending: list[E2Indication] = []
        self._indication_topic = f"{prefix}e2.indication"
        bus.subscribe(f"{prefix}e2.control", self._on_control)
        bus.subscribe(f"{prefix}e2.subscription", self._on_subscription)

    @property
    def radio_policy(self) -> RadioPolicy:
        """The policy currently enforced by the MAC scheduler."""
        return self._policy

    @property
    def subscriptions(self) -> list[E2Subscription]:
        """Subscriptions received so far."""
        return list(self._subscriptions)

    @property
    def pending_indications(self) -> int:
        """Buffered indications awaiting a batch flush."""
        return len(self._pending)

    def _on_control(self, message: object) -> None:
        if not isinstance(message, E2ControlRequest):
            raise TypeError(f"unexpected message on e2.control: {message!r}")
        self._policy = RadioPolicy(
            airtime=message.airtime, max_mcs=message.max_mcs
        )

    def _on_subscription(self, message: object) -> None:
        if not isinstance(message, E2Subscription):
            raise TypeError(f"unexpected message on e2.subscription: {message!r}")
        self._subscriptions.append(message)

    def report_kpis(self, kpis: dict[str, float]):
        """Emit one RIC Indication carrying the measured KPIs.

        Only KPIs requested by at least one subscription are included;
        with no subscribers, nothing is sent.  With ``batch_size > 1``
        the indication is buffered and shipped by :meth:`flush` once
        the batch fills.  Returns the publish task, or ``None`` when
        nothing was published.
        """
        if not self._subscriptions:
            return None
        requested: set[str] = set()
        for sub in self._subscriptions:
            requested.update(sub.kpi_names)
        payload = {k: v for k, v in kpis.items() if k in requested}
        if not payload:
            return None
        self._period += 1
        indication = E2Indication(
            node_id=self.node_id, kpis=payload, period=self._period
        )
        if self.batch_size <= 1:
            return post(self.bus, self._indication_topic, indication)
        self._pending.append(indication)
        if len(self._pending) >= self.batch_size:
            return self.flush()
        return None

    def flush(self):
        """Ship buffered indications as one batch (no-op when empty)."""
        if not self._pending:
            return None
        batch = E2IndicationBatch(
            node_id=self.node_id,
            indications=tuple(self._pending),
            period=self._period,
        )
        self._pending.clear()
        return post(self.bus, self._indication_topic, batch)


class E2Termination:
    """Near-RT RIC side of E2: sends control/subscriptions, fans out
    indications to registered xApp handlers (unpacking batches)."""

    def __init__(self, bus, prefix: str = "") -> None:
        """Attach to ``bus`` under the ``prefix`` topic namespace."""
        self.bus = bus
        self.prefix = prefix
        self._handlers: list[Callable[[E2Indication], None]] = []
        bus.subscribe(f"{prefix}e2.indication", self._on_indication)

    def send_control(self, airtime: float, max_mcs: int):
        """Issue a RIC Control enforcing radio policies on the node."""
        return post(
            self.bus,
            f"{self.prefix}e2.control",
            E2ControlRequest(airtime=airtime, max_mcs=max_mcs),
        )

    def subscribe_kpis(
        self, subscriber: str, kpi_names: tuple[str, ...],
        report_period_s: float = 1.0,
    ):
        """Create a RIC Subscription on behalf of an xApp."""
        return post(
            self.bus,
            f"{self.prefix}e2.subscription",
            E2Subscription(
                subscriber=subscriber,
                kpi_names=tuple(kpi_names),
                report_period_s=report_period_s,
            ),
        )

    def register_indication_handler(
        self, handler: Callable[[E2Indication], None]
    ) -> None:
        """Add an xApp callback invoked per (unbatched) indication."""
        self._handlers.append(handler)

    def _on_indication(self, message: object) -> None:
        if isinstance(message, E2Indication):
            indications: tuple[E2Indication, ...] = (message,)
        elif isinstance(message, E2IndicationBatch):
            indications = message.indications
        else:
            raise TypeError(f"unexpected message on e2.indication: {message!r}")
        for indication in indications:
            for handler in list(self._handlers):
                handler(indication)
