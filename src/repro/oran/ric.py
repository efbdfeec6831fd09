"""RAN Intelligent Controllers.

Thin composition layers: the near-RT RIC terminates A1 (provider side)
and E2 (consumer side) and hosts xApps; the non-RT RIC hosts rApps and
consumes O1 reports.  The classes mostly wire interfaces together —
the behaviour lives in :mod:`repro.oran.apps`.
"""

from __future__ import annotations

from repro.oran.a1 import A1PolicyService, radio_policy_type
from repro.oran.e2 import E2Termination
from repro.oran.o1 import O1Termination


class NearRTRIC:
    """Near-real-time RIC: A1 provider, E2 consumer, xApp host.

    ``prefix`` namespaces the RIC's E2 and O1 topics so several near-RT
    RICs (one per cell) can share one bus.  An existing ``a1_service`` may be injected — the multi-cell
    runtime shares one policy service across every cell's RIC.
    """

    def __init__(self, bus, prefix: str = "",
                 a1_service: A1PolicyService | None = None) -> None:
        self.bus = bus
        self.prefix = prefix
        if a1_service is None:
            a1_service = A1PolicyService()
            a1_service.register_type(radio_policy_type())
        self.a1_service = a1_service
        self.e2 = E2Termination(bus, prefix=prefix)
        self.o1 = O1Termination(bus, prefix=prefix)
        self.xapps: list[object] = []

    def host_xapp(self, xapp: object) -> None:
        """Register a running xApp (already wired to the terminations)."""
        self.xapps.append(xapp)


class NonRTRIC:
    """Non-real-time RIC: rApp host, A1 consumer, O1 consumer."""

    def __init__(self, near_rt: NearRTRIC) -> None:
        self.near_rt = near_rt
        self.o1 = near_rt.o1
        self.rapps: list[object] = []

    def host_rapp(self, rapp: object) -> None:
        """Register a running rApp."""
        self.rapps.append(rapp)

    @property
    def a1_service(self) -> A1PolicyService:
        """The A1-P service exposed by the near-RT RIC."""
        return self.near_rt.a1_service
