"""O1 interface: performance reporting toward the SMO / non-RT RIC."""

from __future__ import annotations

from collections.abc import Callable

from repro.oran.bus import post
from repro.oran.messages import O1Report


class O1Termination:
    """Both ends of the O1 reporting path.

    The near-RT RIC (or any managed element) forwards KPI reports
    upward; the non-RT RIC registers handlers that consume them.
    ``prefix`` namespaces the topic for multi-cell layouts
    (``cell003.o1.report``).
    """

    def __init__(self, bus, prefix: str = "") -> None:
        """Attach to ``bus`` under the ``prefix`` topic namespace."""
        self.bus = bus
        self.prefix = prefix
        self._handlers: list[Callable[[O1Report], None]] = []
        self._period = 0
        bus.subscribe(f"{prefix}o1.report", self._on_report)

    def forward(self, source: str, kpis: dict[str, float]):
        """Publish one performance report upward."""
        self._period += 1
        return post(
            self.bus,
            f"{self.prefix}o1.report",
            O1Report(source=source, kpis=dict(kpis), period=self._period),
        )

    def register_handler(self, handler: Callable[[O1Report], None]) -> None:
        """Add a consumer callback invoked per report."""
        self._handlers.append(handler)

    def _on_report(self, message: object) -> None:
        if not isinstance(message, O1Report):
            raise TypeError(f"unexpected message on o1.report: {message!r}")
        for handler in list(self._handlers):
            handler(message)
