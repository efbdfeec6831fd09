"""Alerting for the control plane: rules, throttling and routing.

The fleet runtime evaluates a small rule set against every cell's
per-period sample (KPIs, constraint margins and anomaly signals such as
degraded-mode service) and routes the resulting :class:`Alert` records
to its bounded history, the telemetry record stream
(:func:`repro.telemetry.runtime.emit_record`, while a sink is attached)
and optionally a bus topic (typically configured with a
``coalesce``/``drop-oldest`` mailbox so a flapping cell cannot wedge
the plane).

Rules are *throttled* per ``(rule, cell)``: once raised, a rule stays
silent for ``min_gap`` periods on that cell (suppressions are counted,
not dropped silently), and ``sustain`` requires the condition to hold
for N consecutive periods before the first alert — a degraded-mode
*stretch* rather than a single degraded period.

Everything here is deterministic given the sample stream, so alert
counts are reproducible fleet outputs (they appear in the ``fleet``
experiment's rows).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.oran.bus import post
from repro.telemetry import runtime as telemetry

__all__ = ["Alert", "AlertRule", "AlertRouter", "default_rules"]


@dataclass(frozen=True)
class Alert:
    """One routed alert occurrence."""

    rule: str
    severity: str
    cell: str
    t: int
    message: str
    value: float | None = None

    def to_record(self) -> dict:
        """JSON-serialisable rendering (for sinks and history)."""
        return {
            "type": "alert",
            "rule": self.rule,
            "severity": self.severity,
            "cell": self.cell,
            "t": self.t,
            "message": self.message,
            "value": self.value,
        }


@dataclass(frozen=True)
class AlertRule:
    """One alert condition over per-period cell samples.

    Attributes
    ----------
    name:
        Stable rule identifier (becomes :attr:`Alert.rule`).
    predicate:
        ``sample -> bool`` — whether the condition holds this period.
    message:
        ``sample -> str`` — human-readable alert text.
    severity:
        Routing hint (``"warning"`` / ``"critical"``).
    sustain:
        Consecutive true periods required before raising (stretches,
        not blips).
    min_gap:
        Minimum periods between raises per cell (throttling); further
        occurrences inside the gap are counted as suppressed.
    value:
        Optional ``sample -> float`` extracting the quantity that
        triggered (for dashboards).
    """

    name: str
    predicate: Callable[[dict], bool]
    message: Callable[[dict], str]
    severity: str = "warning"
    sustain: int = 1
    min_gap: int = 10
    value: Callable[[dict], float] | None = None

    def __post_init__(self) -> None:
        """Validate the throttle parameters."""
        if self.sustain < 1:
            raise ValueError(f"sustain must be >= 1, got {self.sustain}")
        if self.min_gap < 1:
            raise ValueError(f"min_gap must be >= 1, got {self.min_gap}")


@dataclass
class _RuleState:
    """Per-(rule, cell) throttle state."""

    streak: int = 0
    last_raised: int | None = None
    raised: int = 0
    suppressed: int = 0


class AlertRouter:
    """Evaluates rules against samples and routes surviving alerts.

    Each raised alert's record goes into the telemetry stream; ``bus``
    + ``topic`` additionally publishes it on the bus
    (EdgeWatch-style: the alert stream is itself a topic other xApps
    can subscribe to).  All raised alerts are retained in
    :attr:`history` (bounded).
    """

    def __init__(self, rules, bus=None, topic: str = "smo.alerts",
                 history_limit: int = 1000) -> None:
        """Create a router over ``rules`` with optional bus routing."""
        if history_limit < 1:
            raise ValueError(f"history_limit must be >= 1, got {history_limit}")
        self.rules = tuple(rules)
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names in {names}")
        self.bus = bus
        self.topic = topic
        self.history_limit = int(history_limit)
        self.history: list[Alert] = []
        self._state: dict[tuple[str, str], _RuleState] = {}

    def process(self, sample: dict) -> list[Alert]:
        """Evaluate every rule against ``sample``; route what survives.

        ``sample`` must carry ``cell`` (str) and ``t`` (int) plus
        whatever fields the rules read.  Returns the alerts raised
        (after sustain and throttle filtering) this call.
        """
        cell = str(sample.get("cell", "?"))
        t = int(sample.get("t", 0))
        raised: list[Alert] = []
        for rule in self.rules:
            state = self._state.setdefault((rule.name, cell), _RuleState())
            if not rule.predicate(sample):
                state.streak = 0
                continue
            state.streak += 1
            if state.streak < rule.sustain:
                continue
            if (state.last_raised is not None
                    and t - state.last_raised < rule.min_gap):
                state.suppressed += 1
                telemetry.inc("oran.alerts.suppressed")
                continue
            state.last_raised = t
            state.raised += 1
            alert = Alert(
                rule=rule.name,
                severity=rule.severity,
                cell=cell,
                t=t,
                message=rule.message(sample),
                value=(None if rule.value is None
                       else float(rule.value(sample))),
            )
            raised.append(alert)
            self._route(alert)
        return raised

    def _route(self, alert: Alert) -> None:
        """Deliver one alert to history, the record stream and the bus."""
        telemetry.inc("oran.alerts.raised")
        self.history.append(alert)
        if len(self.history) > self.history_limit:
            del self.history[: len(self.history) - self.history_limit]
        if telemetry.has_sinks():
            telemetry.emit_record(alert.to_record())
        if self.bus is not None:
            post(self.bus, self.topic, alert.to_record())

    def counts(self) -> dict:
        """Aggregate ``{"raised": n, "suppressed": m}`` across rules."""
        return {
            "raised": sum(s.raised for s in self._state.values()),
            "suppressed": sum(s.suppressed for s in self._state.values()),
        }

    def counts_by_rule(self) -> dict[str, dict]:
        """Per-rule raised/suppressed totals (summed over cells)."""
        totals: dict[str, dict] = {
            rule.name: {"raised": 0, "suppressed": 0} for rule in self.rules
        }
        for (rule_name, _cell), state in self._state.items():
            totals[rule_name]["raised"] += state.raised
            totals[rule_name]["suppressed"] += state.suppressed
        return totals


def default_rules(min_gap: int = 10, degraded_sustain: int = 5,
                  margin_sustain: int = 3) -> tuple[AlertRule, ...]:
    """The control plane's standard rule set.

    * ``delay_violation`` — the period's delay exceeded ``d_max_s``;
    * ``quality_violation`` — mAP fell below ``rho_min``;
    * ``negative_margin`` — the delay margin stayed negative for
      ``margin_sustain`` consecutive periods (persistent breach, the
      PR-5 ``persistent_negative_margin`` anomaly as an alert);
    * ``degraded_stretch`` — the agent served ``degraded_sustain``
      consecutive periods from its degraded/fallback mode.
    """
    return (
        AlertRule(
            name="delay_violation",
            predicate=lambda s: s.get("delay_s", 0.0) > s.get("d_max_s", float("inf")),
            message=lambda s: (
                f"delay {s.get('delay_s', 0.0):.3f}s exceeds "
                f"d_max {s.get('d_max_s', 0.0):.3f}s"
            ),
            severity="warning",
            min_gap=min_gap,
            value=lambda s: s.get("delay_s", 0.0),
        ),
        AlertRule(
            name="quality_violation",
            predicate=lambda s: s.get("map_score", 1.0) < s.get("rho_min", 0.0),
            message=lambda s: (
                f"mAP {s.get('map_score', 0.0):.3f} below "
                f"rho_min {s.get('rho_min', 0.0):.3f}"
            ),
            severity="warning",
            min_gap=min_gap,
            value=lambda s: s.get("map_score", 0.0),
        ),
        AlertRule(
            name="negative_margin",
            predicate=lambda s: (
                s.get("d_max_s", float("inf")) - s.get("delay_s", 0.0) < 0.0
            ),
            message=lambda s: (
                f"delay margin negative for {margin_sustain}+ periods "
                f"(margin {s.get('d_max_s', 0.0) - s.get('delay_s', 0.0):.3f}s)"
            ),
            severity="critical",
            sustain=margin_sustain,
            min_gap=min_gap,
            value=lambda s: s.get("d_max_s", 0.0) - s.get("delay_s", 0.0),
        ),
        AlertRule(
            name="degraded_stretch",
            predicate=lambda s: bool(s.get("degraded", False)),
            message=lambda s: (
                f"agent degraded mode sustained {degraded_sustain}+ periods"
            ),
            severity="critical",
            sustain=degraded_sustain,
            min_gap=min_gap,
        ),
    )
