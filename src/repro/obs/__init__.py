"""Decision-trace observability for EdgeBOL runs.

The safe-BO loop makes one irreversible choice per orchestration period;
this package records *why*.  A :class:`~repro.obs.decision.DecisionTracer`
attached to an agent emits one ``type: "decision"`` record per round —
safe-set size, constraint margins, price of safety, running GP
calibration, context drift, quarantine/degraded state and regret —
into the one record stream of :mod:`repro.telemetry.runtime`, reusing
the posteriors the agent already computed (no extra ``predict`` calls,
no RNG draws: traced runs are bit-identical to untraced ones).
:func:`~repro.obs.decision.make_tracer` builds one whenever a sink is
attached.

``repro report trace.jsonl`` renders the trace as an ASCII dashboard
and derives machine-readable anomaly flags (:mod:`repro.obs.diagnose`).
See ``docs/OBSERVABILITY.md`` ("Decision traces").
"""

from repro.obs.decision import DecisionTracer, make_tracer
from repro.obs.diagnose import (
    detect_anomalies,
    render_dashboard,
    split_events,
)
from repro.obs.drift import DriftMonitor

__all__ = [
    "DecisionTracer",
    "DriftMonitor",
    "detect_anomalies",
    "make_tracer",
    "render_dashboard",
    "split_events",
]
