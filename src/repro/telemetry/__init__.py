"""Dependency-free observability for the EdgeBOL reproduction.

Three layers (see ``docs/OBSERVABILITY.md`` for the full guide):

* **Spans** — nested monotonic wall-clock timing of named operations
  (:mod:`repro.telemetry.spans`), capturing the per-period call tree
  ``edgebol.select -> engine.posterior`` / ``env.step ->
  queueing.solve``.
* **Metrics** — process-local counters, gauges and fixed-bucket
  histograms (:mod:`repro.telemetry.metrics`).
* **Export** — a structured JSONL sink plus an in-memory sink for
  tests (:mod:`repro.telemetry.export`), read back by its
  ``read_records`` and rendered by ``repro report``
  (:mod:`repro.telemetry.report` draws the span tree).

The sinks hang off the process's one record stream
(:mod:`repro.telemetry.runtime`), which also carries the decision,
KPI, alert and supervision-event records of :mod:`repro.obs` and the
fleet runtime whenever a sink is attached.

The whole layer is off by default and costs one flag check per
instrumentation site while disabled::

    from repro.telemetry import runtime as telemetry

    with telemetry.record("results/trace.jsonl"):
        ...   # any instrumented code: experiments, agents, the env

Users may equivalently ``from repro import telemetry`` and use the
same functions re-exported here.
"""

from repro.telemetry.export import InMemorySink, JsonlSink, read_records
from repro.telemetry.metrics import (
    DEFAULT_TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.runtime import (
    add_sink,
    current_span,
    disable,
    emit_metrics,
    enable,
    enabled,
    get_registry,
    inc,
    metrics_snapshot,
    observe,
    record,
    remove_sink,
    reset_metrics,
    set_gauge,
    span,
    trace,
)
from repro.telemetry.spans import NULL_SPAN, NullSpan, Span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS_S",
    "InMemorySink",
    "JsonlSink",
    "read_records",
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "add_sink",
    "current_span",
    "disable",
    "emit_metrics",
    "enable",
    "enabled",
    "get_registry",
    "inc",
    "metrics_snapshot",
    "observe",
    "record",
    "remove_sink",
    "reset_metrics",
    "set_gauge",
    "span",
    "trace",
]
