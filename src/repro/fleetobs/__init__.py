"""Fleet observability: metrics store, causal tracing and SLO/energy ledger.

The pipeline is in-process and dependency-free (stdlib only), built to
answer the operational questions the paper's headline claim raises:
*how much energy is this fleet saving right now, and which cells are
burning their violation budget?*

* :class:`~repro.fleetobs.store.MetricStore` — a sink of the telemetry
  record stream: idempotent ingestion of KPI samples, decision traces,
  alerts, supervision events and spans into per-``(cell, series)``
  ring buffers keyed by virtual-time period, with multi-resolution
  rollups and a query API.
* :mod:`repro.fleetobs.tracing` — causal trace propagation through the
  async O-RAN bus so one BO round stitches into a single
  cross-component span tree, plus the critical-path report.
* :mod:`repro.fleetobs.ledger` — per-cell and fleet-wide error-budget
  burn rates and cumulative energy saved vs the fixed-max-power
  baseline the paper compares against.
* :mod:`repro.fleetobs.status` — the fleet SLO/energy view of
  ``repro report`` over a recorded or dumped JSONL file.

Everything is keyed on virtual time and never touches an RNG, so a
``--set metrics=DIR`` run stays bit-identical to an uninstrumented run at the
same seed (asserted in ``tests/test_fleetobs.py``).  See
``docs/OBSERVABILITY.md``, "Fleet metrics & SLOs".
"""

from repro.fleetobs.ledger import FleetLedger, fixed_max_baseline_w
from repro.fleetobs.status import render_status, status_payload
from repro.fleetobs.store import MetricStore
from repro.fleetobs.tracing import RoundTracer, critical_path_report

__all__ = [
    "MetricStore",
    "FleetLedger",
    "fixed_max_baseline_w",
    "RoundTracer",
    "critical_path_report",
    "render_status",
    "status_payload",
]
