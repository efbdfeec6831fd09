"""The fleet metrics store: idempotent ingestion, ring buffers, queries.

A :class:`MetricStore` is an ordinary sink of the one record stream
(:mod:`repro.telemetry.runtime`): attach it with
:func:`repro.telemetry.runtime.attach` and it receives every record a
run emits — plain dicts with a ``"type"`` key (``kpi``, ``decision``,
``alert``, ``span``, ``metrics``) plus the supervision events of
:mod:`repro.oran.supervisor` (records with an ``event`` field) — and
organises the numeric payload into per-``(cell, series)`` ring buffers
keyed by virtual-time period.  ``repro report`` feeds a fresh store the
records of a dumped or recorded JSONL file.

Ingestion is **idempotent**: every record maps to a dedupe key
(``(kpi, cell, t)``, ``(alert, rule, cell, t)``, span ids, ...), and a
record whose key was already seen is counted as a duplicate and
otherwise ignored, so re-ingesting a whole dumped file is a no-op.
Crash-recovery replays do not reach the store at all: the supervisor
replays under :func:`repro.telemetry.runtime.suppress`.

Two resolutions are kept per series: the raw ``(t, value)`` ring
(bounded by ``raw_capacity``) and per-``rollup_every``-period rollup
buckets (mean/min/max/p50/p95/count, bounded by ``max_buckets``).  The
query API covers range queries, cross-cell aggregation and top-k cells
by any series.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path

from repro.telemetry.export import _jsonable

__all__ = ["MetricStore"]

#: Series extracted from one ``type: "kpi"`` record (field -> series).
_KPI_SERIES = (
    "cost", "delay_s", "map_score", "server_power_w", "bs_power_w",
    "delay_violation", "map_violation", "baseline_power_w",
)

#: Series extracted from one ``type: "decision"`` record.  KPI records
#: are authoritative for outcome series; decisions contribute only the
#: learner-side series so the two never double-count one period.
_DECISION_SERIES = {
    "safe_fraction": lambda r: (r.get("safe_set") or {}).get("fraction"),
    "delay_slack_s": lambda r: (r.get("margins") or {}).get("delay_slack_s"),
    "map_slack": lambda r: (r.get("margins") or {}).get("map_slack"),
}


def _percentile(ordered: list, fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted value list."""
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def _summary(values: list) -> dict:
    """count/mean/min/max/p50/p95 over ``values`` (empty-safe)."""
    if not values:
        return {"count": 0, "mean": None, "min": None, "max": None,
                "p50": None, "p95": None}
    ordered = sorted(values)
    return {
        "count": len(values),
        "mean": float(sum(values) / len(values)),
        "min": float(ordered[0]),
        "max": float(ordered[-1]),
        "p50": _percentile(ordered, 0.50),
        "p95": _percentile(ordered, 0.95),
    }


class SeriesBuffer:
    """One ``(cell, series)`` pair: raw ring + rollup buckets."""

    __slots__ = ("raw", "rollup_every", "_buckets", "max_buckets")

    def __init__(self, raw_capacity: int = 512, rollup_every: int = 10,
                 max_buckets: int = 4096) -> None:
        """Create an empty buffer with the given bounds."""
        self.raw: deque = deque(maxlen=raw_capacity)
        self.rollup_every = int(rollup_every)
        self.max_buckets = int(max_buckets)
        self._buckets: dict[int, list] = {}

    def add(self, t: int, value: float) -> None:
        """Append one ``(t, value)`` point (raw ring + its rollup bucket)."""
        self.raw.append((t, value))
        index = t // self.rollup_every
        bucket = self._buckets.get(index)
        if bucket is None:
            if len(self._buckets) >= self.max_buckets:
                self._buckets.pop(min(self._buckets))
            bucket = self._buckets[index] = []
        bucket.append(value)

    def values(self, t_min: "int | None" = None,
               t_max: "int | None" = None) -> list:
        """Raw ``(t, value)`` points with ``t_min <= t <= t_max``."""
        return [
            (t, v) for t, v in self.raw
            if (t_min is None or t >= t_min) and (t_max is None or t <= t_max)
        ]

    def rollups(self) -> list:
        """One summary dict per rollup bucket, oldest first."""
        out = []
        for index in sorted(self._buckets):
            entry = _summary(self._buckets[index])
            entry["t_start"] = index * self.rollup_every
            entry["t_end"] = (index + 1) * self.rollup_every - 1
            out.append(entry)
        return out


class MetricStore:
    """Idempotent fleet-wide time-series store over observability records.

    Parameters
    ----------
    raw_capacity:
        Raw points retained per ``(cell, series)`` ring.
    rollup_every:
        Periods per rollup bucket (the coarse resolution).
    max_spans:
        Span records retained for critical-path analysis.
    max_records:
        Raw records retained for :meth:`dump_jsonl` re-export.
    """

    #: Label used for records that carry no cell/agent attribution.
    FLEET_CELL = "_fleet"

    def __init__(self, raw_capacity: int = 512, rollup_every: int = 10,
                 max_spans: int = 20000, max_records: int = 200000) -> None:
        """Create an empty store with the given retention bounds."""
        self.raw_capacity = int(raw_capacity)
        self.rollup_every = int(rollup_every)
        self._series: dict[tuple, SeriesBuffer] = {}
        self._seen: set = set()
        self._spans: deque = deque(maxlen=int(max_spans))
        self._alerts: list[dict] = []
        self._events: list[dict] = []
        self._records: deque = deque(maxlen=int(max_records))
        self.last_metrics: "dict | None" = None
        self.ingested = 0
        self.duplicates = 0
        self.by_type: dict[str, int] = {}

    # -- sink surface ----------------------------------------------------

    def emit(self, record: dict) -> None:
        """Sink-compatible alias of :meth:`ingest` (return value dropped)."""
        self.ingest(record)

    def close(self) -> None:
        """No-op (memory needs no flushing)."""

    # -- ingestion -------------------------------------------------------

    def _cell_of(self, record: dict) -> str:
        """The fleet cell a record belongs to.

        Decision records and supervision events name their fleet cell
        in ``agent``; their ``cell`` field, when present, is the sweep
        cell's label (:func:`repro.telemetry.runtime.scope`), shared by
        every fleet cell of the run.  KPI and alert records name it in
        ``cell``.
        """
        cell = record.get("agent") or record.get("cell")
        return str(cell) if cell else self.FLEET_CELL

    def _key_of(self, record: dict) -> tuple:
        """The record's dedupe key (identity for replay idempotency)."""
        kind = record.get("type")
        t = record.get("t")
        if "event" in record:
            return ("event", str(record.get("event")), self._cell_of(record), t)
        if kind == "kpi":
            return ("kpi", self._cell_of(record), t)
        if kind == "decision":
            return ("decision", self._cell_of(record), t)
        if kind == "alert":
            return ("alert", str(record.get("rule")), self._cell_of(record), t)
        if kind == "span":
            return ("span", record.get("id"))
        # Metrics snapshots (and unknown types) key on content: the
        # only way to identify "the same snapshot seen twice".
        return (str(kind), json.dumps(_jsonable(record), sort_keys=True))

    def _add_point(self, cell: str, series: str, t, value) -> None:
        """File one numeric point, creating the series buffer on demand."""
        if isinstance(value, bool):
            value = float(value)
        elif not isinstance(value, (int, float)):
            return
        if isinstance(value, float) and not math.isfinite(value):
            return
        key = (cell, series)
        buffer = self._series.get(key)
        if buffer is None:
            buffer = self._series[key] = SeriesBuffer(
                raw_capacity=self.raw_capacity,
                rollup_every=self.rollup_every,
            )
        buffer.add(int(t) if isinstance(t, (int, float)) else 0, float(value))

    def ingest(self, record) -> bool:
        """Ingest one record; returns False for non-dicts and duplicates."""
        if not isinstance(record, dict):
            return False
        key = self._key_of(record)
        if key in self._seen:
            self.duplicates += 1
            return False
        self._seen.add(key)
        self.ingested += 1
        kind = "event" if "event" in record else str(record.get("type"))
        self.by_type[kind] = self.by_type.get(kind, 0) + 1
        self._records.append(record)

        cell = self._cell_of(record)
        t = record.get("t", 0)
        if kind == "kpi":
            for field in _KPI_SERIES:
                self._add_point(cell, field, t, record.get(field))
        elif kind == "decision":
            for series, getter in _DECISION_SERIES.items():
                self._add_point(cell, series, t, getter(record))
            self._add_point(cell, "regret",
                            t, (record.get("regret") or {}).get("cumulative"))
        elif kind == "alert":
            self._alerts.append(record)
            self._add_point(cell, "alerts", t, 1)
        elif kind == "event":
            self._events.append(record)
        elif kind == "span":
            self._spans.append(record)
        elif kind == "metrics":
            self.last_metrics = record
        return True

    def dump_jsonl(self, path: "str | Path") -> Path:
        """Write every retained record to ``path`` (one JSON per line)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for record in self._records:
                json.dump(_jsonable(record), handle, separators=(",", ":"))
                handle.write("\n")
        return path

    # -- queries ---------------------------------------------------------

    def cells(self) -> list:
        """Every cell with at least one series point, sorted."""
        return sorted({cell for cell, _ in self._series})

    def series_names(self, cell: "str | None" = None) -> list:
        """Series names (for one cell, or across the fleet), sorted."""
        return sorted({
            name for c, name in self._series if cell is None or c == cell
        })

    def series(self, cell: str, name: str, t_min: "int | None" = None,
               t_max: "int | None" = None) -> list:
        """Raw ``(t, value)`` points of one cell's series (range query)."""
        buffer = self._series.get((cell, name))
        return buffer.values(t_min, t_max) if buffer is not None else []

    def rollups(self, cell: str, name: str) -> list:
        """Per-bucket rollup summaries of one cell's series."""
        buffer = self._series.get((cell, name))
        return buffer.rollups() if buffer is not None else []

    def aggregate(self, name: str, t_min: "int | None" = None,
                  t_max: "int | None" = None) -> dict:
        """Cross-cell summary of ``name`` over every cell's raw points."""
        values: list = []
        for (cell, series), buffer in self._series.items():
            if series == name:
                values.extend(v for _, v in buffer.values(t_min, t_max))
        return _summary(values)

    def top_k(self, name: str, k: int = 5, agg: str = "mean",
              reverse: bool = True) -> list:
        """Top-``k`` ``(cell, value)`` by a per-cell aggregate of ``name``.

        ``agg`` is one of ``mean``/``min``/``max``/``p50``/``p95``/
        ``count``/``sum``; ties break on the cell id so the ranking is
        deterministic.
        """
        ranked = []
        for (cell, series), buffer in self._series.items():
            if series != name:
                continue
            values = [v for _, v in buffer.raw]
            if not values:
                continue
            if agg == "sum":
                value = float(sum(values))
            else:
                stats = _summary(values)
                if agg not in stats:
                    raise ValueError(f"unknown aggregate {agg!r}")
                value = stats[agg]
            ranked.append((cell, value))
        ranked.sort(key=lambda item: (-item[1] if reverse else item[1],
                                      item[0]))
        return ranked[:k]

    def alerts(self) -> list:
        """Every ingested alert record, in ingestion order."""
        return list(self._alerts)

    def events(self) -> list:
        """Every ingested supervision event, in ingestion order."""
        return list(self._events)

    def spans(self) -> list:
        """Retained span records (bounded), in ingestion order."""
        return list(self._spans)

    def summary(self) -> dict:
        """Ingestion accounting: totals, duplicates, per-type counts."""
        return {
            "ingested": self.ingested,
            "duplicates": self.duplicates,
            "by_type": dict(sorted(self.by_type.items())),
            "cells": len(self.cells()),
            "series": len(self._series),
        }

    def metrics_snapshot(self) -> dict:
        """The store's own accounting in metrics-snapshot shape.

        Render with
        :func:`repro.telemetry.export.prometheus_exposition` to expose
        the store alongside the runtime's registry.
        """
        counters = {
            "fleetobs.ingested": self.ingested,
            "fleetobs.duplicates": self.duplicates,
        }
        for kind, count in sorted(self.by_type.items()):
            counters[f"fleetobs.records.{kind}"] = count
        return {
            "counters": counters,
            "gauges": {
                "fleetobs.cells": float(len(self.cells())),
                "fleetobs.series": float(len(self._series)),
            },
            "histograms": {},
        }
