"""Telemetry sinks: structured JSONL export and an in-memory buffer.

Sinks receive *records* — plain dicts with a ``"type"`` key — from the
one stream of :mod:`repro.telemetry.runtime`: spans at completion
(``type: "span"``), metrics snapshots (``type: "metrics"``) and the
non-span record types (``decision``, ``kpi``, ``alert``).  A JSONL file
therefore interleaves span lines in completion order (children before
parents) with the other records in emission order.  :func:`read_records`
reads any such file back, and ``repro report`` passes each record type
to its renderer (:mod:`repro.telemetry.report` reconstructs the span
tree from the ``parent`` ids).
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def _jsonable(value):
    """Coerce ``value`` into something ``json.dumps`` accepts.

    Non-finite floats become strings (JSON has no Infinity/NaN), numpy
    scalars collapse to Python numbers via their ``item()``, and
    anything else unknown falls back to ``repr``.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):
            pass
    return repr(value)


class InMemorySink:
    """Buffer records in arrival order — the test/notebook/sweep sink."""

    def __init__(self) -> None:
        """Create an empty sink."""
        self._records: list[dict] = []

    def emit(self, record: dict) -> None:
        """Append one record."""
        self._records.append(record)

    def close(self) -> None:
        """No-op (memory needs no flushing)."""

    def records(self) -> list[dict]:
        """Every record, in arrival order."""
        return list(self._records)

    def of_type(self, kind: str) -> list[dict]:
        """The records of one ``type``, in arrival order."""
        return [r for r in self._records if r.get("type") == kind]

    @property
    def spans(self) -> list[dict]:
        """The ``span`` records, in arrival order."""
        return self.of_type("span")

    @property
    def metrics(self) -> list[dict]:
        """The ``metrics`` snapshot records, in arrival order."""
        return self.of_type("metrics")


class JsonlSink:
    """Append records to a JSONL file, one JSON object per line.

    Parent directories are created; the file handle opens lazily on the
    first record.  Writes are batched: the OS-level flush happens every
    ``flush_every`` records (and on :meth:`close`), which cuts the
    per-record cost of a traced run substantially
    (``BENCH_observability.json``, ``traced_jsonl`` vs
    ``traced_jsonl_buffered``).  A crashed run still leaves a readable
    prefix up to the last flushed batch; pass ``flush_every=1`` for the
    legacy flush-per-line behaviour when every record must survive a
    crash.
    """

    def __init__(self, path: "str | Path", flush_every: int = 64) -> None:
        """Bind the sink to ``path`` without opening it yet."""
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path)
        self.flush_every = int(flush_every)
        self._handle = None
        self._pending = 0
        self.n_records = 0

    def emit(self, record: dict) -> None:
        """Serialise one record as a JSON line (batched flush)."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w")
        json.dump(_jsonable(record), self._handle, separators=(",", ":"))
        self._handle.write("\n")
        self.n_records += 1
        self._pending += 1
        if self._pending >= self.flush_every:
            self._handle.flush()
            self._pending = 0

    def close(self) -> None:
        """Flush any buffered lines and close the handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._pending = 0


def _prom_name(name: str, prefix: str) -> str:
    """Sanitise a metric name into the Prometheus charset.

    Dots and any other non ``[a-zA-Z0-9_]`` characters collapse to
    underscores, and the result is prefixed (``bo.rounds`` →
    ``repro_bo_rounds``).
    """
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"{prefix}_{safe}" if prefix else safe


def _prom_escape(value: str) -> str:
    """Escape a label value per the exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels: "dict[str, str] | None") -> str:
    """Render a sorted ``{name="value",...}`` label block ('' if empty)."""
    if not labels:
        return ""
    parts = ",".join(
        f'{key}="{_prom_escape(str(labels[key]))}"' for key in sorted(labels)
    )
    return "{" + parts + "}"


def _prom_number(value) -> str:
    """Format a sample value (ints stay integral; non-finite allowed)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_exposition(snapshot: dict, prefix: str = "repro",
                          labels: "dict[str, str] | None" = None) -> str:
    """Render a metrics snapshot in the Prometheus text exposition format.

    ``snapshot`` is the dict shape produced by
    :func:`repro.telemetry.runtime.metrics_snapshot` (and mirrored by
    ``MetricStore.metrics_snapshot``): ``counters`` (name → int),
    ``gauges`` (name → float) and ``histograms`` (name → bucket
    summary).  Counters gain the conventional ``_total`` suffix,
    histograms expand into cumulative ``_bucket{le="..."}`` samples
    (closed by ``le="+Inf"``) plus ``_sum``/``_count``, and every family
    gets a ``# TYPE`` line.  Output ordering is deterministic (counters,
    then gauges, then histograms, each sorted by name) so expositions
    diff cleanly across runs; ``labels`` attach to every sample (e.g.
    ``{"run": "cells032"}``).
    """
    label_block = _prom_labels(labels)
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _prom_name(name, prefix) + "_total"
        value = snapshot["counters"][name]
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{label_block} {_prom_number(value)}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _prom_name(name, prefix)
        value = snapshot["gauges"][name]
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{label_block} {_prom_number(value)}")
    for name in sorted(snapshot.get("histograms", {})):
        hist = snapshot["histograms"][name]
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        bounds = list(hist.get("buckets", []))
        counts = list(hist.get("counts", []))
        for bound, count in zip(bounds, counts):
            cumulative += count
            bucket_labels = dict(labels or {})
            bucket_labels["le"] = _prom_number(bound)
            block = _prom_labels(bucket_labels)
            lines.append(f"{metric}_bucket{block} {cumulative}")
        inf_labels = dict(labels or {})
        inf_labels["le"] = "+Inf"
        block = _prom_labels(inf_labels)
        lines.append(f"{metric}_bucket{block} {hist.get('count', cumulative)}")
        lines.append(f"{metric}_sum{label_block} "
                     f"{_prom_number(hist.get('sum', 0.0))}")
        lines.append(f"{metric}_count{label_block} {hist.get('count', 0)}")
    return "\n".join(lines) + "\n" if lines else ""


def read_records(path: "str | Path") -> list[dict]:
    """Every record of a JSONL record file, in file order.

    The one rule: every non-blank line is a JSON object.  Anything else
    (a torn last line left by a crashed run, a JSON array, a bare
    number) raises ``ValueError`` naming ``path:line``, so a damaged
    file is reported where it is damaged instead of half-rendered.
    """
    records: list[dict] = []
    with Path(path).open("rb") as handle:  # bytes: bad UTF-8 is a bad line
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{lineno}: expected a JSON object, got "
                    f"{type(record).__name__}"
                )
            records.append(record)
    return records
