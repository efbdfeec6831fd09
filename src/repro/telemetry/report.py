"""Render a recorded trace as an ASCII span-tree and metrics summary.

``repro report`` renders a file's span and metrics records with
:func:`render_report`.  Spans with the same position in the call tree
(the same root-to-leaf name path) are aggregated into one row — a 200-period run emits hundreds of
``edgebol.select`` spans but reports them as one line with count and
duration statistics, keeping the report size independent of run
length.
"""

from __future__ import annotations

import math

from repro.utils.ascii import render_table


def _span_paths(span_records: list[dict]) -> dict[tuple[str, ...], dict]:
    """Aggregate span records by their root-to-span name path.

    Returns a mapping of name-path tuples to ``{count, total_s, min_s,
    max_s}``.  Records whose parent id is missing from the trace (e.g.
    a truncated file) are treated as roots, as are records without an
    ``id``; a record without a ``name`` is shown as ``?``.  A parent
    cycle raises :class:`RecursionError`.
    """
    by_id = {r["id"]: r for r in span_records if "id" in r}
    path_cache: dict[int, tuple[str, ...]] = {}

    def path_of(record: dict) -> tuple[str, ...]:
        """Root-to-span name path of one record (memoised)."""
        span_id = record.get("id")
        cached = path_cache.get(span_id)
        if cached is not None:
            return cached
        parent_id = record.get("parent")
        parent = by_id.get(parent_id) if parent_id is not None else None
        path = ((path_of(parent) if parent is not None else ())
                + (str(record.get("name", "?")),))
        if span_id is not None:
            path_cache[span_id] = path
        return path

    aggregated: dict[tuple[str, ...], dict] = {}
    for record in span_records:
        duration = record.get("duration_s") or 0.0
        entry = aggregated.setdefault(
            path_of(record),
            {"count": 0, "total_s": 0.0, "min_s": math.inf, "max_s": -math.inf},
        )
        entry["count"] += 1
        entry["total_s"] += duration
        entry["min_s"] = min(entry["min_s"], duration)
        entry["max_s"] = max(entry["max_s"], duration)
    return aggregated


def render_span_tree(span_records: list[dict]) -> str:
    """One indented table row per distinct span path, tree-ordered."""
    if not span_records:
        return "span tree: (no spans recorded)"
    aggregated = _span_paths(span_records)

    # Depth-first order: children listed under their parent, heaviest
    # subtree first.
    ordered: list[tuple[tuple[str, ...], dict]] = []

    def visit(prefix: tuple[str, ...]) -> None:
        """Append ``prefix``'s children (heaviest first), recursing."""
        children = sorted(
            (
                (path, entry) for path, entry in aggregated.items()
                if path[:-1] == prefix
            ),
            key=lambda item: -item[1]["total_s"],
        )
        for path, entry in children:
            ordered.append((path, entry))
            visit(path)

    visit(())
    rows = []
    for path, entry in ordered:
        mean_ms = entry["total_s"] / entry["count"] * 1e3
        rows.append([
            "  " * (len(path) - 1) + path[-1],
            entry["count"],
            entry["total_s"],
            mean_ms,
            entry["min_s"] * 1e3,
            entry["max_s"] * 1e3,
        ])
    return render_table(
        ["span", "count", "total s", "mean ms", "min ms", "max ms"], rows
    )


def render_metrics(metrics_record: dict | None) -> str:
    """Counter/gauge/histogram tables for one metrics snapshot."""
    if not metrics_record:
        return "metrics: (no snapshot recorded)"
    parts = []
    counters = metrics_record.get("counters") or {}
    if counters:
        parts.append(render_table(
            ["counter", "value"], [[k, v] for k, v in counters.items()]
        ))
    gauges = metrics_record.get("gauges") or {}
    if gauges:
        parts.append(render_table(
            ["gauge", "value"], [[k, v] for k, v in gauges.items()]
        ))
    histograms = metrics_record.get("histograms") or {}
    if histograms:
        rows = []
        for name, h in histograms.items():
            rows.append([
                name, h.get("count", 0), h.get("mean"), h.get("min"),
                h.get("max"),
            ])
        parts.append(render_table(
            ["histogram", "count", "mean", "min", "max"],
            [[c if c is not None else float("nan") for c in row] for row in rows],
        ))
    if not parts:
        return "metrics: (empty snapshot)"
    return "\n\n".join(parts)


def render_report(span_records: list[dict],
                  metrics_records: list[dict] | None = None,
                  title: str = "telemetry report") -> str:
    """Full text report: header, span tree, latest metrics snapshot."""
    latest = metrics_records[-1] if metrics_records else None
    n_traces = len({r.get("trace") for r in span_records}) if span_records else 0
    header = (
        f"{title}: {len(span_records)} spans in {n_traces} traces"
    )
    return "\n\n".join([
        header,
        render_span_tree(span_records),
        render_metrics(latest),
    ])
