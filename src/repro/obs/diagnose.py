"""Offline analysis of decision traces: anomaly flags and a dashboard.

``repro report trace.jsonl`` passes the ``type: "decision"`` lines a
traced run emitted (:mod:`repro.obs.decision`) to
:func:`render_dashboard`, an ASCII dashboard — safe-set growth, running
calibration coverage against its nominal level, constraint-margin
histograms, a per-period event timeline and the regret curve — plus
machine-readable anomaly flags:

* ``coverage_below_nominal`` — a head's running z-score coverage ended
  materially below the calibrated level (the "GP certifies unsafe
  controls" alarm);
* ``persistent_negative_margin`` — the chosen control carried negative
  certified slack on a constraint for several consecutive periods;
* ``drift_episode`` — the context-drift monitor flagged a run of
  out-of-distribution contexts;
* ``degraded_stretch`` — consecutive periods served by the S0 fallback;
* ``recovery_storm`` — one cell was warm-restarted by the fleet
  supervisor more than ``storm_threshold`` times within
  ``storm_window`` periods (a crash-looping cell that the quarantine
  escalation has not yet caught).

Sweep and fleet traces interleave the records of several cells: a
sweep stamps each record with its sweep ``cell``, a fleet with the
fleet cell's ``agent``.  Every detector but the storm one runs on each
(``cell``, ``agent``) series alone, each of its flags names that
``cell``/``agent``; the dashboard summarises each series in its own
row, and its charts and timeline draw one line per series.

Supervised fleet runs interleave *supervision events* (records with an
``event`` field: ``cell_crash``, ``cell_stall``, ``recovery``,
``quarantine``, ``breaker_open``/``breaker_close``,
``snapshot_corrupt`` — :mod:`repro.oran.supervisor`) with the
per-period decision records; the analysis partitions them, overlays
``R`` (restart/recovery) and ``C`` (circuit breaker) markers on the
timeline and summarises the event counts in the dashboard.

Flags are plain dicts (``kind`` plus location fields) so CI can gate
on them; the dashboard embeds the same list in human form.
"""

from __future__ import annotations

import json

import numpy as np

from repro.utils.ascii import render_chart, render_histogram, render_table

#: Tolerated gap between running and nominal coverage before flagging.
DEFAULT_COVERAGE_SLACK = 0.10
#: Calibration sample size below which coverage is not judged.
DEFAULT_MIN_CALIBRATION_N = 20
#: Consecutive negative-margin periods before flagging.
DEFAULT_MARGIN_RUN = 5
#: Sliding window (periods) for the recovery-storm detector.
DEFAULT_STORM_WINDOW = 20
#: Restarts within the window above which a storm is flagged.
DEFAULT_STORM_THRESHOLD = 3


def split_events(records: list[dict]) -> tuple[list[dict], list[dict]]:
    """Partition a trace into ``(periods, events)``.

    Supervision events (:mod:`repro.oran.supervisor`) carry an
    ``event`` field; everything else is a per-period decision record.
    """
    periods = [r for r in records if "event" not in r]
    events = [r for r in records if "event" in r]
    return periods, events


def _by_series(records: list[dict]) -> list[tuple[dict, list[dict]]]:
    """Decision records grouped by (``cell``, ``agent``), in first-seen order.

    Returns ``(location, series)`` pairs; ``location`` holds the
    ``cell``/``agent`` fields the series' records carry (none for a
    single-run trace).
    """
    series: dict[tuple, list[dict]] = {}
    for record in records:
        key = (record.get("cell"), record.get("agent"))
        series.setdefault(key, []).append(record)
    return [
        ({name: value for name, value in zip(("cell", "agent"), key)
          if value is not None}, group)
        for key, group in series.items()
    ]


def _runs(flags: "list[bool]") -> list[tuple[int, int]]:
    """Half-open ``(start, end)`` index ranges of consecutive True."""
    runs: list[tuple[int, int]] = []
    start = None
    for i, flag in enumerate(flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(flags)))
    return runs


def _margin(record: dict, key: str) -> "float | None":
    margins = record.get("margins") or {}
    value = margins.get(key)
    return float(value) if isinstance(value, (int, float)) else None


def _recovery_storms(events: list[dict], storm_window: int,
                     storm_threshold: int) -> list[dict]:
    """``recovery_storm`` flags: per cell, densest restart window."""
    by_agent: dict[str, list[int]] = {}
    for event in events:
        if event.get("event") == "recovery":
            agent = str(event.get("agent", "?"))
            by_agent.setdefault(agent, []).append(int(event.get("t", 0)))
    flags = []
    for agent, ts in sorted(by_agent.items()):
        ts.sort()
        best = None
        for i in range(len(ts)):
            j = i
            while j + 1 < len(ts) and ts[j + 1] - ts[i] < storm_window:
                j += 1
            count = j - i + 1
            if count > storm_threshold and (best is None or count > best[0]):
                best = (count, ts[i], ts[j])
        if best is not None:
            flags.append({
                "kind": "recovery_storm",
                "agent": agent,
                "restarts": best[0],
                "window": int(storm_window),
                "start_t": best[1],
                "end_t": best[2],
            })
    return flags


def detect_anomalies(
    records: list[dict],
    coverage_slack: float = DEFAULT_COVERAGE_SLACK,
    min_calibration_n: int = DEFAULT_MIN_CALIBRATION_N,
    margin_run: int = DEFAULT_MARGIN_RUN,
    storm_window: int = DEFAULT_STORM_WINDOW,
    storm_threshold: int = DEFAULT_STORM_THRESHOLD,
) -> list[dict]:
    """Machine-readable anomaly flags over one trace (see module doc).

    Every flag carries the run's ``numerics_mode`` (when the trace
    recorded one) so sparse-approximation artefacts are attributable:
    a flag appearing only under ``"sparse"`` and not under ``"dense"``
    for the same seed points at the observation budget, not the
    learner.
    """
    records, events = split_events(records)
    flags = _recovery_storms(events, storm_window, storm_threshold)
    for location, series in _by_series(records):
        flags.extend(_series_anomalies(location, series, coverage_slack,
                                       min_calibration_n, margin_run))
    return flags


def _series_anomalies(location: dict, records: list[dict],
                      coverage_slack: float, min_calibration_n: int,
                      margin_run: int) -> list[dict]:
    """The calibration and run-length flags of one cell's series."""
    flags: list[dict] = []
    final = records[-1]
    numerics_mode = final.get("numerics_mode")

    def _flag(payload: dict) -> dict:
        payload.update(location)
        if numerics_mode is not None:
            payload["numerics_mode"] = numerics_mode
        return payload

    for head, snap in sorted((final.get("calibration") or {}).items()):
        coverage, expected = snap.get("coverage"), snap.get("expected")
        if (
            isinstance(coverage, (int, float))
            and isinstance(expected, (int, float))
            and snap.get("n", 0) >= min_calibration_n
            and coverage < expected - coverage_slack
        ):
            flags.append(_flag({
                "kind": "coverage_below_nominal",
                "head": head,
                "coverage": float(coverage),
                "expected": float(expected),
                "n": int(snap["n"]),
            }))

    for key, constraint in (("delay_slack_s", "delay"), ("map_slack", "map")):
        negative = [
            (m := _margin(record, key)) is not None and m < 0.0
            for record in records
        ]
        for start, end in _runs(negative):
            if end - start >= margin_run:
                flags.append(_flag({
                    "kind": "persistent_negative_margin",
                    "constraint": constraint,
                    "start_t": int(records[start].get("t", start)),
                    "end_t": int(records[end - 1].get("t", end - 1)),
                    "length": end - start,
                }))

    drifting = [
        bool((record.get("drift") or {}).get("flag")) for record in records
    ]
    for start, end in _runs(drifting):
        scores = [
            s for record in records[start:end]
            if isinstance(s := (record.get("drift") or {}).get("score"),
                          (int, float))
        ]
        flags.append(_flag({
            "kind": "drift_episode",
            "start_t": int(records[start].get("t", start)),
            "end_t": int(records[end - 1].get("t", end - 1)),
            "length": end - start,
            "peak_score": float(max(scores)) if scores else None,
        }))

    degraded = [bool(record.get("degraded")) for record in records]
    for start, end in _runs(degraded):
        flags.append(_flag({
            "kind": "degraded_stretch",
            "start_t": int(records[start].get("t", start)),
            "end_t": int(records[end - 1].get("t", end - 1)),
            "length": end - start,
        }))
    return flags


def _timeline(records: list[dict], width: int = 72,
              events: "list[dict] | None" = None) -> str:
    """One character per period: the worst event that round.

    ``R`` supervisor restart/recovery, ``C`` circuit breaker
    opened/closed, ``D`` degraded, ``Q`` quarantined, ``V`` constraint
    violation, ``!`` drift flag, ``.`` clean — one line per (``cell``,
    ``agent``) series, under a header naming it when the records carry
    either field, wrapped at ``width`` columns with period offsets on
    the left.  Supervision markers are matched to period records by
    ``(agent, t)``.
    """
    recovered = set()
    breaker = set()
    for event in events or ():
        key = (event.get("agent"), event.get("t"))
        if event.get("event") in ("recovery", "cell_crash", "cell_stall"):
            recovered.add(key)
        elif event.get("event") in ("breaker_open", "breaker_close"):
            breaker.add(key)
    lines = []
    for location, series in _by_series(records):
        if location:
            lines.append(" ".join(f"{name}={value}"
                                  for name, value in location.items()))
        chars = [_period_char(record, recovered, breaker)
                 for record in series]
        label_w = len(str(len(chars)))
        for start in range(0, len(chars), width):
            lines.append(
                f"t={str(start).rjust(label_w)}  "
                + "".join(chars[start:start + width])
            )
    lines.append("legend: R restart  C breaker  D degraded  "
                 "Q quarantined  V violation  ! drift  . clean")
    return "\n".join(lines)


def _period_char(record: dict, recovered: set, breaker: set) -> str:
    """The :func:`_timeline` character of one period record."""
    outcome = record.get("outcome") or {}
    key = (record.get("agent"), record.get("t"))
    if key in recovered:
        return "R"
    if key in breaker:
        return "C"
    if record.get("degraded"):
        return "D"
    if record.get("quarantined"):
        return "Q"
    if outcome.get("delay_violation") or outcome.get("map_violation"):
        return "V"
    if (record.get("drift") or {}).get("flag"):
        return "!"
    return "."


def _series(records: list[dict], getter) -> list[float]:
    values = []
    for record in records:
        value = getter(record)
        values.append(
            float(value) if isinstance(value, (int, float)) else float("nan")
        )
    return values


def _summary_row(series: list[dict], anomalies: list[dict],
                 location: dict) -> list:
    """One summary-table row over one series' period records."""
    final = series[-1]
    robustness = final.get("robustness") or {}
    grid = (final.get("safe_set") or {}).get("grid")
    costs = _series(series, lambda r: (r.get("outcome") or {}).get("cost"))
    return [
        len(series),
        final.get("numerics_mode") or "?",
        grid if grid is not None else "?",
        sum(
            1 for r in series
            if (r.get("outcome") or {}).get("delay_violation")
            or (r.get("outcome") or {}).get("map_violation")
        ),
        robustness.get("quarantined", 0),
        robustness.get("degraded_periods", 0),
        sum(
            1 for a in anomalies if a["kind"] == "drift_episode"
            and all(a.get(k) == v for k, v in location.items())
        ),
        (float(np.nanmean(costs)) if np.isfinite(costs).any()
         else float("nan")),
    ]


def _per_series(groups, name: str, getter) -> dict[str, list[float]]:
    """One chart line per series: ``{name: values}`` for a single one,
    else keyed by each series' ``cell``/``agent`` values."""
    if len(groups) == 1:
        return {name: _series(groups[0][1], getter)}
    return {
        "/".join(str(v) for v in location.values()): _series(series, getter)
        for location, series in groups
    }


def render_dashboard(records: list[dict],
                     anomalies: "list[dict] | None" = None) -> str:
    """The full ASCII dashboard over one trace (string, print-ready)."""
    if not records:
        return "decision trace is empty — nothing to diagnose"
    if anomalies is None:
        anomalies = detect_anomalies(records)
    records, events = split_events(records)
    if not records:
        lines = ["trace holds supervision events only (no decision records):"]
        lines += [f"  - {json.dumps(e, sort_keys=True)}" for e in events]
        return "\n".join(lines)
    groups = _by_series(records)
    columns = ["periods", "numerics", "grid", "violations", "quarantined",
               "degraded", "drift episodes", "mean cost"]
    if len(groups) == 1:
        table = render_table(columns, [_summary_row(records, anomalies, {})])
    else:
        names = list(dict.fromkeys(k for loc, _ in groups for k in loc))
        table = render_table(names + columns, [
            [location.get(k, "-") for k in names]
            + _summary_row(series, anomalies, location)
            for location, series in groups
        ])
    sections = [table]

    # Records replayed from the content-addressed experiment store are
    # stamped `store_hit` by the sweep engine — surface the split so a
    # reader knows which periods were recomputed vs served from cache.
    n_store = sum(1 for r in records if r.get("store_hit"))
    if n_store:
        sections.append(
            f"{n_store}/{len(records)} records replayed from the "
            f"experiment store (store_hit; see docs/STORE.md)"
        )

    if events:
        counts: dict[str, int] = {}
        for event in events:
            name = str(event.get("event"))
            counts[name] = counts.get(name, 0) + 1
        summary = "  ".join(
            f"{name}={n}" for name, n in sorted(counts.items())
        )
        sections.append(
            f"Supervision events ({len(events)}): {summary} "
            f"(see docs/ROBUSTNESS.md, \"Fleet resilience\")"
        )

    sections.append(render_chart(
        _per_series(groups, "safe fraction",
                    lambda r: (r.get("safe_set") or {}).get("fraction")),
        title="Safe-set fraction of the control grid per period",
        height=10,
    ))

    # One series: one chart, a line per head plus the nominal level.
    # Several: a chart per head, a line per series.
    finals = [s[-1] for _, s in groups if s[-1].get("calibration")]
    coverage = {
        head: _per_series(groups, head, lambda r, h=head: (
            (r.get("calibration") or {}).get(h, {}).get("coverage")))
        for head in sorted({h for f in finals for h in f["calibration"]})
    }
    expected = (finals[0]["calibration"][min(finals[0]["calibration"])]
                .get("expected") if finals else None)
    known = isinstance(expected, (int, float))
    if coverage and len(groups) == 1:
        lines = {h: v for chart in coverage.values() for h, v in chart.items()}
        if known:
            lines["nominal"] = [float(expected)] * len(records)
        sections.append(render_chart(
            lines, title="Running z-score coverage per head (vs nominal)",
            height=10,
        ))
    elif coverage:
        level = f"{expected:.3g}" if known else "?"
        sections += [render_chart(
            lines, height=10, title=f"Running z-score coverage of the "
            f"{head} head per series (nominal {level})",
        ) for head, lines in coverage.items()]

    for key, title in (
        ("delay_slack_s", "Certified delay slack of chosen control (s)"),
        ("map_slack", "Certified mAP slack of chosen control"),
    ):
        values = [m for r in records if (m := _margin(r, key)) is not None]
        if values:
            sections.append(render_histogram(values, title=title))

    sections.append(
        "Event timeline (one char per period)\n"
        + _timeline(records, events=events)
    )

    regret = _per_series(
        groups, "cumulative regret",
        lambda r: (r.get("regret") or {}).get("cumulative"),
    )
    if any(np.isfinite(values).any() for values in regret.values()):
        sections.append(render_chart(
            regret,
            title="Cumulative regret vs oracle (cost units)",
            height=10,
        ))

    if anomalies:
        lines = ["Anomaly flags:"]
        lines += [f"  - {json.dumps(flag, sort_keys=True)}"
                  for flag in anomalies]
        sections.append("\n".join(lines))
    else:
        sections.append("Anomaly flags: none")

    return "\n\n".join(sections)
