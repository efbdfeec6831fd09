"""The fleet view of ``repro report``: SLO burn and energy per cell.

Renders the records of one fleet run (a ``--set metrics=DIR`` dump or a
``--telemetry`` trace), fed to a :class:`MetricStore`, as a plain-text
operator view: per-cell SLO burn rates and energy ledger, fleet totals,
the worst cells by cost, and the critical-path breakdown of traced
rounds.  :func:`status_payload` returns the same content as a
JSON-friendly dict (``--json``).
"""

from __future__ import annotations

from repro.fleetobs.ledger import FleetLedger
from repro.fleetobs.tracing import critical_path_report
from repro.utils.ascii import render_table

__all__ = ["status_payload", "render_status"]

#: Cells listed in the top-cost ranking.
TOP_CELLS = 5


def _alert_counts(store) -> "tuple[dict, dict]":
    """Alert counts keyed by cell and by rule."""
    by_cell: dict[str, int] = {}
    by_rule: dict[str, int] = {}
    for alert in store.alerts():
        cell = str(alert.get("cell", store.FLEET_CELL))
        rule = str(alert.get("rule", "?"))
        by_cell[cell] = by_cell.get(cell, 0) + 1
        by_rule[rule] = by_rule.get(rule, 0) + 1
    return by_cell, by_rule


def status_payload(store) -> dict:
    """The dashboard's content as one JSON-friendly dict.

    Combines the store's ingestion accounting, the
    :class:`~repro.fleetobs.ledger.FleetLedger` report (SLO burn +
    energy savings, at the ledger's default budgets and window),
    alert/event tallies, the top :data:`TOP_CELLS` cells by mean cost,
    and the :func:`critical_path_report` over retained spans.
    """
    ledger = FleetLedger(store)
    alerts_by_cell, alerts_by_rule = _alert_counts(store)
    return {
        "summary": store.summary(),
        "ledger": ledger.report(),
        "alerts": {
            "total": len(store.alerts()),
            "by_rule": dict(sorted(alerts_by_rule.items())),
            "by_cell": dict(sorted(alerts_by_cell.items())),
        },
        "events": len(store.events()),
        "top_cost": store.top_k("cost", k=TOP_CELLS, agg="mean"),
        "critical_path": critical_path_report(store.spans()),
    }


def _fmt(value, spec: str = "{:.4g}") -> str:
    """Format a possibly-missing numeric cell (``-`` for None)."""
    if value is None:
        return "-"
    return spec.format(value)


def _burn_flag(burn) -> str:
    """Annotate a burn rate: ``!`` marks budget overspend (>1)."""
    if burn is None:
        return "-"
    return f"{burn:.3g}{'!' if burn > 1.0 else ''}"


def render_status(store) -> str:
    """Render the fleet dashboard as plain text.

    Sections: ingestion header, per-cell SLO/energy table, fleet
    roll-up, worst cells by mean cost, alert rules, and the traced
    critical path (omitted when the run recorded no spans).
    """
    payload = status_payload(store)
    summary = payload["summary"]
    ledger = payload["ledger"]
    fleet = ledger["fleet"]
    lines = [
        "fleet status",
        "============",
        (
            f"records ingested: {summary['ingested']}  "
            f"(duplicates dropped: {summary['duplicates']})  "
            f"cells: {summary['cells']}  series: {summary['series']}"
        ),
        "by type: " + ", ".join(
            f"{kind}={count}" for kind, count in summary["by_type"].items()
        ),
        "",
        (
            f"SLO budgets: delay<={ledger['delay_budget']:g} "
            f"mAP<={ledger['map_budget']:g} of periods; "
            f"burn>1 means the error budget is overspent "
            f"(recent = last {ledger['window']} periods)"
        ),
    ]

    rows = []
    for cell in ledger["cells"]:
        rows.append([
            cell["cell"],
            cell["periods"],
            _fmt(cell["mean_cost"]),
            _fmt(cell["mean_power_w"], "{:.1f}"),
            _fmt(cell["baseline_power_w"], "{:.1f}"),
            _fmt(cell["energy_saved_j"], "{:.0f}"),
            _fmt(cell["savings_fraction"], "{:.1%}"),
            _burn_flag(cell["delay_burn"]),
            _burn_flag(cell["delay_burn_recent"]),
            _burn_flag(cell["map_burn"]),
            payload["alerts"]["by_cell"].get(cell["cell"], 0),
        ])
    if rows:
        lines.append(render_table(
            ["cell", "periods", "cost", "power W", "baseline W", "saved J",
             "saved %", "delay burn", "recent", "mAP burn", "alerts"],
            rows,
        ))
    else:
        lines.append("(no per-cell KPI series in this store)")

    lines += [
        "",
        (
            f"fleet: {fleet['n_cells']} cells, {fleet['periods']} "
            f"cell-periods | energy saved "
            f"{_fmt(fleet['energy_saved_j'], '{:.0f}')} J "
            f"(mean {_fmt(fleet['mean_savings_fraction'], '{:.1%}')} vs "
            f"fixed-max) | delay burn {_burn_flag(fleet['delay_burn'])} "
            f"mAP burn {_burn_flag(fleet['map_burn'])} | worst cell: "
            f"{fleet['worst_delay_burn_cell'] or '-'}"
        ),
    ]

    if payload["top_cost"]:
        lines += ["", f"top {len(payload['top_cost'])} cells by mean cost:"]
        lines.append(render_table(
            ["cell", "mean cost"],
            [[cell, value] for cell, value in payload["top_cost"]],
        ))

    if payload["alerts"]["total"]:
        rules = ", ".join(
            f"{rule}={count}"
            for rule, count in payload["alerts"]["by_rule"].items()
        )
        lines += ["", f"alerts: {payload['alerts']['total']} ({rules})"]
    if payload["events"]:
        lines += ["", f"supervision events: {payload['events']}"]

    path = payload["critical_path"]
    if path["rounds"]:
        lines += [
            "",
            (
                f"traced rounds: {path['rounds']} "
                f"(mean {_fmt(path['round_mean_s'], '{:.6f}')} s)"
            ),
            "slowest hops:",
            render_table(
                ["hop", "count", "total s", "mean s", "share"],
                [
                    [row["hop"], row["count"], row["total_s"], row["mean_s"],
                     f"{row['share']:.1%}"]
                    for row in path["hops"][:8]
                ],
            ),
        ]
        if path["critical_path"]:
            chain = " -> ".join(
                f"{step['hop']} ({step['mean_s']:.6f}s)"
                for step in path["critical_path"]
            )
            lines += [
                (
                    f"modal critical path "
                    f"({path['critical_path_share']:.0%} of rounds): {chain}"
                ),
            ]
    return "\n".join(lines)
