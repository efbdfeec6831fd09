"""SLO error budgets and the energy-savings ledger over a metric store.

Two rolling accounts per cell, fed by the ``type: "kpi"`` records the
fleet runtime emits each period into the record stream:

* **SLO burn** — the paper's service constraints (``delay_s <= d_max``,
  ``mAP >= rho_min``) are treated as SLOs with an allowed violation
  budget.  The *burn rate* is the observed violation rate divided by
  the budget: 1.0 means the cell spends its error budget exactly as
  fast as allowed, >1 means it will exhaust the budget early.  Both a
  whole-run rate and a rolling-window rate are reported (the window
  catches cells that went bad recently).
* **Energy ledger** — cumulative energy saved vs the fixed-max-power
  baseline the paper compares against: every period contributes
  ``(baseline_w - (bs_power_w + server_power_w)) * period_s`` joules,
  where the baseline is the deterministic rated maximum of the cell's
  hardware config (:func:`fixed_max_baseline_w`).

Nothing here touches an RNG; the ledger is pure arithmetic over stored
series, so it can run live during a fleet run or offline over a dumped
``metrics.jsonl``.
"""

from __future__ import annotations

from repro.ran import phy

__all__ = ["FleetLedger", "fixed_max_baseline_w",
           "DEFAULT_DELAY_BUDGET", "DEFAULT_MAP_BUDGET"]

#: Default allowed delay-violation rate (fraction of periods).
DEFAULT_DELAY_BUDGET = 0.10
#: Default allowed mAP-violation rate (fraction of periods).
DEFAULT_MAP_BUDGET = 0.10


def fixed_max_baseline_w(config) -> float:
    """Rated fixed-max-power draw (W) of one cell's hardware config.

    The paper's energy-savings baseline: the BS serving at 100% airtime
    on the top MCS (:attr:`repro.ran.power.BSPowerModel.max_power_w`)
    plus the edge server with the GPU at its maximum power cap on an
    idle-powered host.  Derived purely from :class:`TestbedConfig`
    fields, so it is deterministic per config.
    """
    bs_max = (
        float(config.bs_idle_power_w)
        + float(config.bs_base_busy_power_w)
        + float(config.bs_mcs_busy_power_w) * phy.mcs_efficiency(phy.MAX_MCS)
    )
    server_max = float(config.host_idle_power_w) + float(
        config.gpu_max_power_cap_w
    )
    return bs_max + server_max


def _burn(violations: int, periods: int, budget: float) -> "float | None":
    """Error-budget burn rate (violation rate over allowed rate)."""
    if periods <= 0:
        return None
    return (violations / periods) / budget if budget > 0 else None


class FleetLedger:
    """SLO and energy accounting over a :class:`MetricStore`.

    Parameters
    ----------
    store:
        The :class:`~repro.fleetobs.store.MetricStore` holding the
        fleet's KPI series.
    delay_budget, map_budget:
        Allowed violation rates (error budgets) for the two SLOs.
    window:
        Rolling-window length in periods for the recent burn rates.
    period_s:
        Wall seconds one virtual period represents (energy conversion
        factor; the default 1.0 reports watt-periods as joules).
    """

    def __init__(self, store, delay_budget: float = DEFAULT_DELAY_BUDGET,
                 map_budget: float = DEFAULT_MAP_BUDGET, window: int = 20,
                 period_s: float = 1.0) -> None:
        """Bind the ledger to ``store`` with the given budgets."""
        if delay_budget <= 0 or map_budget <= 0:
            raise ValueError("SLO budgets must be positive fractions")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.store = store
        self.delay_budget = float(delay_budget)
        self.map_budget = float(map_budget)
        self.window = int(window)
        self.period_s = float(period_s)

    def _windowed(self, points: list) -> list:
        """The last ``window`` values of a ``(t, value)`` point list."""
        return [v for _, v in points[-self.window:]]

    def cell_report(self, cell: str) -> dict:
        """One cell's SLO burn rates and energy ledger (plain dict)."""
        delay_points = self.store.series(cell, "delay_violation")
        map_points = self.store.series(cell, "map_violation")
        bs_points = self.store.series(cell, "bs_power_w")
        server_points = self.store.series(cell, "server_power_w")
        baseline_points = self.store.series(cell, "baseline_power_w")
        cost_points = self.store.series(cell, "cost")

        periods = len(delay_points)
        delay_viols = int(sum(v for _, v in delay_points))
        map_viols = int(sum(v for _, v in map_points))

        power_by_t = {t: v for t, v in bs_points}
        total_power = [
            (t, v + power_by_t.get(t, 0.0)) for t, v in server_points
        ]
        baseline = baseline_points[-1][1] if baseline_points else None
        saved_j = None
        mean_power = None
        if total_power:
            mean_power = sum(v for _, v in total_power) / len(total_power)
            if baseline is not None:
                saved_j = sum(
                    (baseline - v) * self.period_s for _, v in total_power
                )

        recent_delay = self._windowed(delay_points)
        recent_map = self._windowed(map_points)
        return {
            "cell": cell,
            "periods": periods,
            "mean_cost": (
                sum(v for _, v in cost_points) / len(cost_points)
                if cost_points else None
            ),
            "delay_violations": delay_viols,
            "map_violations": map_viols,
            "delay_burn": _burn(delay_viols, periods, self.delay_budget),
            "map_burn": _burn(map_viols, periods, self.map_budget),
            "delay_burn_recent": _burn(
                int(sum(recent_delay)), len(recent_delay), self.delay_budget
            ),
            "map_burn_recent": _burn(
                int(sum(recent_map)), len(recent_map), self.map_budget
            ),
            "mean_power_w": mean_power,
            "baseline_power_w": baseline,
            "energy_saved_j": saved_j,
            "savings_fraction": (
                1.0 - mean_power / baseline
                if mean_power is not None and baseline else None
            ),
        }

    def report(self) -> dict:
        """Per-cell reports plus the fleet-wide roll-up."""
        cells = [self.cell_report(cell) for cell in self.store.cells()]
        cells = [c for c in cells if c["periods"] > 0]
        total_periods = sum(c["periods"] for c in cells)
        delay_viols = sum(c["delay_violations"] for c in cells)
        map_viols = sum(c["map_violations"] for c in cells)
        saved = [
            c["energy_saved_j"] for c in cells
            if c["energy_saved_j"] is not None
        ]
        fractions = [
            c["savings_fraction"] for c in cells
            if c["savings_fraction"] is not None
        ]
        worst = max(
            (c for c in cells if c["delay_burn"] is not None),
            key=lambda c: (c["delay_burn"], c["cell"]),
            default=None,
        )
        return {
            "window": self.window,
            "delay_budget": self.delay_budget,
            "map_budget": self.map_budget,
            "period_s": self.period_s,
            "cells": cells,
            "fleet": {
                "n_cells": len(cells),
                "periods": total_periods,
                "delay_burn": _burn(
                    delay_viols, total_periods, self.delay_budget
                ),
                "map_burn": _burn(map_viols, total_periods, self.map_budget),
                "energy_saved_j": sum(saved) if saved else None,
                "mean_savings_fraction": (
                    sum(fractions) / len(fractions) if fractions else None
                ),
                "worst_delay_burn_cell": (
                    worst["cell"] if worst is not None else None
                ),
            },
        }
