"""Regret analysis against the offline oracle.

The contextual-bandit objective (problem 2) minimises long-run average
cost; the natural learning-theoretic lens is *regret* versus the
context-dependent oracle.  These helpers compute:

* per-period regret ``u_t - u*(c_t)`` (clipped below at 0 — beating the
  noise-free oracle on a noisy draw is not negative regret),
* cumulative and average regret curves,
* *safety regret*: cumulative constraint-violation magnitude, the
  quantity safe exploration is supposed to keep near zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from repro.bandit.oracle import ExhaustiveOracle
from repro.experiments import spec as spec_registry
from repro.experiments.recorder import RunLog, write_csv
from repro.experiments.spec import ExperimentSpec, ParamSpec
from repro.testbed.config import ServiceConstraints


@dataclass(frozen=True)
class RegretCurves:
    """Regret series of one run.

    Attributes
    ----------
    per_period:
        Clipped instantaneous regret per period.
    cumulative:
        Running sum of the per-period regret.
    average:
        Cumulative regret divided by elapsed periods.
    safety_cumulative:
        Running sum of constraint-violation magnitudes (delay seconds
        over the bound plus mAP shortfall below the floor).
    """

    per_period: np.ndarray
    cumulative: np.ndarray
    average: np.ndarray
    safety_cumulative: np.ndarray

    @property
    def final_cumulative(self) -> float:
        return float(self.cumulative[-1]) if self.cumulative.size else 0.0

    def is_sublinear(self, split: float = 0.5) -> bool:
        """Whether the average regret of the tail beats the head.

        A crude sublinearity check: the mean per-period regret over the
        last ``1 - split`` fraction of the run is lower than over the
        first ``split`` fraction.
        """
        n = self.per_period.size
        if n < 4:
            return False
        cut = max(1, int(n * split))
        head = float(np.mean(self.per_period[:cut]))
        tail = float(np.mean(self.per_period[cut:]))
        return tail < head


def regret_against_constant_oracle(
    log: RunLog, oracle_cost: float
) -> RegretCurves:
    """Regret curves for a fixed-context run with a known oracle cost."""
    costs = np.asarray(log.cost, dtype=float)
    per_period = np.maximum(costs - float(oracle_cost), 0.0)
    cumulative = np.cumsum(per_period)
    steps = np.arange(1, per_period.size + 1)
    average = cumulative / steps

    delays = np.asarray(log.delay_s, dtype=float)
    maps = np.asarray(log.map_score, dtype=float)
    d_max = np.asarray(log.d_max_s, dtype=float)
    rho = np.asarray(log.rho_min, dtype=float)
    finite_delays = np.where(np.isfinite(delays), delays, d_max + 2.0)
    violations = np.maximum(finite_delays - d_max, 0.0) + np.maximum(
        rho - maps, 0.0
    )
    return RegretCurves(
        per_period=per_period,
        cumulative=cumulative,
        average=average,
        safety_cumulative=np.cumsum(violations),
    )


def regret_for_static_run(
    log: RunLog,
    oracle: ExhaustiveOracle,
    constraints: ServiceConstraints,
    snrs_db,
) -> RegretCurves:
    """Convenience: look up the oracle for a static context, then score."""
    best = oracle.best(constraints, snrs_db=snrs_db)
    return regret_against_constant_oracle(log, best.cost)


# -- the ``regret`` experiment spec -------------------------------------


def run_regret_cell(params: Mapping, seed) -> list[dict]:
    """One EdgeBOL run vs the offline oracle, scored as regret curves."""
    from repro.core import EdgeBOL
    from repro.experiments.runner import run_agent
    from repro.testbed.config import CostWeights, TestbedConfig
    from repro.testbed.scenarios import static_scenario
    from repro.utils.rng import seed_tree

    mean_snr_db = 35.0
    delta2 = float(params["delta2"])
    testbed = TestbedConfig(n_levels=int(params["levels"]))
    constraints = ServiceConstraints(0.4, 0.5)
    weights = CostWeights(1.0, delta2)
    grid = testbed.control_grid()
    env_rng, oracle_rng = seed_tree(seed, 2)

    env = static_scenario(mean_snr_db=mean_snr_db, rng=env_rng, config=testbed)
    agent = EdgeBOL(grid, constraints, weights)

    # Oracle first (its own RNG branch, so run order cannot leak into
    # the agent's streams): knowing u* up front lets a traced run put
    # per-period regret into its decision records.
    oracle_env = static_scenario(
        mean_snr_db=mean_snr_db, rng=oracle_rng, config=testbed
    )
    oracle = ExhaustiveOracle(oracle_env, weights, control_grid=grid)
    best = oracle.best(constraints, snrs_db=[mean_snr_db] * env.n_users)

    log = run_agent(
        env, agent, int(params["periods"]), oracle_cost=best.cost
    )
    curves = regret_against_constant_oracle(log, best.cost)
    return [
        {
            "delta2": delta2,
            "t": t,
            "regret": float(curves.per_period[t]),
            "cumulative": float(curves.cumulative[t]),
            "average": float(curves.average[t]),
            "safety_cumulative": float(curves.safety_cumulative[t]),
        }
        for t in range(curves.per_period.size)
    ]


def report_regret(rows: list[dict], params: Mapping, out: Path) -> str:
    """Final regret summary per delta2 plus ``regret.csv``."""
    from repro.utils.ascii import render_table

    summary = []
    for delta2 in params["delta2"]:
        cell = [r for r in rows if r["delta2"] == delta2]
        if not cell:
            continue
        final = cell[-1]
        per_period = np.array([r["regret"] for r in cell])
        n = per_period.size
        cut = max(1, n // 2)
        sublinear = (
            n >= 4 and float(np.mean(per_period[cut:]))
            < float(np.mean(per_period[:cut]))
        )
        summary.append([
            delta2, final["cumulative"], final["average"],
            final["safety_cumulative"], sublinear,
        ])
    table = render_table(
        ["delta2", "cum. regret", "avg regret", "cum. safety", "sublinear"],
        summary,
    )
    path = write_csv(Path(out) / "regret.csv", rows)
    return f"{table}\n\nwrote {path}"


SPEC = spec_registry.register(ExperimentSpec(
    name="regret",
    help="regret vs the offline oracle (learning-theoretic lens)",
    params=(
        ParamSpec("delta2", type=float, default=(1.0, 8.0), sweep=True,
                  help="BS energy prices to sweep"),
        ParamSpec("periods", type=int, default=150, help="periods per run"),
        ParamSpec("levels", type=int, default=7,
                  help="control-grid levels per dimension"),
    ),
    run_cell=run_regret_cell,
    report=report_regret,
))
