"""Tariff-tracking experiment (extension of Section 4.3).

The paper motivates the cost weights with time-varying energy prices
(day/night bands, solar-powered cells) but evaluates only static
weights.  This experiment closes that gap: EdgeBOL runs under a
:class:`repro.testbed.tariffs.EnergyTariff` whose weights switch at
runtime, comparing

* the **coupled** agent (the paper's formulation: one GP on the scalar
  cost, whose historical observations embed stale prices), against
* the **decoupled** extension (separate GPs on server and BS power;
  price changes recompose the cost LCB instantly).

The headline metric is the *price-weighted regret* versus the oracle
that knows the tariff: the decoupled agent tracks each price band
near-instantly while the coupled agent drags stale-cost data along.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from repro.core import EdgeBOL, EdgeBOLConfig
from repro.experiments import spec as spec_registry
from repro.experiments.recorder import RunLog, write_csv
from repro.experiments.spec import ExperimentSpec, ParamSpec
from repro.obs.decision import make_tracer
from repro.testbed.config import ServiceConstraints, TestbedConfig
from repro.testbed.env import EdgeAIEnvironment
from repro.testbed.scenarios import static_scenario
from repro.testbed.tariffs import DayNightTariff, EnergyTariff
from repro.utils.ascii import render_table


@dataclass(frozen=True)
class TariffSetting:
    """Parameters of the tariff-tracking scenario."""

    n_periods: int = 300
    mean_snr_db: float = 35.0
    d_max_s: float = 0.5
    rho_min: float = 0.4
    n_levels: int = 9


def default_tariff(setting: TariffSetting) -> EnergyTariff:
    """Two day/night cycles across the run."""
    return DayNightTariff(periods_per_day=setting.n_periods // 2)


def run_tariff_tracking(
    decoupled: bool,
    setting: TariffSetting | None = None,
    tariff: EnergyTariff | None = None,
    seed: int = 0,
) -> RunLog:
    """One agent run under a time-varying tariff.

    The logged ``cost`` column is priced with the tariff weights active
    at each period.
    """
    setting = setting if setting is not None else TariffSetting()
    tariff = tariff if tariff is not None else default_tariff(setting)
    testbed = TestbedConfig(n_levels=setting.n_levels)
    env: EdgeAIEnvironment = static_scenario(
        mean_snr_db=setting.mean_snr_db, rng=seed, config=testbed
    )
    agent = EdgeBOL(
        testbed.control_grid(),
        ServiceConstraints(setting.d_max_s, setting.rho_min),
        tariff.weights_at(0),
        config=EdgeBOLConfig(decoupled_power_gps=decoupled),
    )
    log = RunLog()
    active = tariff.weights_at(0)
    tracer = make_tracer(agent)
    if tracer is not None:
        agent.attach_tracer(tracer)
    try:
        for t in range(setting.n_periods):
            weights = tariff.weights_at(t)
            if weights != active:
                agent.set_cost_weights(weights)
                active = weights
            snr = float(np.mean(env.current_snrs_db))
            context = env.observe_context()
            policy = agent.select(context)
            observation = env.step(policy)
            cost = agent.observe(context, policy, observation)
            log.append(
                cost=cost,
                policy=policy,
                observation=observation,
                safe_set_size=agent.last_safe_set_size,
                snr_db=snr,
                d_max_s=setting.d_max_s,
                rho_min=setting.rho_min,
            )
    finally:
        if tracer is not None:
            agent.attach_tracer(None)
    if tracer is not None:
        log.decisions = tracer.summary()
    return log


def band_costs(log: RunLog, tariff: EnergyTariff, setting: TariffSetting):
    """Mean cost per tariff band, excluding the first (cold-start) band."""
    bands: dict[tuple, list[float]] = {}
    order: list[tuple] = []
    for t, cost in enumerate(log.cost):
        weights = tariff.weights_at(t)
        key = (weights.delta1, weights.delta2)
        if key not in bands:
            bands[key] = []
            order.append(key)
        bands[key].append(cost)
    return {key: float(np.mean(values)) for key, values in bands.items()}


# -- the ``tariff`` experiment spec -------------------------------------


def expand_tariff(params: Mapping) -> list[dict]:
    """One cell per formulation: coupled vs decoupled power GPs."""
    return [{"decoupled": False}, {"decoupled": True}]


def run_tariff_cell(params: Mapping, seed) -> list[dict]:
    """One agent run under the day/night tariff, summarised per band."""
    setting = TariffSetting(
        n_periods=int(params["periods"]), n_levels=int(params["levels"])
    )
    tariff = default_tariff(setting)
    log = run_tariff_tracking(
        bool(params["decoupled"]), setting=setting, tariff=tariff, seed=seed
    )
    return [
        {"decoupled": bool(params["decoupled"]), "delta1": d1, "delta2": d2,
         "mean_cost": cost}
        for (d1, d2), cost in band_costs(log, tariff, setting).items()
    ]


def report_tariff(rows: list[dict], params: Mapping, out: Path) -> str:
    """Per-band cost table plus ``tariff.csv``."""
    table = render_table(
        ["decoupled", "delta1", "delta2", "mean cost"],
        [[r["decoupled"], r["delta1"], r["delta2"], r["mean_cost"]]
         for r in rows],
    )
    path = write_csv(Path(out) / "tariff.csv", rows)
    return f"{table}\n\nwrote {path}"


SPEC = spec_registry.register(ExperimentSpec(
    name="tariff",
    help="day/night tariff tracking (extension)",
    params=(
        ParamSpec("periods", type=int, default=300, help="periods per run"),
        ParamSpec("levels", type=int, default=9,
                  help="control-grid levels per dimension"),
    ),
    run_cell=run_tariff_cell,
    report=report_tariff,
    expand=expand_tariff,
))
