"""Per-slice EdgeBOL on a multi-service deployment (Section 4.4).

The paper argues that running one EdgeBOL instance per pre-configured
slice is the practical alternative to the intractable joint
formulation.  This experiment validates the claim on the shared-GPU /
shared-cell substrate: two slices with different service requirements,
each steered by an independent EdgeBOL agent that only sees its own
slice's context and KPIs; the coupling (GPU contention, airtime
admission control) appears to each agent as environment behaviour.
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
from repro.ran.channel import GaussMarkovChannel
from repro.testbed.config import (
    CostWeights,
    ServiceConstraints,
    TestbedConfig,
)
from repro.testbed.multiservice import MultiServiceEnvironment, SliceSpec
from repro.utils.ascii import render_table
from repro.utils.rng import ensure_rng, spawn_rngs


@dataclass(frozen=True)
class MultiServiceSetting:
    """Two-slice scenario: a latency-critical AR slice and an
    accuracy-critical surveillance slice."""

    n_periods: int = 150
    n_levels: int = 7
    ar_users: int = 1
    surveillance_users: int = 2
    ar_constraints: ServiceConstraints = ServiceConstraints(0.45, 0.45)
    surveillance_constraints: ServiceConstraints = ServiceConstraints(1.0, 0.6)
    delta2: float = 4.0


def build_environment(
    setting: MultiServiceSetting, rng=None
) -> MultiServiceEnvironment:
    """The two-slice testbed with independent channels per slice."""
    parent = ensure_rng(rng)
    rngs = spawn_rngs(parent, setting.ar_users + setting.surveillance_users)
    ar_channels = tuple(
        GaussMarkovChannel(mean_snr_db=33.0, std_db=0.8, rng=r)
        for r in rngs[: setting.ar_users]
    )
    sv_channels = tuple(
        GaussMarkovChannel(mean_snr_db=28.0, std_db=0.8, rng=r)
        for r in rngs[setting.ar_users:]
    )
    config = TestbedConfig(n_levels=setting.n_levels)
    return MultiServiceEnvironment(
        slices=[
            SliceSpec(name="ar", channels=ar_channels),
            SliceSpec(name="surveillance", channels=sv_channels, priority=0.8),
        ],
        config=config,
        rng=parent,
    )


def run_per_slice_edgebol(
    setting: MultiServiceSetting | None = None,
    seed: int = 0,
    agent_config: EdgeBOLConfig | None = None,
) -> tuple[RunLog, RunLog]:
    """Two independent agents, one per slice; returns their logs."""
    setting = setting if setting is not None else MultiServiceSetting()
    env = build_environment(setting, rng=seed)
    config = TestbedConfig(n_levels=setting.n_levels)
    weights = CostWeights(1.0, setting.delta2)
    agents = [
        EdgeBOL(config.control_grid(), setting.ar_constraints, weights,
                config=agent_config),
        EdgeBOL(config.control_grid(), setting.surveillance_constraints,
                weights, config=agent_config),
    ]
    logs = [RunLog(), RunLog()]
    constraints = [setting.ar_constraints, setting.surveillance_constraints]
    # One labelled tracer per slice: both emit into the shared sink,
    # records distinguished by their "agent" field.
    tracers = [
        make_tracer(agent, label=name)
        for agent, name in zip(agents, ("ar", "surveillance"))
    ]
    for agent, tracer in zip(agents, tracers):
        if tracer is not None:
            agent.attach_tracer(tracer)
    try:
        for _ in range(setting.n_periods):
            contexts = env.observe_contexts()
            policies = [
                agent.select(context)
                for agent, context in zip(agents, contexts)
            ]
            observations = env.step(policies)
            for agent, context, policy, observation, log, limits in zip(
                agents, contexts, policies, observations, logs, constraints
            ):
                cost = agent.observe(context, policy, observation)
                log.append(
                    cost=cost,
                    policy=policy,
                    observation=observation,
                    safe_set_size=agent.last_safe_set_size,
                    snr_db=float("nan"),
                    d_max_s=limits.d_max_s,
                    rho_min=limits.rho_min,
                )
    finally:
        for agent, tracer in zip(agents, tracers):
            if tracer is not None:
                agent.attach_tracer(None)
    for log, tracer in zip(logs, tracers):
        if tracer is not None:
            log.decisions = tracer.summary()
    return logs[0], logs[1]


def summary(ar_log: RunLog, sv_log: RunLog) -> list[dict]:
    """Per-slice convergence and feasibility summary."""
    rows = []
    for name, log in (("ar", ar_log), ("surveillance", sv_log)):
        delay_viol, map_viol = log.violation_rates(burn_in=len(log) // 3)
        rows.append({
            "slice": name,
            "initial_cost": float(np.mean(log.cost[:5])),
            "final_cost": log.tail_mean("cost", 20),
            "delay_violation_rate": delay_viol,
            "map_violation_rate": map_viol,
            "final_resolution": log.tail_mean("resolution", 20),
            "final_airtime": log.tail_mean("airtime", 20),
        })
    return rows


# -- the ``multiservice`` experiment spec -------------------------------


def run_multiservice_cell(params: Mapping, seed) -> list[dict]:
    """The two-slice §4.4 deployment (one cell, both slices)."""
    setting = MultiServiceSetting(
        n_periods=int(params["periods"]),
        n_levels=int(params["levels"]),
        delta2=float(params["delta2"]),
    )
    ar_log, sv_log = run_per_slice_edgebol(setting, seed=seed)
    return summary(ar_log, sv_log)


def report_multiservice(rows: list[dict], params: Mapping, out: Path) -> str:
    """Per-slice convergence table plus ``multiservice.csv``."""
    table = render_table(
        ["slice", "initial cost", "final cost", "delay viol.", "mAP viol."],
        [
            [r["slice"], r["initial_cost"], r["final_cost"],
             r["delay_violation_rate"], r["map_violation_rate"]]
            for r in rows
        ],
    )
    path = write_csv(Path(out) / "multiservice.csv", rows)
    return f"{table}\n\nwrote {path}"


SPEC = spec_registry.register(ExperimentSpec(
    name="multiservice",
    help="§4.4 per-slice EdgeBOL on a two-slice deployment",
    params=(
        ParamSpec("periods", type=int, default=150, help="periods to run"),
        ParamSpec("levels", type=int, default=7,
                  help="control-grid levels per dimension"),
        ParamSpec("delta2", type=float, default=4.0,
                  help="BS energy price shared by both slices"),
    ),
    run_cell=run_multiservice_cell,
    report=report_multiservice,
))
