"""Multi-cell control-plane experiment: EdgeBOL fleets on one SMO.

One :class:`~repro.oran.runtime.FleetRuntime` per sweep cell: ``cells``
independent EdgeBOL agents (one per simulated cell, each with its own
testbed environment seeded from the cell's seed tree) sharing a single
event-loop control plane — one bus, one A1 policy service, per-cell
E2/O1 planes under topic prefixes — while the load harness
(:mod:`repro.oran.load`) drives per-cell offered load and the alert
router watches constraint violations and degraded-mode stretches.

Reported rows are *deterministic* (tail costs, violation and alert
counts, mailbox accounting); wall-clock throughput deliberately stays
out of them — that is the control-plane benchmark's job
(``benchmarks/test_perf_control_plane.py``).

``--set supervise=1`` (with ``--set snapshot_every=N``) enables the
fleet supervisor (:mod:`repro.oran.supervisor`): under a ``--faults``
plan with ``cell``/``loop``/``snapshot``/``mailbox`` specs, crashed or
stalled cells are warm-restored from snapshots and their rows replayed
bit-identically; each row then reports ``recovered``/``restarts``/
``partial`` accounting.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import nullcontext
from pathlib import Path

from repro.core import EdgeBOL
from repro.experiments import spec as spec_registry
from repro.experiments.recorder import write_csv
from repro.experiments.spec import ExperimentSpec, ParamSpec
from repro.oran.bus import MAILBOX_POLICIES
from repro.oran.load import LOAD_PROFILES, FleetLoadModel
from repro.oran.runtime import FleetResult, FleetRuntime
from repro.telemetry import runtime as telemetry
from repro.testbed.config import CostWeights, ServiceConstraints, TestbedConfig
from repro.testbed.scenarios import static_scenario
from repro.utils.ascii import render_table
from repro.utils.rng import seed_tree


#: Round-span sampling cadence of the fleet spec while a sink is
#: attached (``--set metrics=DIR``, ``--trace-decisions``): every 4th
#: period is traced, which keeps the span/envelope cost well inside the
#: overhead budget (``BENCH_observability.json``) while still yielding
#: hundreds of stitched round trees per run.
METRICS_TRACE_EVERY = 4


def run_fleet_cell_sim(
    n_cells: int,
    n_periods: int,
    seed,
    levels: int = 5,
    n_users: int = 1,
    load_profile: str = "diurnal",
    mailbox_policy: str = "block",
    batch_size: int = 1,
    make_agent=None,
    supervise: bool = False,
    snapshot_every: int | None = None,
    trace_rounds_every: int = 1,
) -> FleetResult:
    """Run one fleet of ``n_cells`` EdgeBOL agents for ``n_periods``.

    ``seed`` (int / SeedSequence) roots one tree: one node per cell's
    environment plus one for the load model, so fleets are reproducible
    and per-cell streams independent.  ``make_agent`` overrides agent
    construction (the benchmark substitutes a trivial controller to
    isolate control-plane overhead).  ``supervise`` enables the fleet
    supervisor (snapshot checkpoints every ``snapshot_every`` periods,
    crash/stall recovery, mailbox circuit breaker — see
    :mod:`repro.oran.supervisor`); faults arrive via the process fault
    plan (``--faults``).  While a telemetry sink is attached (e.g. a
    :class:`~repro.fleetobs.store.MetricStore`), per-period KPI
    records, alerts, decision records, supervision events and
    (``trace_rounds_every``-sampled) stitched round spans all stream
    into it without perturbing the run (rows stay bit-identical;
    asserted in ``tests/test_fleetobs.py``).
    """
    testbed = TestbedConfig(n_levels=levels)
    grid = testbed.control_grid()
    if make_agent is None:
        def make_agent():
            return EdgeBOL(grid, ServiceConstraints(), CostWeights(1.0, 1.0))
    rngs = seed_tree(seed, n_cells + 1)
    cells = [
        (
            static_scenario(n_users=n_users, rng=rngs[i], config=testbed),
            make_agent(),
        )
        for i in range(n_cells)
    ]
    load = FleetLoadModel(n_cells, profile=load_profile, seed=rngs[n_cells])
    runtime = FleetRuntime(
        cells,
        load_model=load,
        indication_policy=mailbox_policy,
        batch_size=batch_size,
        supervise=supervise,
        snapshot_every=snapshot_every,
        trace_rounds_every=trace_rounds_every,
    )
    return runtime.run(n_periods)


def _fleet_rows(result: FleetResult, params: Mapping) -> list[dict]:
    """One deterministic row per cell of one fleet run."""
    tail = max(1, result.n_periods // 4)
    boxes = [s for subs in result.mailbox_stats.values() for s in subs]
    dropped = sum(s["dropped"] for s in boxes)
    coalesced = sum(s["coalesced"] for s in boxes)
    rows = []
    for cell_id, log in result.logs.items():
        delay_viol, map_viol = log.violation_rates()
        partial = result.partial_cells.get(cell_id)
        recovery = result.recovery.get(cell_id, {})
        rows.append({
            "cells": result.n_cells,
            "cell": cell_id,
            "load": str(params["load"]),
            "policy": str(params["policy"]),
            "cost": log.tail_mean("cost", window=tail),
            "bs_power_w": log.tail_mean("bs_power_w", window=tail),
            "server_power_w": log.tail_mean("server_power_w", window=tail),
            "delay_violation_rate": delay_viol,
            "map_violation_rate": map_viol,
            "decisions": result.n_periods,
            "rows": len(log),
            "partial": partial is not None,
            "missed": 0 if partial is None else int(partial["missed"]),
            "recovered": bool(recovery.get("recovered", False)),
            "restarts": int(recovery.get("restarts", 0)),
            "breaker_trips": int(recovery.get("breaker_trips", 0)),
            "alerts_raised": result.alert_counts["raised"],
            "alerts_suppressed": result.alert_counts["suppressed"],
            "bus_dropped": dropped,
            "bus_coalesced": coalesced,
            "loop_steps": result.loop_steps,
        })
    return rows


def _write_metrics_artifacts(store, metrics_dir: Path, n_cells: int) -> None:
    """Dump one fleet run's store: ``*_metrics.jsonl`` + exposition."""
    from repro.telemetry.export import prometheus_exposition

    stem = f"cells{n_cells:03d}_metrics"
    store.dump_jsonl(metrics_dir / f"{stem}.jsonl")
    exposition = (
        prometheus_exposition(telemetry.metrics_snapshot())
        + prometheus_exposition(store.metrics_snapshot())
    )
    (metrics_dir / f"{stem}.prom").write_text(exposition)


def run_fleet_spec_cell(params: Mapping, seed) -> list[dict]:
    """One fleet size of the sweep: run the fleet, emit per-cell rows.

    With ``--set metrics=DIR`` a
    :class:`~repro.fleetobs.store.MetricStore` is attached as a
    telemetry sink for the run, which dumps
    ``DIR/cellsNNN_metrics.jsonl`` (render with ``repro report``)
    plus a Prometheus-style ``.prom`` exposition of the run's metric
    registry and the store's own accounting.  Telemetry itself is not
    enabled: the runtime turns spans on per sampled period
    (``METRICS_TRACE_EVERY``), so the exposition's counters reflect the
    sampled periods only.  Reported rows are byte-identical with or
    without the store (CI gates on it).
    """
    metrics_dir = str(params.get("metrics", "") or "")
    store = None
    if metrics_dir:
        from repro.fleetobs import MetricStore

        store = MetricStore()
        telemetry.reset_metrics()
    with telemetry.attach(store) if store is not None else nullcontext():
        result = run_fleet_cell_sim(
            n_cells=int(params["cells"]),
            n_periods=int(params["periods"]),
            seed=seed,
            levels=int(params["levels"]),
            n_users=int(params["users"]),
            load_profile=str(params["load"]),
            mailbox_policy=str(params["policy"]),
            batch_size=int(params["batch"]),
            supervise=bool(int(params.get("supervise", 0))),
            snapshot_every=int(params.get("snapshot_every", 10)),
            trace_rounds_every=METRICS_TRACE_EVERY,
        )
    if store is not None:
        directory = Path(metrics_dir)
        directory.mkdir(parents=True, exist_ok=True)
        _write_metrics_artifacts(store, directory, result.n_cells)
    return _fleet_rows(result, params)


def report_fleet(rows: list[dict], params: Mapping, out: Path) -> str:
    """Fleet summary table plus ``fleet.csv``."""
    table = render_table(
        ["cells", "cell", "load", "cost", "BS W", "delay viol",
         "mAP viol", "alerts", "suppressed", "dropped"],
        [
            [r["cells"], r["cell"], r["load"], r["cost"], r["bs_power_w"],
             r["delay_violation_rate"], r["map_violation_rate"],
             r["alerts_raised"], r["alerts_suppressed"], r["bus_dropped"]]
            for r in rows
        ],
    )
    path = write_csv(Path(out) / "fleet.csv", rows)
    return f"{table}\n\nwrote {path}"


def expand_fleet(params: Mapping) -> list[dict]:
    """One cell per fleet size."""
    return [{"cells": int(n)} for n in params["cells"]]


SPEC = spec_registry.register(ExperimentSpec(
    name="fleet",
    help="multi-cell event-loop control plane under load",
    params=(
        ParamSpec("cells", type=int, default=(1, 8), sweep=True,
                  help="fleet sizes to sweep"),
        ParamSpec("periods", type=int, default=40,
                  help="orchestration periods per fleet"),
        ParamSpec("levels", type=int, default=5,
                  help="control-grid levels per dimension"),
        ParamSpec("users", type=int, default=1, help="users per cell"),
        ParamSpec("load", type=str, default="diurnal",
                  choices=LOAD_PROFILES, help="fleet load profile"),
        ParamSpec("policy", type=str, default="block",
                  choices=MAILBOX_POLICIES,
                  help="E2 indication mailbox backpressure policy"),
        ParamSpec("batch", type=int, default=1,
                  help="E2 indication batch size"),
        ParamSpec("supervise", type=int, default=0,
                  help="1 = enable the fleet supervisor "
                       "(snapshots, crash/stall recovery, breaker)"),
        ParamSpec("snapshot_every", type=int, default=10,
                  help="supervisor checkpoint cadence in periods"),
        ParamSpec("metrics", type=str, default="",
                  help="directory for fleet metrics artifacts: per-run "
                       "metrics JSONL (render with 'repro report') "
                       "and Prometheus-style exposition (empty = off)"),
    ),
    run_cell=run_fleet_spec_cell,
    report=report_fleet,
    expand=expand_fleet,
))
