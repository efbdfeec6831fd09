"""Generic agent-environment loop used by every learning experiment."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from repro.experiments.recorder import RunLog
from repro.obs import runtime as obs
from repro.telemetry import runtime as telemetry
from repro.testbed.config import ServiceConstraints
from repro.testbed.env import EdgeAIEnvironment
from repro.utils.stats import percentile_band


@dataclass(frozen=True)
class ConstraintSchedule:
    """Piecewise-constant constraint settings over time.

    ``changes`` maps period indices to the constraints that become
    active *at* that period (Fig. 14 uses switches at t=1000 and
    t=2000).
    """

    initial: ServiceConstraints
    changes: tuple[tuple[int, ServiceConstraints], ...] = ()

    def __post_init__(self) -> None:
        """Validate change periods and sort the schedule once."""
        starts = [start for start, _ in self.changes]
        for start in starts:
            if start < 0:
                raise ValueError(
                    f"schedule change periods must be non-negative, got {start}"
                )
        if len(set(starts)) != len(starts):
            duplicates = sorted({s for s in starts if starts.count(s) > 1})
            raise ValueError(
                f"schedule change periods must be unique, got duplicate(s) "
                f"{duplicates}"
            )
        object.__setattr__(
            self,
            "changes",
            tuple(sorted(self.changes, key=lambda change: change[0])),
        )

    def at(self, t: int) -> ServiceConstraints:
        """Constraints active at period ``t``."""
        active = self.initial
        for start, constraints in self.changes:
            if t < start:
                break
            active = constraints
        return active


#: Transport planes `run_agent` can route decisions through.
PLANES = ("direct", "async")


def run_agent(
    env: EdgeAIEnvironment,
    agent,
    n_periods: int,
    schedule: ConstraintSchedule | None = None,
    track_safe_set: bool = False,
    oracle_cost: float | None = None,
    plane: str = "direct",
) -> RunLog:
    """Drive ``agent`` in ``env`` for ``n_periods`` and log everything.

    The agent must expose ``select`` / ``observe`` and, when a schedule
    is given, ``set_constraints``.  ``track_safe_set`` additionally logs
    |S_t| for agents exposing ``last_safe_set_size`` (EdgeBOL).

    ``plane`` selects the transport between agent and testbed:
    ``"direct"`` (default) applies decisions inline, ``"async"`` routes
    every decision and KPI through the O-RAN plane on the event loop
    as a one-cell :class:`~repro.oran.runtime.FleetRuntime` (no load
    model, no supervisor): the fleet runs each period and logs its row
    in the cell's log, which is the log returned (with ``-1`` safe-set
    sizes unless ``track_safe_set``); this loop keeps the tracer and
    the spans, and closes the fleet's bus at the end.  Async rows and
    decision traces are pinned by committed digests (the determinism
    contract of ``docs/CONTROL_PLANE.md``); they differ from ``direct``
    only by MCS quantisation through the A1 radio policy.  Constraint
    schedules require the direct plane.

    With telemetry enabled (:func:`repro.telemetry.record`), the run is
    traced as one ``experiment.run`` root span with one
    ``experiment.period`` child per period, and the log absorbs a
    metrics snapshot (``log.telemetry``) alongside ``engine_stats``.

    With a decision sink installed (:func:`repro.obs.use`), a
    :class:`~repro.obs.decision.DecisionTracer` is attached for the run
    and every period emits a ``type: "decision"`` record; the tracer's
    roll-up lands in ``log.decisions``.  ``oracle_cost`` (a clairvoyant
    per-period cost, when the caller knows one) enables the records'
    regret block.  Tracing never alters the run — KPIs stay
    bit-identical (``tests/test_obs.py``).
    """
    if n_periods < 0:
        raise ValueError(f"n_periods must be non-negative, got {n_periods}")
    if plane not in PLANES:
        raise ValueError(f"plane must be one of {PLANES}, got {plane!r}")
    if plane != "direct" and schedule is not None:
        raise ValueError("constraint schedules require plane='direct'")
    fleet = None
    if plane != "direct":
        # Deferred import: repro.oran pulls the experiment registry.
        from repro.oran.runtime import FleetRuntime

        fleet = FleetRuntime([(env, agent)])
    # The fleet's cell logs every period itself: one log, not two.
    log = RunLog() if fleet is None else fleet.cells[0].log
    active = schedule.initial if schedule is not None else getattr(
        agent, "constraints", ServiceConstraints()
    )
    tracer = obs.make_tracer(agent, oracle_cost=oracle_cost)
    if tracer is not None:
        agent.attach_tracer(tracer)
    try:
        with telemetry.span("experiment.run") as run_sp:
            if run_sp:
                run_sp.set("periods", n_periods)
                run_sp.set("agent", type(agent).__name__)
            for t in range(n_periods):
                with telemetry.span("experiment.period"):
                    if schedule is not None:
                        new_constraints = schedule.at(t)
                        if new_constraints != active:
                            agent.set_constraints(new_constraints)
                            active = new_constraints
                    if fleet is not None:
                        fleet.cell_period(fleet.cells[0], t)
                        continue
                    snr = float(np.mean(env.current_snrs_db))
                    context = env.observe_context()
                    policy = agent.select(context)
                    observation = env.step(policy)
                    cost = agent.observe(context, policy, observation)
                    safe_size = (
                        getattr(agent, "last_safe_set_size", None)
                        if track_safe_set else None
                    )
                    log.append(
                        cost=cost,
                        policy=policy,
                        observation=observation,
                        safe_set_size=safe_size,
                        snr_db=snr,
                        d_max_s=active.d_max_s,
                        rho_min=active.rho_min,
                    )
        if fleet is not None:
            # The last period's alert publish is still in flight.
            fleet.bus.drain()
    finally:
        if tracer is not None:
            agent.attach_tracer(None)
        if fleet is not None:
            fleet.bus.close()
    if fleet is not None and not track_safe_set:
        log.safe_set_size = [-1] * len(log)
    if tracer is not None:
        log.decisions = tracer.summary()
    engine = getattr(agent, "engine", None)
    if engine is not None and hasattr(engine, "stats"):
        log.engine_stats = engine.stats.snapshot()
    robustness = getattr(agent, "robustness_stats", None)
    if callable(robustness):
        log.robustness = robustness()
    if telemetry.enabled():
        log.telemetry = telemetry.metrics_snapshot()
    return log


def run_repetitions(
    make_env_and_agent: Callable[[int], tuple[EdgeAIEnvironment, object]],
    n_repetitions: int,
    n_periods: int,
    schedule: ConstraintSchedule | None = None,
    track_safe_set: bool = False,
) -> list[RunLog]:
    """Run independent repetitions (fresh env + agent per seed)."""
    if n_repetitions < 1:
        raise ValueError(f"n_repetitions must be >= 1, got {n_repetitions}")
    logs = []
    for seed in range(n_repetitions):
        env, agent = make_env_and_agent(seed)
        logs.append(
            run_agent(
                env, agent, n_periods, schedule=schedule,
                track_safe_set=track_safe_set,
            )
        )
    return logs


def band(logs: Sequence[RunLog], field_name: str,
         low: float = 10.0, high: float = 90.0):
    """Median and percentile band of one series across repetitions.

    This is the visual convention of the paper's plots (median with
    10th/90th percentile shading).

    Raises
    ------
    ValueError
        If ``logs`` is empty or the repetition logs have unequal
        lengths (the error names the offending log).
    """
    if not logs:
        raise ValueError(
            f"band('{field_name}') needs at least one run log, got an empty "
            "sequence"
        )
    series = [getattr(log, field_name) for log in logs]
    expected = len(series[0])
    for i, values in enumerate(series[1:], start=1):
        if len(values) != expected:
            raise ValueError(
                f"band('{field_name}'): log {i} has {len(values)} periods "
                f"but log 0 has {expected}; repetitions must be equal-length"
            )
    return percentile_band(np.array(series, dtype=float), low=low, high=high)
