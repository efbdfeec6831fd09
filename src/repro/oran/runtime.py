"""The event-loop control-plane runtime: one O-RAN plane for 1..N cells.

:class:`FleetRuntime` runs the Fig. 7 loop on top of
:class:`~repro.oran.bus.AsyncMessageBus` for every cell in one process,
sharing one SMO: one bus, one event loop, one A1 policy service
(per-cell policy instances enforced by per-cell xApps), per-cell E2/O1
planes under topic prefixes (``cell003.e2.indication``), one
EdgeBOL-style agent per cell, an optional per-period load harness
(:mod:`repro.oran.load`) and a throttled alert router
(:mod:`repro.oran.alerts`).  A single cell is a one-cell fleet:
``run_agent(..., plane="async")`` drives one through
:meth:`FleetRuntime.cell_period`, and its rows and decision traces are
pinned by committed digests (``tests/test_fleet.py``).

Determinism: cells are stepped in index order, every stage ends on a
``drain()`` barrier, and all randomness lives in the per-cell envs and
agents (seeded from one SeedSequence tree by the caller) — so fleet
results are reproducible and independent of ``--jobs``.  Wall-clock
timing is measured but kept out of result *rows*; it feeds the
control-plane benchmark (``benchmarks/test_perf_control_plane.py``).

Resilience: every fleet owns a
:class:`~repro.oran.supervisor.FleetSupervisor` (inert unless
``supervise=True``) providing snapshot checkpointing, crash/stall
detection with restart policies and a mailbox circuit breaker; a
supervised warm restore replays missed periods through
:meth:`FleetRuntime.cell_period` bit-identically to the uninterrupted
run.  See ``docs/ROBUSTNESS.md`` ("Fleet resilience").
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.oran.a1 import (
    A1Client,
    A1PolicyService,
    A1Termination,
    radio_policy_type,
)
from repro.oran.alerts import AlertRouter, default_rules
from repro.oran.apps import (
    DataCollectorRApp,
    KPIDatabaseXApp,
    PolicyServiceRApp,
    PolicyServiceXApp,
)
from repro.oran.bus import AsyncMessageBus
from repro.oran.e2 import E2Node, E2Termination
from repro.oran.loop import VirtualTimeLoop
from repro.oran.o1 import O1Termination
from repro.oran.supervisor import FleetSupervisor, SupervisorPolicy
from repro.obs.decision import make_tracer
from repro.ran.phy import MAX_MCS
from repro.telemetry import runtime as telemetry
from repro.testbed.config import ControlPolicy, ServiceConstraints
from repro.testbed.env import TestbedObservation

__all__ = ["FleetCell", "FleetResult", "FleetRuntime"]


def _merge_observation(observation, bs_power: float) -> TestbedObservation:
    """Testbed truth with the BS power the control plane delivered.

    Service KPIs reach the agent directly (the "custom interface" of
    Fig. 7); BS power arrives over E2 -> O1 through the collector rApp.
    """
    return TestbedObservation(
        delay_s=observation.delay_s,
        map_score=observation.map_score,
        server_power_w=observation.server_power_w,
        bs_power_w=bs_power,
        gpu_delay_s=observation.gpu_delay_s,
        gpu_utilization=observation.gpu_utilization,
        total_rate_hz=observation.total_rate_hz,
        mean_mcs=observation.mean_mcs,
        offered_load_bps=observation.offered_load_bps,
        per_user_delay_s=observation.per_user_delay_s,
        per_user_rate_hz=observation.per_user_rate_hz,
    )


@dataclass
class FleetResult:
    """Everything one :meth:`FleetRuntime.run` produced.

    ``decisions_per_s`` is wall-clock derived — benchmark material,
    deliberately excluded from experiment rows to preserve sweep
    determinism.  ``partial_cells`` maps cells whose logs are short
    (unsupervised deaths, quarantines) to ``{rows, missed, reason}``;
    ``recovery`` is the supervisor's per-cell summary (restarts,
    snapshots, breaker trips); ``replayed`` counts suppressed
    crash-recovery replays of already-emitted periods (kept out of
    ``decisions`` so throughput numbers stay comparable).
    """

    n_cells: int
    n_periods: int
    logs: dict[str, RunLog]
    decisions: int
    wall_s: float
    alerts: list[dict]
    alert_counts: dict
    alert_counts_by_rule: dict
    mailbox_stats: dict
    loop_steps: int
    decision_summaries: dict = field(default_factory=dict)
    partial_cells: dict = field(default_factory=dict)
    recovery: dict = field(default_factory=dict)
    replayed: int = 0
    supervised: bool = False

    @property
    def decisions_per_s(self) -> float:
        """Sustained control decisions per wall-clock second."""
        return self.decisions / self.wall_s if self.wall_s > 0 else float("inf")

    @property
    def per_cell_decisions_per_s(self) -> float:
        """Aggregate throughput divided by fleet size."""
        return self.decisions_per_s / self.n_cells


class FleetCell:
    """One cell's endpoints on the shared control plane.

    Owns the cell's env + agent, its E2 node / termination, O1
    termination, KPI xApp, data-collector rApp, policy-enforcement
    xApp (filtered to this cell's policy instance against the *shared*
    A1 service) and policy rApp (deploying through the shared
    :class:`~repro.oran.a1.A1Client`).
    """

    def __init__(self, index: int, env, agent, bus: AsyncMessageBus,
                 a1_service: A1PolicyService, a1_client: A1Client,
                 batch_size: int = 1) -> None:
        """Wire the cell's O-RAN endpoints under its topic prefix."""
        # Deferred: repro.experiments eagerly imports the experiment
        # registry, which itself imports this module.
        from repro.experiments.recorder import RunLog

        self.index = index
        self.cell_id = f"cell{index:03d}"
        self.prefix = f"{self.cell_id}."
        self.env = env
        self.agent = agent
        self.constraints = getattr(agent, "constraints", ServiceConstraints())
        self.log = RunLog()
        self._service_policy = (1.0, 1.0)
        self._stage: tuple = ()
        #: Per-period load multipliers (index = period), maintained by
        #: the runtime so crash-recovery replay can re-apply them.
        self._load_trace: list[float] = []

        self.e2_term = E2Termination(bus, prefix=self.prefix)
        self.o1_term = O1Termination(bus, prefix=self.prefix)
        self.e2_node = E2Node(
            node_id=self.cell_id, bus=bus, prefix=self.prefix,
            batch_size=batch_size,
        )
        self.policy_xapp = PolicyServiceXApp(
            a1_service, self.e2_term, policy_id=f"edgebol-{self.cell_id}"
        )
        self.kpi_xapp = KPIDatabaseXApp(
            self.e2_term, self.o1_term, name=f"kpi-{self.cell_id}"
        )
        self.collector = DataCollectorRApp(self.o1_term)
        self.policy_rapp = PolicyServiceRApp(
            a1_client,
            policy_id=f"edgebol-{self.cell_id}",
            on_service_policy=self._set_service_policy,
        )
        self.e2_term.subscribe_kpis(
            subscriber=self.kpi_xapp.name, kpi_names=("bs_power_w",)
        )

    def _set_service_policy(self, resolution: float, gpu_speed: float) -> None:
        self._service_policy = (resolution, gpu_speed)

    @property
    def enforced_policy(self) -> ControlPolicy:
        """Joint control as enforced across this cell's plane."""
        radio = self.e2_node.radio_policy
        resolution, gpu_speed = self._service_policy
        return ControlPolicy(
            resolution=resolution,
            airtime=radio.airtime,
            gpu_speed=gpu_speed,
            mcs_fraction=radio.max_mcs / MAX_MCS,
        )


class FleetRuntime:
    """One or tens of cells, one process, one shared SMO on one event loop.

    Parameters
    ----------
    cells:
        ``(env, agent)`` pairs, one per cell, already seeded by the
        caller (one SeedSequence spawn per cell keeps fleets sweep-
        deterministic).
    load_model:
        Optional :class:`~repro.oran.load.FleetLoadModel` driving each
        cell's offered-load multiplier per period.
    indication_policy, indication_capacity:
        Backpressure configuration of the per-cell ``e2.indication``
        topics (the highest-volume path).
    batch_size:
        E2 indication batch size per cell.
    alert_rules:
        Alert rule set (:func:`repro.oran.alerts.default_rules` by
        default).
    loop_seed:
        Seeds the event loop's tie-breaking; ``None`` (default) is the
        canonical FIFO order.
    supervise:
        Enable the fleet supervisor: periodic snapshots, crash/stall
        recovery with restart policies and the mailbox circuit
        breaker.  Requires ``batch_size == 1`` (replay determinism
        depends on the unbatched indication sequence).
    snapshot_every:
        Checkpoint cadence in periods (shorthand for the policy field;
        mutually exclusive with ``supervisor_policy``).
    supervisor_policy:
        Full :class:`~repro.oran.supervisor.SupervisorPolicy` override.
    trace_rounds_every:
        Cadence (in periods) of per-cell ``fleet.round`` root spans
        while telemetry is recording; untraced periods skip span and
        envelope work entirely, bounding tracing overhead
        (``benchmarks/test_perf_observability.py``).

    While a telemetry sink is attached, every cell-period emits one
    ``type: "kpi"`` record and every raised alert one ``type: "alert"``
    record into the stream (:func:`repro.telemetry.runtime.emit_record`);
    neither touches an RNG, so rows stay bit-identical with or without
    a sink, and with none attached no record is built.
    """

    def __init__(self, cells, load_model=None,
                 indication_policy: str = "block",
                 indication_capacity: int = 64, batch_size: int = 1,
                 alert_rules=None, loop_seed=None, supervise: bool = False,
                 snapshot_every: int | None = None,
                 supervisor_policy: SupervisorPolicy | None = None,
                 trace_rounds_every: int = 1) -> None:
        """Wire the fleet: shared bus, shared A1, per-cell planes.

        Every argument is checked before anything is wired: a rejected
        fleet leaves no subscription tasks behind on an abandoned loop.
        """
        pairs = list(cells)
        if not pairs:
            raise ValueError("a fleet needs at least one (env, agent) cell")
        if load_model is not None and load_model.n_cells != len(pairs):
            raise ValueError(
                f"load model covers {load_model.n_cells} cells but the "
                f"fleet has {len(pairs)}"
            )
        if trace_rounds_every < 1:
            raise ValueError(
                f"trace_rounds_every must be >= 1, got {trace_rounds_every}"
            )
        if supervisor_policy is not None and snapshot_every is not None:
            raise ValueError(
                "pass snapshot_every inside supervisor_policy, not both"
            )
        if supervise and batch_size != 1:
            raise ValueError(
                "supervised fleets require batch_size=1: warm-restore "
                "replay depends on the unbatched indication sequence"
            )
        if supervisor_policy is None:
            supervisor_policy = (
                SupervisorPolicy(snapshot_every=int(snapshot_every))
                if snapshot_every is not None else SupervisorPolicy()
            )
        self.loop = VirtualTimeLoop(seed=loop_seed)
        self.bus = AsyncMessageBus(loop=self.loop)
        self.load_model = load_model
        # Topic bounds and alert rules are validated here too, before
        # the first subscription starts a consumer task.  The
        # fleet-wide alert stream is kept drop-oldest so a flapping
        # cell cannot wedge the plane.
        self.bus.configure_topic(
            "smo.alerts", policy="drop-oldest", capacity=256
        )
        for index in range(len(pairs)):
            self.bus.configure_topic(
                f"cell{index:03d}.e2.indication",
                policy=indication_policy,
                capacity=indication_capacity,
            )
        self.alert_router = AlertRouter(
            alert_rules if alert_rules is not None else default_rules(),
            bus=self.bus,
            topic="smo.alerts",
        )

        # Shared SMO side: one A1 policy service for the whole fleet,
        # served over the bus, plus the alert stream's subscriber.
        self.a1_service = A1PolicyService()
        self.a1_service.register_type(radio_policy_type())
        self.a1_term = A1Termination(self.bus, self.a1_service)
        self.a1_client = A1Client(self.bus)
        self.bus_alerts: list[dict] = []
        self.bus.subscribe("smo.alerts", self.bus_alerts.append)
        self.cells = [
            FleetCell(index, env, agent, self.bus, self.a1_service,
                      self.a1_client, batch_size=batch_size)
            for index, (env, agent) in enumerate(pairs)
        ]
        self.decisions = 0
        self.replayed = 0
        self.trace_rounds_every = int(trace_rounds_every)
        self.supervisor = FleetSupervisor(
            self, policy=supervisor_policy, enabled=bool(supervise)
        )
        # Deliver subscriptions before the first period.
        self.bus.drain()

    @property
    def n_cells(self) -> int:
        """Fleet size."""
        return len(self.cells)

    def _alert_sample(self, cell: FleetCell, t: int, merged,
                      cost: float) -> dict:
        """One per-cell-period KPI sample for the alert router."""
        return {
            "cell": cell.cell_id,
            "t": t,
            "delay_s": merged.delay_s,
            "map_score": merged.map_score,
            "d_max_s": cell.constraints.d_max_s,
            "rho_min": cell.constraints.rho_min,
            "cost": cost,
            "degraded": bool(getattr(cell.agent, "degraded", False)),
        }

    def _kpi_record(self, cell: FleetCell, t: int, merged,
                    cost: float) -> dict:
        """One ``type: "kpi"`` metrics record for a finished cell-period.

        The fixed-max-power baseline is derived once per cell from its
        testbed config (deterministic, no RNG) so the metric store's
        energy ledger can account savings without re-opening the env.
        """
        if not hasattr(cell, "_baseline_power_w"):
            config = getattr(cell.env, "config", None)
            if config is not None:
                from repro.fleetobs.ledger import fixed_max_baseline_w

                cell._baseline_power_w = fixed_max_baseline_w(config)
            else:
                cell._baseline_power_w = None
        baseline = cell._baseline_power_w
        return {
            "type": "kpi",
            "cell": cell.cell_id,
            "t": t,
            "cost": float(cost),
            "delay_s": float(merged.delay_s),
            "map_score": float(merged.map_score),
            "server_power_w": float(merged.server_power_w),
            "bs_power_w": float(merged.bs_power_w),
            "d_max_s": float(cell.constraints.d_max_s),
            "rho_min": float(cell.constraints.rho_min),
            "delay_violation": int(merged.delay_s > cell.constraints.d_max_s),
            "map_violation": int(merged.map_score < cell.constraints.rho_min),
            "baseline_power_w": baseline,
            "degraded": bool(getattr(cell.agent, "degraded", False)),
        }

    def _emit_kpis(self, cell: FleetCell, t: int, merged,
                   cost: float) -> None:
        """Stream the period's KPI record while a sink keeps KPIs."""
        if telemetry.has_sinks("kpi"):
            telemetry.emit_record(self._kpi_record(cell, t, merged, cost))

    def _set_cell_load(self, cell: FleetCell, t: int) -> None:
        """Re-apply the load multiplier period ``t`` ran under (replay)."""
        trace = cell._load_trace
        if trace:
            cell.env.set_load_multiplier(trace[min(t, len(trace) - 1)])

    def cell_period(self, cell: FleetCell, t: int, fresh: bool = True):
        """One full period for a *single* cell.

        Runs the same select → deploy → actuate → merge → learn
        sequence as :meth:`run_period`, with drain barriers at the same
        two synchronisation points — per-cell message flows are
        independent (per-cell topic prefixes, per-cell A1 policy
        instances, env-local RNGs), so running one cell alone is
        bit-identical to its slice of the batched fleet period.  It is
        the supervisor's replay path and the whole period of a
        one-cell fleet (``run_agent(..., plane="async")``).
        ``fresh=False`` marks a period the uninterrupted run already
        emitted: the agent/tracer/log all advance identically, but the
        alert router is skipped (its state survived the crash on the
        shared runtime) and the work is counted as ``replayed`` rather
        than ``decisions``.

        The period's row goes to ``cell.log``.  A fresh period's alert
        publish is still in flight; the caller drains the bus after its
        last period.
        """
        snr = float(np.mean(cell.env.current_snrs_db))
        context = cell.env.observe_context()
        decision = cell.agent.select(context)
        cell.policy_rapp.deploy(decision)
        self.bus.drain()
        enforced = cell.enforced_policy
        observation = cell.env.step(enforced)
        self.supervisor.maybe_flood(cell, t)
        cell.e2_node.report_kpis({"bs_power_w": observation.bs_power_w})
        self.bus.drain()
        collected = cell.collector.latest_kpis
        bs_power = collected.get("bs_power_w", observation.bs_power_w)
        merged = _merge_observation(observation, bs_power)
        cost = cell.agent.observe(context, enforced, merged)
        cell.log.append(
            cost=cost,
            policy=enforced,
            observation=merged,
            safe_set_size=getattr(cell.agent, "last_safe_set_size", None),
            snr_db=snr,
            d_max_s=cell.constraints.d_max_s,
            rho_min=cell.constraints.rho_min,
        )
        # A replay's record is dropped: the supervisor replays under
        # telemetry.suppress().
        self._emit_kpis(cell, t, merged, cost)
        if fresh:
            self.decisions += 1
            telemetry.inc("fleet.decisions")
            self.alert_router.process(self._alert_sample(cell, t, merged, cost))
        else:
            self.replayed += 1
        cell._stage = ()

    def _shed_period(self, cell: FleetCell, t: int) -> None:
        """One circuit-breaker-shed period: S0 degraded service, no bus.

        While the cell's mailbox breaker is open the cell keeps serving
        — on the paper's safe fallback S0 via the agent's degraded
        path — but stays off the control plane entirely: no A1 round
        trip, no KPI indications, direct env actuation.  Rows keep
        flowing (no loss), explicitly marked degraded for the alert
        router.
        """
        snr = float(np.mean(cell.env.current_snrs_db))
        context = cell.env.observe_context()
        policy = cell.agent._degraded_select(None, context)
        observation = cell.env.step(policy)
        cost = cell.agent.observe(context, policy, observation)
        cell.log.append(
            cost=cost,
            policy=policy,
            observation=observation,
            safe_set_size=getattr(cell.agent, "last_safe_set_size", None),
            snr_db=snr,
            d_max_s=cell.constraints.d_max_s,
            rho_min=cell.constraints.rho_min,
        )
        self._emit_kpis(cell, t, observation, cost)
        self.decisions += 1
        telemetry.inc("fleet.decisions")
        sample = self._alert_sample(cell, t, observation, cost)
        sample["degraded"] = True
        self.alert_router.process(sample)

    def run_period(self, t: int) -> None:
        """One fleet-wide orchestration period (three drained stages).

        The supervisor opens the period (executing due restarts and
        drawing fault decisions) and hands back the cells that run the
        normal batched stages plus the breaker-shed cells served via
        :meth:`_shed_period`; it closes the period with breaker
        evaluation and due checkpoints.  Without supervision or a fault
        plan every cell is active and the stage sequence is exactly the
        legacy one.
        """
        active, shed = self.supervisor.begin_period(t)

        # Causal tracing: on this period's sampling cadence every cell
        # gets a `fleet.round` root span whose context each stage slice
        # runs under, so the round's bus hops stitch into one tree (see
        # repro.fleetobs.tracing).  A sink that keeps spans turns them
        # on for sampled periods only — interior spans (env.step, solver) and
        # counters then cost nothing on the other periods, which is
        # what keeps the metrics-store overhead inside its budget
        # (benchmarks/test_perf_observability.py).  An outer whole-run
        # --telemetry scope is respected and never toggled.
        sampled = t % self.trace_rounds_every == 0
        toggled = False
        if sampled and telemetry.has_sinks("span") and not telemetry.enabled():
            telemetry.enable()
            toggled = True
        rounds = None
        if telemetry.enabled() and sampled:
            from repro.fleetobs.tracing import RoundTracer

            rounds = RoundTracer()
        try:
            self._run_period_stages(t, active, shed, rounds)
        finally:
            if toggled:
                telemetry.disable()

    def _run_period_stages(self, t: int, active, shed, rounds) -> None:
        """The four drained stages of one period (tracing already set up)."""

        def _scope(cell):
            return rounds.stage(cell.cell_id) if rounds else nullcontext()

        # Stage 1 — decide and deploy: every cell selects, its rApp
        # publishes the A1 request; control propagates A1 -> xApp ->
        # E2 control through the mailboxes at the drain barrier.
        for cell in active:
            if rounds:
                rounds.begin(cell.cell_id, t)
            with _scope(cell):
                snr = float(np.mean(cell.env.current_snrs_db))
                context = cell.env.observe_context()
                decision = cell.agent.select(context)
                cell._stage = (snr, context, decision)
                cell.policy_rapp.deploy(decision)
        self.bus.drain()

        # Stage 2 — actuate and measure: each cell's testbed runs one
        # period under its enforced policy; KPI indications flow
        # E2 -> O1 at the barrier.
        for cell in active:
            with _scope(cell):
                enforced = cell.enforced_policy
                observation = cell.env.step(enforced)
                self.supervisor.maybe_flood(cell, t)
                cell.e2_node.report_kpis(
                    {"bs_power_w": observation.bs_power_w}
                )
                cell._stage = cell._stage + (enforced, observation)
        self.bus.drain()

        # Stage 3 — learn, log and alert.
        for cell in active:
            with _scope(cell):
                snr, context, _decision, enforced, observation = cell._stage
                collected = cell.collector.latest_kpis
                bs_power = collected.get("bs_power_w", observation.bs_power_w)
                merged = _merge_observation(observation, bs_power)
                cost = cell.agent.observe(context, enforced, merged)
                cell.log.append(
                    cost=cost,
                    policy=enforced,
                    observation=merged,
                    safe_set_size=getattr(
                        cell.agent, "last_safe_set_size", None
                    ),
                    snr_db=snr,
                    d_max_s=cell.constraints.d_max_s,
                    rho_min=cell.constraints.rho_min,
                )
                self._emit_kpis(cell, t, merged, cost)
                self.decisions += 1
                telemetry.inc("fleet.decisions")
                self.alert_router.process(
                    self._alert_sample(cell, t, merged, cost)
                )
                cell._stage = ()
            if rounds:
                rounds.end(cell.cell_id)
            self.supervisor.heartbeat(cell, t)

        # Shed cells: S0 degraded service off the bus.
        for cell in shed:
            self._shed_period(cell, t)
            self.supervisor.heartbeat(cell, t)

        # Stage 4 — load harness: next period's offered load.  The load
        # model steps for the whole fleet (its RNG stream must not
        # depend on which cells are up) and the per-cell trace records
        # the multiplier so recovery replay can re-apply it.
        if self.load_model is not None:
            multipliers = self.load_model.step()
            for cell, multiplier in zip(self.cells, multipliers):
                multiplier = float(multiplier)
                cell._load_trace.append(multiplier)
                cell.env.set_load_multiplier(multiplier)
        self.bus.drain()
        self.supervisor.end_period(t)

    def run(self, n_periods: int) -> FleetResult:
        """Run the fleet for ``n_periods``; returns the fleet result.

        With a telemetry sink attached, every cell's agent is traced
        for the run with the cell id as the record's ``agent`` label,
        so one sink collects the whole fleet's decision stream.  The
        run closes the fleet's bus
        (:meth:`~repro.oran.bus.AsyncMessageBus.close`): a runtime runs
        once.
        """
        if n_periods < 0:
            raise ValueError(f"n_periods must be non-negative, got {n_periods}")
        tracers: list[tuple[FleetCell, object]] = []
        for cell in self.cells:
            tracer = make_tracer(cell.agent, label=cell.cell_id)
            if tracer is not None:
                cell.agent.attach_tracer(tracer)
                tracers.append((cell, tracer))
            if not cell._load_trace:
                cell._load_trace.append(
                    float(cell.env.service_model.load_multiplier)
                )
        self.supervisor.start()
        started = time.perf_counter()
        try:
            for t in range(n_periods):
                self.run_period(t)
            self.supervisor.finish(n_periods)
            wall_s = time.perf_counter() - started
            for cell in self.cells:
                # Ship any partially filled indication batches.
                cell.e2_node.flush()
            self.bus.drain()
        finally:
            for cell, _tracer in tracers:
                cell.agent.attach_tracer(None)
            # The run is the fleet's whole life: its bus is done.
            self.bus.close()
        partial = self.supervisor.partial_cells(n_periods)
        for cell in self.cells:
            rows = len(cell.log)
            entry = partial.get(cell.cell_id)
            complete = entry is None and rows == n_periods
            accounted = (
                entry is not None
                and rows == entry["rows"]
                and rows + entry["missed"] == n_periods
            )
            if not (complete or accounted):
                raise RuntimeError(
                    f"fleet accounting broken for {cell.cell_id}: "
                    f"{rows} rows over {n_periods} periods, "
                    f"partial entry {entry!r}"
                )
        return FleetResult(
            n_cells=self.n_cells,
            n_periods=n_periods,
            logs={cell.cell_id: cell.log for cell in self.cells},
            decisions=self.decisions,
            wall_s=wall_s,
            alerts=[alert.to_record() for alert in self.alert_router.history],
            alert_counts=self.alert_router.counts(),
            alert_counts_by_rule=self.alert_router.counts_by_rule(),
            mailbox_stats=self.bus.mailbox_stats(),
            loop_steps=self.loop.steps,
            decision_summaries={
                cell.cell_id: tracer.summary() for cell, tracer in tracers
            },
            partial_cells=partial,
            recovery=self.supervisor.report(),
            replayed=self.replayed,
            supervised=self.supervisor.enabled,
        )
