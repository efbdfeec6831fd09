"""Per-round decision records for EdgeBOL runs.

A :class:`DecisionTracer` attaches to an :class:`~repro.core.edgebol.EdgeBOL`
agent (``agent.attach_tracer(tracer)``) and assembles one structured
record per orchestration period, answering *why* the learner picked the
control it picked:

* how large the certified safe set was (count and grid fraction);
* how much eq.-8 slack the chosen control had on each constraint
  (delay/mAP LCB-UCB margins, via
  :meth:`~repro.core.safeset.SafeSetEstimator.margins_from_batch`);
* what safety cost the acquisition paid — the gap between the chosen
  safe LCB and the unconstrained LCB minimiser ("price of safety");
* whether the surrogates' confidence intervals are holding up —
  streaming one-step-ahead z-score coverage per head
  (:class:`~repro.core.diagnostics.RunningCalibration`);
* whether the context distribution drifted
  (:class:`~repro.obs.drift.DriftMonitor`);
* the robustness state inherited from the fault layer (quarantine and
  degraded-mode counters), and regret against an oracle cost when one
  is known.

Everything is computed from the :class:`~repro.core.posterior.PosteriorBatch`
the agent *already evaluated* to make its decision — tracing issues no
extra ``predict`` calls and never touches an RNG, so a traced run's
KPIs are bit-identical to an untraced same-seed run.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.diagnostics import RunningCalibration, standardised_errors
from repro.obs.drift import DriftMonitor
from repro.telemetry import runtime as telemetry

__all__ = ["DecisionTracer", "make_tracer"]


def _finite(value: float) -> "float | None":
    """``float(value)`` or ``None`` when non-finite (JSON-friendly)."""
    value = float(value)
    return value if math.isfinite(value) else None


class DecisionTracer:
    """Assemble and emit one decision record per orchestration period.

    Parameters
    ----------
    agent:
        The :class:`~repro.core.edgebol.EdgeBOL` instance being traced
        (the tracer reads its safe-set estimator, surrogates and
        constraints; it never mutates the agent).
    oracle_cost:
        Per-period cost of a clairvoyant constant oracle, when known;
        enables the ``regret`` block of each record.
    calibration_z:
        Interval half-width monitored by the per-head running
        calibration (2.0 matches ``core.diagnostics`` defaults).
    drift:
        Optional preconfigured :class:`DriftMonitor` (a default one is
        created otherwise).
    label:
        Optional ``agent`` field stamped on every record —
        distinguishes co-traced agents (e.g. the per-slice agents of
        the multiservice experiment) sharing one sink.
    """

    def __init__(
        self,
        agent,
        oracle_cost: float | None = None,
        calibration_z: float = 2.0,
        drift: DriftMonitor | None = None,
        label: str | None = None,
    ) -> None:
        """Bind to ``agent`` with fresh calibration/drift state."""
        self.agent = agent
        self.oracle_cost = None if oracle_cost is None else float(oracle_cost)
        self.label = None if label is None else str(label)
        self.drift = drift if drift is not None else DriftMonitor()
        self.calibration = {
            head: RunningCalibration(z=calibration_z)
            for head in agent.head_surrogates()
        }
        self._t = 0
        self._pending: dict | None = None
        self._cumulative_regret = 0.0
        self._emitted = 0
        self._violations = 0
        self._quarantined_rounds = 0
        self._degraded_rounds = 0

    # -- hooks called by EdgeBOL ------------------------------------------

    def on_select(self, context, batch, mask, index: int) -> None:
        """Capture the decision-time evidence of one healthy period.

        Called by :meth:`EdgeBOL.select` after the safe set and the
        acquisition have run, with the period's engine sweep ``batch``,
        the eq.-8 ``mask`` and the chosen grid ``index``.
        """
        agent = self.agent
        mask = np.asarray(mask, dtype=bool)
        safe_size = int(np.count_nonzero(mask))
        grid_size = int(mask.size)
        delay_slack, map_slack = agent._safe_estimator.margins_from_batch(
            batch,
            d_max_s=agent.constraints.d_max_s,
            rho_min=agent.constraints.rho_min,
        )
        lcb = agent.cost_lcb_values(batch)
        best_index = int(np.argmin(lcb))
        chosen_lcb = float(lcb[index])
        best_lcb = float(lcb[best_index])
        context_array = agent._context_array(context)
        predicted = {
            head: (float(batch.mean(head)[index]),
                   float(batch.variance(head)[index]))
            for head in batch.heads
        }
        self._pending = {
            "degraded": False,
            "context": [float(v) for v in context_array],
            "chosen_index": int(index),
            "control": [float(v) for v in batch.joint_grid[index][-4:]],
            "joint_row": np.array(batch.joint_grid[index], dtype=float),
            "safe_set": {
                "size": safe_size,
                "grid": grid_size,
                "fraction": safe_size / grid_size,
            },
            "margins": {
                "delay_slack_s": _finite(delay_slack[index]),
                "map_slack": _finite(map_slack[index]),
            },
            "acquisition": {
                "chosen_lcb": _finite(chosen_lcb),
                "best_lcb": _finite(best_lcb),
                "best_index": best_index,
                "price_of_safety": _finite(chosen_lcb - best_lcb),
            },
            "predicted": predicted,
            "drift": self._drift_record(context_array),
        }

    def on_degraded(self, context) -> None:
        """Capture one degraded (S0-fallback) period.

        No engine sweep exists, so the record carries only the context,
        the forced S0 choice and the drift state.
        """
        agent = self.agent
        context_array = agent._context_array(context)
        self._pending = {
            "degraded": True,
            "context": [float(v) for v in context_array],
            "chosen_index": int(agent.s0_index),
            "control": [
                float(v) for v in agent.control_grid[agent.s0_index]
            ],
            "joint_row": None,
            "safe_set": {
                "size": 1,
                "grid": int(agent.control_grid.shape[0]),
                "fraction": 1.0 / agent.control_grid.shape[0],
            },
            "margins": {"delay_slack_s": None, "map_slack": None},
            "acquisition": None,
            "predicted": {},
            "drift": self._drift_record(context_array),
        }

    def on_observe(self, context, policy, observation, cost: float,
                   quarantine_reason: str | None) -> None:
        """Complete and emit the period's record after feedback arrives."""
        agent = self.agent
        pending = self._pending if self._pending is not None else {
            # select() was bypassed (direct observe in a test): emit a
            # minimal record rather than dropping the period.
            "degraded": False,
            "context": [float(v) for v in agent._context_array(context)],
            "chosen_index": None,
            "control": [float(v) for v in policy.to_array()],
            "joint_row": None,
            "safe_set": None,
            "margins": {"delay_slack_s": None, "map_slack": None},
            "acquisition": None,
            "predicted": {},
            "drift": self._drift_record(agent._context_array(context)),
        }
        self._pending = None
        joint_row = pending.pop("joint_row")
        predicted = pending.pop("predicted")

        delay_s = float(observation.delay_s)
        map_score = float(observation.map_score)
        d_max = float(agent.constraints.d_max_s)
        rho_min = float(agent.constraints.rho_min)
        delay_violation = bool(not (delay_s <= d_max))
        map_violation = bool(not (map_score >= rho_min))
        if delay_violation or map_violation:
            self._violations += 1
        if quarantine_reason is not None:
            self._quarantined_rounds += 1
        if pending["degraded"]:
            self._degraded_rounds += 1

        clean = quarantine_reason is None and not pending["degraded"]
        if clean and joint_row is not None:
            self._update_calibration(
                joint_row, predicted, observation, cost, agent
            )

        regret = None
        if self.oracle_cost is not None:
            instant = _finite(cost)
            if instant is not None:
                instant = max(instant - self.oracle_cost, 0.0)
                self._cumulative_regret += instant
            regret = {
                "instant": instant,
                "cumulative": self._cumulative_regret,
            }

        record = {
            "type": "decision",
            "t": self._t,
            **({"agent": self.label} if self.label is not None else {}),
            # Active numerics mode (dense or sparse): lets
            # `repro report` attribute anomalies to sparse
            # approximation error rather than the learner itself.
            "numerics_mode": getattr(agent, "numerics_mode", None),
            **pending,
            "predicted": {
                head: {"mean": _finite(mu), "std": _finite(math.sqrt(var))}
                for head, (mu, var) in predicted.items()
            },
            "calibration": {
                head: self._clean_snapshot(cal)
                for head, cal in self.calibration.items()
            },
            "gp": {
                head: {
                    "n": int(gp.n_observations),
                    "noise_variance": float(gp.noise_variance),
                    "output_scale": float(gp.kernel.output_scale),
                }
                for head, gp in agent.head_surrogates().items()
            },
            "quarantined": quarantine_reason,
            "outcome": {
                "cost": _finite(cost),
                "delay_s": _finite(delay_s),
                "map_score": _finite(map_score),
                "d_max_s": d_max,
                "rho_min": rho_min,
                "delay_violation": delay_violation,
                "map_violation": map_violation,
            },
            "regret": regret,
            "robustness": agent.robustness_stats(),
        }
        telemetry.emit_record(record)
        self._emitted += 1
        self._t += 1

    # -- internals ---------------------------------------------------------

    def _drift_record(self, context_array: np.ndarray) -> dict:
        result = self.drift.update(context_array)
        return {
            "flag": bool(result["flag"]),
            "score": _finite(result["score"]),
            "dim": result["dim"],
        }

    def _update_calibration(self, joint_row, predicted, observation,
                            cost, agent) -> None:
        """Fold one period's one-step-ahead z-scores into the tallies.

        The posterior moments are the ones captured at select time
        (before the GP update that follows this observation), so the
        score is genuinely predictive; the helper delegates to
        :func:`~repro.core.diagnostics.standardised_errors` with the
        precomputed posterior — no ``predict`` call.
        """
        targets = {
            "cost": float(cost),
            "delay": float(np.clip(observation.delay_s, 0.0,
                                   agent._delay_clip)),
            "map": float(np.clip(observation.map_score, 0.0, 1.0)),
            "server_power": float(observation.server_power_w),
            "bs_power": float(observation.bs_power_w),
        }
        surrogates = agent.head_surrogates()
        for head, (mu, var) in predicted.items():
            target = targets.get(head)
            cal = self.calibration.get(head)
            if target is None or cal is None or not math.isfinite(target):
                continue
            error = standardised_errors(
                surrogates[head],
                joint_row,
                np.array([target]),
                posterior=(np.array([mu]), np.array([var])),
            )[0]
            if math.isfinite(error):
                cal.update(float(error))

    @staticmethod
    def _clean_snapshot(cal: RunningCalibration) -> dict:
        snap = cal.snapshot()
        for key in ("coverage", "error_mean", "error_std"):
            snap[key] = _finite(snap[key])
        return snap

    # -- run-level summary -------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready run-level roll-up for the run log.

        Mirrors what the per-record stream already says, collapsed to
        one dict: period/violation/quarantine/degraded counts, drift
        episodes, final per-head coverage and the cumulative regret
        (``None`` when no oracle cost was supplied).
        """
        return {
            "periods": self._t,
            "records": self._emitted,
            "violations": self._violations,
            "quarantined_rounds": self._quarantined_rounds,
            "degraded_rounds": self._degraded_rounds,
            "drift_episodes": self.drift.episodes,
            "coverage": {
                head: _finite(cal.coverage)
                for head, cal in self.calibration.items()
            },
            "cumulative_regret": (
                self._cumulative_regret
                if self.oracle_cost is not None else None
            ),
        }


def make_tracer(agent, oracle_cost: float | None = None,
                label: str | None = None) -> "DecisionTracer | None":
    """A :class:`DecisionTracer` for ``agent``, or ``None``.

    Returns ``None`` when no telemetry sink is attached (the untraced
    hot path: the agent keeps its ``tracer is None`` fast checks) or
    when the agent does not support tracing (no ``attach_tracer``).
    ``label`` stamps an ``agent`` field on every record, for callers
    tracing several agents into one sink.
    """
    if not telemetry.has_sinks() or not hasattr(agent, "attach_tracer"):
        return None
    return DecisionTracer(agent, oracle_cost=oracle_cost, label=label)
