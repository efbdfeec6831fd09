"""The benchmark's workloads: one EdgeBOL episode each, driven as a closed loop.

An episode builds its simulation from the workload seed (that is the
set-up the benchmark times), then runs a fixed number of orchestration
periods, each starting only when the previous one has returned, as in
Algorithm 1.  A single-cell period is context -> ``EdgeBOL.select`` ->
``env.step`` -> ``EdgeBOL.observe`` on the direct plane; a fleet period
is one ``FleetRuntime.run_period`` round over every cell on the async
O-RAN plane.  The same seed always yields the same rows, which is what
lets the benchmark compare episodes (and traced against untraced runs)
by digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from repro.core import EdgeBOL
from repro.oran.load import FleetLoadModel
from repro.oran.runtime import FleetRuntime
from repro.testbed.config import CostWeights, ServiceConstraints, TestbedConfig
from repro.testbed.scenarios import dynamic_scenario, static_scenario
from repro.utils.rng import seed_tree

#: Agreement required between ``EdgeBOL.posterior`` and each head's
#: ``GaussianProcess.predict`` on the final context's joint grid, as a
#: share of the head's prior scale (prior std for means, prior variance
#: for variances).  The cached engine differs from a cold solve only in
#: the last bits of its blocked extensions.
POSTERIOR_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One benchmark input: scenario, scale and transport plane.

    ``scenario`` is ``"static"`` or ``"dynamic"`` for one cell on the
    direct plane, or ``"fleet"`` for ``cells`` supervised static cells on
    the async plane with diurnal load, checkpointed every
    ``snapshot_every`` periods.  ``periods`` is the fixed episode length; a
    period makes one decision per cell.
    """

    name: str
    scenario: str
    periods: int
    levels: int = 11
    cells: int = 1
    snapshot_every: int = 10

    def smoke(self) -> "Workload":
        """The same workload at test scale: 3-level grid, few periods."""
        return replace(self, periods=6, levels=3, cells=min(self.cells, 2),
                       snapshot_every=2)

    def build(self, seed: int):
        """A fresh simulation of this workload for ``seed``."""
        if self.scenario == "fleet":
            return FleetSim(self, seed)
        return CellSim(self, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("static-paper", "static", periods=150),
        Workload("dynamic-paper", "dynamic", periods=150),
        Workload("fleet-supervised", "fleet", periods=100, levels=5,
                 cells=16, snapshot_every=10),
    )
}


#: Which per-layer metric should move which end-to-end metric, on which
#: workload (and where the prediction is no change).
LAYER_EFFECTS = [
    {"layers": ["engine.posterior.*", "engine.extensions"],
     "moves": ["period_ms_p50", "periods_per_s"], "on": ["static-paper"],
     "unchanged_on": ["fleet-supervised"]},
    {"layers": ["engine.rebuilds", "engine.cache_mb_computed",
                "engine.lru_evictions"],
     "moves": ["period_ms_p95", "peak_rss_mb"], "on": ["dynamic-paper"]},
    {"layers": ["safeset.*", "acquisition.*", "gp.add.*", "edgebol.* self"],
     "moves": ["period_ms_p50"], "on": ["static-paper"],
     "note": "second-order"},
    {"layers": ["env.step.*", "service.steady_state.*", "queueing.solve.*",
                "mac.allocate.*", "bus.drain.*", "oran.*"],
     "moves": ["periods_per_s"], "on": ["fleet-supervised"],
     "unchanged_on": ["static-paper", "dynamic-paper"]},
    {"layers": ["state.*"], "moves": ["periods_per_s", "peak_rss_mb"],
     "on": ["fleet-supervised"],
     "unchanged_on": ["static-paper", "dynamic-paper"]},
    {"layers": ["gp.jitter_retries", "degraded S0 periods"],
     "moves": ["failed_rate"], "on": ["static-paper", "dynamic-paper",
                                      "fleet-supervised"]},
]


def _digest(columns) -> str:
    """Order-sensitive sha256 over float64 columns (bitwise row identity)."""
    h = hashlib.sha256()
    for column in columns:
        h.update(np.asarray(column, dtype=np.float64).tobytes())
    return h.hexdigest()


def _engine_counters(agents, grid_points: int) -> dict:
    """Posterior-engine and GP-ladder counters summed over agents."""
    totals = dict.fromkeys(
        ("kernel_evals", "extensions", "rebuilds", "cache_hits",
         "lru_evictions"), 0)
    contexts = cache_bytes = jitter = fallbacks = 0
    for agent in agents:
        stats = agent.engine.stats.snapshot()
        for key in totals:
            totals[key] += stats[key]
        cached = agent.engine.n_cached_contexts
        contexts += cached
        # contexts x heads x (cross + v) x N x M float64 buffers.
        cache_bytes += (cached * len(agent.engine.heads) * 2
                        * agent.n_observations * grid_points * 8)
        robust = agent.robustness_stats()
        jitter += robust["jitter_retries"]
        fallbacks += robust["rank1_fallbacks"]
    counters = {f"engine.{key}": value for key, value in totals.items()}
    counters["engine.cached_contexts"] = contexts
    counters["engine.cache_mb_computed"] = cache_bytes / 1e6
    counters["gp.jitter_retries"] = jitter
    counters["gp.rank1_fallbacks"] = fallbacks
    return counters


class CellSim:
    """One EdgeBOL agent in one testbed cell on the direct plane."""

    def __init__(self, workload: Workload, seed: int) -> None:
        testbed = TestbedConfig(n_levels=workload.levels)
        self.constraints = ServiceConstraints(0.4, 0.5)
        if workload.scenario == "static":
            self.env = static_scenario(mean_snr_db=35.0, config=testbed,
                                       rng=seed)
        else:
            # The Fig. 13 sweep: 5<->38 dB, one cycle every 50 periods.
            self.env = dynamic_scenario(length=workload.periods,
                                        config=testbed, rng=seed)
        grid = testbed.control_grid()
        self.grid_points = grid.shape[0]
        self.agent = EdgeBOL(grid, self.constraints, CostWeights(1.0, 8.0))
        self.rows: list[tuple] = []
        self.failed = 0
        self.last_context = None

    def run(self, periods: int, period_clock) -> None:
        """Run ``periods`` closed-loop periods, each timed by ``period_clock``."""
        env, agent = self.env, self.agent
        for t in range(periods):
            degraded_before = agent.robustness_stats()["degraded_periods"]
            with period_clock(t):
                context = env.observe_context()
                policy = agent.select(context)
                observation = env.step(policy)
                cost = agent.observe(context, policy, observation)
            if agent.robustness_stats()["degraded_periods"] > degraded_before:
                self.failed += 1
            self.last_context = context
            self.rows.append((
                cost, observation.delay_s, observation.map_score,
                observation.server_power_w, observation.bs_power_w,
                agent.last_safe_set_size, *policy.to_array(),
                *context.to_array(max_users=agent.max_users),
            ))

    def outcome(self) -> dict:
        """Rows digest, eq.-1 tail cost, eq.-8 violations, |S_t| and failures."""
        rows = np.array(self.rows, dtype=float).reshape(len(self.rows), -1)
        cost, delay, map_score = rows[:, 0], rows[:, 1], rows[:, 2]
        violations = (delay > self.constraints.d_max_s) | (
            map_score < self.constraints.rho_min)
        return {
            "rows": len(self.rows),
            "digest": _digest(rows.T),
            "tail_cost": float(np.mean(cost[-max(1, len(cost) // 4):])),
            "violations": int(np.count_nonzero(violations)),
            "nan_costs": int(np.count_nonzero(np.isnan(cost))),
            "safe_set_mean": float(np.mean(rows[:, 5])),
            "failed": self.failed,
        }

    def counters(self) -> dict:
        return _engine_counters([self.agent], self.grid_points)

    def posterior_error(self) -> float:
        """Worst engine-vs-``predict`` gap on the final context's grid.

        Returned as a share of each head's prior scale; compare it with
        :data:`POSTERIOR_RTOL`.
        """
        batch = self.agent.posterior(self.last_context)
        worst = 0.0
        for name, gp in self.agent.head_surrogates().items():
            mean, variance = gp.predict(batch.joint_grid)
            scale = float(gp.kernel.diag(batch.joint_grid[:1])[0])
            worst = max(
                worst,
                float(np.max(np.abs(batch.mean(name) - mean))) / np.sqrt(scale),
                float(np.max(np.abs(batch.variance(name) - variance))) / scale,
            )
        return worst


class FleetSim:
    """A supervised ``FleetRuntime`` of static cells on the async plane.

    Built like the registered ``fleet`` experiment: one seed-tree node
    per cell environment plus one for the diurnal load model.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        testbed = TestbedConfig(n_levels=workload.levels)
        grid = testbed.control_grid()
        self.grid_points = grid.shape[0]
        rngs = seed_tree(seed, workload.cells + 1)
        cells = [
            (static_scenario(rng=rngs[i], config=testbed),
             EdgeBOL(grid, ServiceConstraints(), CostWeights(1.0, 1.0)))
            for i in range(workload.cells)
        ]
        self.runtime = FleetRuntime(
            cells,
            load_model=FleetLoadModel(workload.cells, profile="diurnal",
                                      seed=rngs[workload.cells]),
            supervise=True,
            snapshot_every=workload.snapshot_every,
        )
        self.result = None
        self.periods = 0

    def run(self, periods: int, period_clock) -> None:
        """Run the fleet, timing each ``run_period`` round."""
        run_period = self.runtime.run_period

        def timed_round(t: int) -> None:
            with period_clock(t):
                run_period(t)

        # Instance attribute: FleetRuntime.run calls self.run_period(t).
        self.runtime.run_period = timed_round
        try:
            self.result = self.runtime.run(periods)
        finally:
            del self.runtime.run_period
        self.periods = periods

    def _agents(self):
        return [cell.agent for cell in self.runtime.cells]

    def outcome(self) -> dict:
        """As :meth:`CellSim.outcome`, over every cell; lost rows fail."""
        logs = list(self.result.logs.values())
        tail = max(1, self.periods // 4)
        columns, tails, sizes = [], [], []
        violations = nan_costs = 0
        for log in logs:
            columns.extend(log.as_dict().values())
            cost = np.asarray(log.cost)
            tails.append(cost[-tail:])
            nan_costs += int(np.count_nonzero(np.isnan(cost)))
            violations += int(np.count_nonzero(
                (np.asarray(log.delay_s) > np.asarray(log.d_max_s))
                | (np.asarray(log.map_score) < np.asarray(log.rho_min))))
            sizes.extend(log.safe_set_size)
        rows = sum(len(log) for log in logs)
        lost = self.periods * self.runtime.n_cells - rows
        degraded = sum(agent.robustness_stats()["degraded_periods"]
                       for agent in self._agents())
        return {
            "rows": rows,
            "digest": _digest(columns),
            "tail_cost": float(np.mean(np.concatenate(tails))),
            "violations": violations,
            "nan_costs": nan_costs,
            "safe_set_mean": float(np.mean(sizes)),
            "failed": degraded + max(0, lost),
        }

    def counters(self) -> dict:
        counters = _engine_counters(self._agents(), self.grid_points)
        boxes = [s for subs in self.result.mailbox_stats.values() for s in subs]
        for key in ("dropped", "coalesced", "blocked"):
            counters[f"oran.mailbox_{key}"] = sum(s[key] for s in boxes)
        counters["oran.loop_steps_per_decision"] = (
            self.result.loop_steps / max(1, self.result.decisions))
        return counters
