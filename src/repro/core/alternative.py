"""Alternative problem formulation (Section 4.3 of the paper).

The paper notes its framework also covers the dual problem: "we could
consider power-constrained vBSs or an edge computing power budget by
including the power consumption targets as constraints, while
minimising latency ... The flexibility of our framework allows us to
implement any of these different formulations with minimal changes."

This module implements that variant:

    minimise   delay(c, x)
    subject to p_server(c, x) <= server power budget
               p_bs(c, x)     <= vBS power budget
               mAP(c, x)      >= rho_min

The machinery mirrors Algorithm 1 with the GP roles rotated: the delay
surrogate becomes the objective (LCB-minimised) and the two power
surrogates plus the mAP surrogate define the safe set.  The always-safe
anchor S0 is the *minimum-power* corner — lowest resolution, airtime
and GPU speed — which trivially satisfies any power budget the system
can meet at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.gp import GaussianProcess
from repro.core.kernels import Matern
from repro.core.edgebol import _default_lengthscales, _map_lengthscales
from repro.core.posterior import PosteriorBatch, SurrogateEngine
from repro.testbed.config import ControlPolicy
from repro.testbed.context import Context
from repro.testbed.env import TestbedObservation
from repro.utils.grids import nearest_grid_index
from repro.utils.validation import check_fraction, check_positive


@dataclass(frozen=True)
class PowerBudgets:
    """The power-cap constraint set of the alternative formulation."""

    server_max_w: float
    bs_max_w: float
    rho_min: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.server_max_w, "server_max_w")
        check_positive(self.bs_max_w, "bs_max_w")
        check_fraction(self.rho_min, "rho_min")

    def satisfied(self, server_power_w: float, bs_power_w: float,
                  map_score: float) -> bool:
        return (
            server_power_w <= self.server_max_w
            and bs_power_w <= self.bs_max_w
            and map_score >= self.rho_min
        )


class PowerBudgetedEdgeBOL:
    """Delay-minimising EdgeBOL under power budgets.

    Exposes the standard ``select`` / ``observe`` / ``set_constraints``
    interface so the existing experiment runner drives it unchanged
    (the logged "cost" is the observed delay in seconds).
    """

    def __init__(
        self,
        control_grid: np.ndarray,
        budgets: PowerBudgets,
        beta: float = 2.5,
        context_dim: int = Context.dimension(),
        max_users: int = 8,
        delay_clip_s: float = 3.0,
    ) -> None:
        grid = np.asarray(control_grid, dtype=float)
        if grid.ndim != 2 or grid.shape[1] != 4:
            raise ValueError(f"control_grid must be (n, 4), got {grid.shape}")
        self.control_grid = grid
        self.budgets = budgets
        self.beta = check_positive(beta, "beta")
        self.context_dim = int(context_dim)
        self.max_users = int(max_users)
        self.delay_clip_s = check_positive(delay_clip_s, "delay_clip_s")

        generic = _default_lengthscales(self.context_dim, control_grid=grid)
        map_scales = _map_lengthscales(self.context_dim, control_grid=grid)
        # Objective: delay, optimistic zero prior drives exploration.
        self._delay_gp = GaussianProcess(
            Matern(lengthscales=generic, output_scale=0.15**2),
            noise_variance=4e-4,
        )
        # Constraints: powers with *pessimistic* (high) prior means.
        self._server_gp = GaussianProcess(
            Matern(lengthscales=generic, output_scale=40.0**2),
            noise_variance=6.0,
            prior_mean=1.5 * budgets.server_max_w,
        )
        self._bs_gp = GaussianProcess(
            Matern(lengthscales=generic, output_scale=1.5**2),
            noise_variance=0.01,
            prior_mean=1.5 * budgets.bs_max_w,
        )
        self._map_gp = GaussianProcess(
            Matern(lengthscales=map_scales, output_scale=0.15**2),
            noise_variance=4e-4,
            prior_mean=0.0,
        )
        self._engine = SurrogateEngine(
            {
                "delay": self._delay_gp,
                "server_power": self._server_gp,
                "bs_power": self._bs_gp,
                "map": self._map_gp,
            },
            grid,
            context_dim=self.context_dim,
        )
        # S0: the minimum-power corner.  With rho_min > 0 the corner
        # keeps full resolution (mAP-safe) and cuts airtime/GPU instead.
        resolution = 1.0 if budgets.rho_min > 0 else float(grid[:, 0].min())
        anchor = np.array([
            resolution, float(grid[:, 1].min()), 0.0, 1.0,
        ])
        self._s0_index = nearest_grid_index(grid, anchor)
        self._last_safe_size: int | None = None

    # -- introspection -----------------------------------------------------

    @property
    def last_safe_set_size(self) -> int | None:
        return self._last_safe_size

    @property
    def s0_index(self) -> int:
        return self._s0_index

    @property
    def n_observations(self) -> int:
        return self._delay_gp.n_observations

    @property
    def engine(self) -> SurrogateEngine:
        """The shared multi-head posterior engine (grid hot path)."""
        return self._engine

    # -- online loop ---------------------------------------------------------

    def _context_array(self, context: Context) -> np.ndarray:
        return context.to_array(max_users=self.max_users)

    def _mask_heads(self) -> tuple[str, ...]:
        heads = ("server_power", "bs_power")
        return heads + ("map",) if self.budgets.rho_min > 0 else heads

    def _safe_mask_from_batch(self, batch: PosteriorBatch) -> np.ndarray:
        s_mean, s_std = batch.moments("server_power")
        b_mean, b_std = batch.moments("bs_power")
        mask = (s_mean + self.beta * s_std <= self.budgets.server_max_w) & (
            b_mean + self.beta * b_std <= self.budgets.bs_max_w
        )
        if self.budgets.rho_min > 0:
            q_mean, q_std = batch.moments("map")
            mask &= q_mean - self.beta * q_std >= self.budgets.rho_min
        mask[self._s0_index] = True
        return mask

    def safe_mask(self, context: Context) -> np.ndarray:
        batch = self._engine.posterior(
            self._context_array(context), heads=self._mask_heads()
        )
        return self._safe_mask_from_batch(batch)

    def select(self, context: Context) -> ControlPolicy:
        """Minimise the delay LCB over the power-safe set.

        One engine sweep serves both the constraint bounds and the
        delay acquisition.
        """
        batch = self._engine.posterior(
            self._context_array(context),
            heads=("delay",) + self._mask_heads(),
        )
        mask = self._safe_mask_from_batch(batch)
        self._last_safe_size = int(np.count_nonzero(mask))
        safe_indices = np.nonzero(mask)[0]
        d_mean, d_std = batch.moments("delay")
        lcb = d_mean[safe_indices] - self.beta * d_std[safe_indices]
        index = int(safe_indices[int(np.argmin(lcb))])
        return ControlPolicy.from_array(self.control_grid[index])

    def observe(
        self,
        context: Context,
        policy: ControlPolicy,
        observation: TestbedObservation,
    ) -> float:
        """Ingest KPIs; returns the observed delay (the objective)."""
        z = np.concatenate(
            [context.to_array(max_users=self.max_users), policy.to_array()]
        )
        delay = float(np.clip(observation.delay_s, 0.0, self.delay_clip_s))
        self._delay_gp.add(z, delay)
        self._server_gp.add(z, float(observation.server_power_w))
        self._bs_gp.add(z, float(observation.bs_power_w))
        self._map_gp.add(z, float(np.clip(observation.map_score, 0.0, 1.0)))
        return delay

    def set_constraints(self, budgets: PowerBudgets) -> None:
        """Swap the power budgets; surrogates carry over unchanged."""
        self.budgets = budgets
        self._server_gp.set_prior_mean(1.5 * budgets.server_max_w)
        self._bs_gp.set_prior_mean(1.5 * budgets.bs_max_w)
