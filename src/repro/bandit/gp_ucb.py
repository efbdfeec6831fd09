"""Unconstrained contextual GP bandit with penalty costs (ablation).

Removes EdgeBOL's safe set: a single GP models the *penalised* cost
(raw cost plus a fixed penalty whenever a constraint is violated) and
the contextual LCB picks over the whole grid.  Used by the ablation
bench to quantify what the explicit safe set contributes — typically a
drastic reduction of constraint violations during learning.
"""

from __future__ import annotations

import numpy as np

from repro.core.gp import GaussianProcess
from repro.core.kernels import Matern
from repro.core.posterior import SurrogateEngine
from repro.testbed.config import ControlPolicy, CostWeights, ServiceConstraints
from repro.testbed.context import Context
from repro.testbed.env import TestbedObservation
from repro.utils.validation import check_positive


class PenalizedGPBandit:
    """Contextual GP-LCB without a safe set.

    Parameters mirror :class:`repro.core.edgebol.EdgeBOL` where
    meaningful; the penalty replaces the feasibility machinery.
    """

    def __init__(
        self,
        control_grid: np.ndarray,
        constraints: ServiceConstraints,
        cost_weights: CostWeights,
        beta: float = 2.5,
        penalty: float = 300.0,
        output_scale: float = 60.0**2,
        noise_variance: float = 4.0,
        context_dim: int = Context.dimension(),
        max_users: int = 8,
        lengthscales: np.ndarray | None = None,
    ) -> None:
        grid = np.asarray(control_grid, dtype=float)
        if grid.ndim != 2 or grid.shape[1] != 4:
            raise ValueError(f"control_grid must be (n, 4), got {grid.shape}")
        check_positive(penalty, "penalty")
        self.control_grid = grid
        self.constraints = constraints
        self.cost_weights = cost_weights
        self.beta = check_positive(beta, "beta")
        self.penalty = penalty
        self.context_dim = int(context_dim)
        self.max_users = int(max_users)
        if lengthscales is None:
            lengthscales = np.concatenate(
                [np.full(self.context_dim, 0.5), np.full(4, 1.0)]
            )
        self._gp = GaussianProcess(
            kernel=Matern(lengthscales=lengthscales, output_scale=output_scale),
            noise_variance=noise_variance,
        )
        self._engine = SurrogateEngine(
            {"cost": self._gp}, grid, context_dim=self.context_dim
        )

    @property
    def engine(self) -> SurrogateEngine:
        """The single-head posterior engine (grid hot path)."""
        return self._engine

    def select(self, context: Context) -> ControlPolicy:
        """Global (unconstrained) LCB minimisation."""
        batch = self._engine.posterior(
            context.to_array(max_users=self.max_users)
        )
        mean, std = batch.moments("cost")
        index = int(np.argmin(mean - self.beta * std))
        return ControlPolicy.from_array(self.control_grid[index])

    def observe(
        self,
        context: Context,
        policy: ControlPolicy,
        observation: TestbedObservation,
    ) -> float:
        """Ingest the penalised cost observation."""
        raw = self.cost_weights.cost(
            observation.server_power_w, observation.bs_power_w
        )
        target = raw
        if not self.constraints.satisfied(observation.delay_s, observation.map_score):
            target += self.penalty
        z = np.concatenate(
            [context.to_array(max_users=self.max_users), policy.to_array()]
        )
        self._gp.add(z, target)
        return raw

    def set_constraints(self, constraints: ServiceConstraints) -> None:
        """Update thresholds; historical penalties embed the old ones."""
        self.constraints = constraints
