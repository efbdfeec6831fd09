"""EdgeBOL: contextual, constrained Bayesian online learning.

The paper's primary contribution (Section 5): Gaussian-process surrogate
models of the cost and constraint functions over the joint
context-control space, a confidence-bound safe set (eq. 8), and a
safe-constrained Lower Confidence Bound acquisition (eq. 9) driving the
online loop of Algorithm 1.
"""

from repro.core.alternative import PowerBudgetedEdgeBOL, PowerBudgets
from repro.core.diagnostics import calibration_report, interval_coverage
from repro.core.sparse import greedy_inducing_indices, make_eviction_policy
from repro.core.kernels import Kernel, Matern, RBF
from repro.core.gp import GaussianProcess
from repro.core.likelihood import fit_hyperparameters, log_marginal_likelihood
from repro.core.numerics import (
    NumericalInstabilityError,
    NumericsConfig,
    active_numerics,
    robust_cholesky,
)
from repro.core.posterior import EngineStats, PosteriorBatch, SurrogateEngine
from repro.core.safeset import SafeSetEstimator
from repro.core.acquisition import safe_lcb_index_from_posterior
from repro.core.edgebol import EdgeBOL, EdgeBOLConfig

__all__ = [
    "NumericsConfig",
    "active_numerics",
    "greedy_inducing_indices",
    "make_eviction_policy",
    "EngineStats",
    "PosteriorBatch",
    "SurrogateEngine",
    "safe_lcb_index_from_posterior",
    "Kernel",
    "Matern",
    "RBF",
    "GaussianProcess",
    "NumericalInstabilityError",
    "robust_cholesky",
    "fit_hyperparameters",
    "log_marginal_likelihood",
    "SafeSetEstimator",
    "EdgeBOL",
    "EdgeBOLConfig",
    "PowerBudgetedEdgeBOL",
    "PowerBudgets",
    "calibration_report",
    "interval_coverage",
]
