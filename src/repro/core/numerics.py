"""Robust numerical primitives and the numerics mode of the GP stack.

Centralises the degradation ladder for Cholesky factorisation: a bare
attempt first, then escalating diagonal jitter with bounded retries,
and only then a diagnosable :class:`NumericalInstabilityError`.  Both
the online GP (:mod:`repro.core.gp`) and the offline marginal-likelihood
fit (:mod:`repro.core.likelihood`) factor through here, so a
near-singular Gram matrix degrades the posterior slightly (jitter)
instead of killing the run — the paper's §5 "Practical Issues" stance
that the learner must survive numerical adversity.

All GP linear algebra is dense numpy/scipy.  The one numerics choice a
run makes is whether each GP head keeps every observation (``dense``,
the default) or a bounded inducing subset (``sparse``, see
:mod:`repro.core.sparse`).  :class:`NumericsConfig` describes that
choice; it is resolved from the environment variables below, then from
the dense defaults.  The environment is the only way to select a mode:
it is what carries a CLI ``--numerics`` choice into sweep worker
processes, so the mode a store key names is the mode every worker ran.
The config is read once per agent, store key or sweep, never per kernel
call.

Environment variables
---------------------

``REPRO_SPARSE_GP``
    ``1``/``true`` enables the inducing-subset sparse mode (observation
    budget per GP head).
``REPRO_GP_BUDGET``
    Sparse-mode observation budget (default 256).

See ``docs/NUMERICS.md`` for the full selection and trade-off guide.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cholesky

from repro.telemetry import runtime as telemetry

__all__ = [
    "NumericalInstabilityError",
    "robust_cholesky",
    "MAX_JITTER_RETRIES",
    "BASE_JITTER_REL",
    "NumericsConfig",
    "active_numerics",
    "numerics_env",
    "ENV_SPARSE",
    "ENV_BUDGET",
]

#: Bounded retry budget of the jitter escalation ladder.
MAX_JITTER_RETRIES = 4

#: First jitter level, relative to the mean Gram diagonal.
BASE_JITTER_REL = 1e-10

#: Environment variable enabling the sparse observation-budget mode.
ENV_SPARSE = "REPRO_SPARSE_GP"
#: Environment variable overriding the sparse observation budget.
ENV_BUDGET = "REPRO_GP_BUDGET"

#: Values of a boolean environment variable that count as "on".
_TRUTHY = frozenset({"1", "true", "yes", "on"})


class NumericalInstabilityError(RuntimeError):
    """Cholesky factorisation failed despite bounded jitter escalation.

    Raised with the matrix size, the last jitter level attempted and the
    retry count, so a failing run log identifies *which* surrogate
    collapsed and how hard recovery was tried.  Callers (e.g.
    :class:`~repro.core.edgebol.EdgeBOL`) treat this as "surrogate
    unavailable" and degrade to a safe policy rather than crash.
    """


def robust_cholesky(
    gram: np.ndarray,
    *,
    max_retries: int = MAX_JITTER_RETRIES,
    fault_hook=None,
    site: str = "cholesky",
) -> tuple[np.ndarray, float, int]:
    """Lower Cholesky factor of ``gram`` with escalating diagonal jitter.

    Parameters
    ----------
    gram:
        Symmetric positive-(semi)definite matrix, noise already added.
    max_retries:
        Jittered attempts after the bare one (bounded ladder).
    fault_hook:
        Optional ``hook(site, attempt)`` invoked before every attempt;
        the fault-injection subsystem uses it to force
        ``numpy.linalg.LinAlgError`` deterministically
        (see :mod:`repro.faults`).
    site:
        Label for the hook and the raised error (e.g. ``"refactorize"``).

    Returns
    -------
    (chol, jitter, retries):
        The factor, the jitter level that succeeded (0.0 for the bare
        attempt) and how many retries were needed.

    Raises
    ------
    NumericalInstabilityError
        When every attempt fails; chains the final ``LinAlgError``.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    diag_scale = float(np.mean(np.diag(gram))) if gram.size else 1.0
    if not np.isfinite(diag_scale) or diag_scale <= 0.0:
        diag_scale = 1.0
    jitter = 0.0
    last_error: Exception | None = None
    for attempt in range(max_retries + 1):
        try:
            if fault_hook is not None:
                fault_hook(site, attempt)
            target = gram
            if jitter > 0.0:
                target = gram.copy()
                target[np.diag_indices_from(target)] += jitter
            chol = cholesky(target, lower=True)
        except np.linalg.LinAlgError as exc:
            last_error = exc
            telemetry.inc("core.gp.jitter_retries")
            jitter = diag_scale * BASE_JITTER_REL if jitter == 0.0 else jitter * 100.0
            continue
        return chol, jitter, attempt
    raise NumericalInstabilityError(
        f"Cholesky factorisation of a {gram.shape[0]}x{gram.shape[1]} Gram "
        f"matrix failed at site '{site}' after {max_retries} jittered "
        f"retries (final jitter {jitter:.3e})"
    ) from last_error


# -- numerics-mode configuration ----------------------------------------


@dataclass(frozen=True)
class NumericsConfig:
    """Process-level description of the GP numerics mode.

    Attributes
    ----------
    sparse:
        Bound every GP head to ``sparse_budget`` retained observations,
        evicting via the inducing-subset policy of
        :mod:`repro.core.sparse` — per-period cost stays flat as the
        nominal history grows.
    sparse_budget:
        Observation budget per head in sparse mode.
    sparse_block:
        Eviction granularity (points dropped per eviction are
        amortised over this many periods).
    recent_fraction:
        Fraction of the budget reserved for the newest observations in
        sparse mode (stream continuity under drift).
    """

    sparse: bool = False
    sparse_budget: int = 256
    sparse_block: int = 64
    recent_fraction: float = 0.25

    def __post_init__(self) -> None:
        """Validate the budget, the block and the recent fraction."""
        if self.sparse_budget < 1:
            raise ValueError(
                f"sparse_budget must be >= 1, got {self.sparse_budget}"
            )
        if self.sparse_block < 1:
            raise ValueError(
                f"sparse_block must be >= 1, got {self.sparse_block}"
            )
        if not 0.0 <= self.recent_fraction <= 1.0:
            raise ValueError(
                f"recent_fraction must be in [0, 1], got {self.recent_fraction}"
            )

    @property
    def mode(self) -> str:
        """Canonical mode label: ``dense`` or ``sparse``."""
        return "sparse" if self.sparse else "dense"

    @classmethod
    def from_mode(cls, mode: str, *,
                  sparse_budget: int | None = None) -> "NumericsConfig":
        """Config from a CLI-style mode label (``dense`` or ``sparse``)."""
        if mode not in ("dense", "sparse"):
            raise ValueError(
                f"unknown numerics mode '{mode}' (expected dense or sparse)"
            )
        kwargs = {"sparse": mode == "sparse"}
        if sparse_budget is not None:
            kwargs["sparse_budget"] = sparse_budget
        return cls(**kwargs)

    @classmethod
    def from_env(cls, environ=None) -> "NumericsConfig":
        """Config read from the selection environment variables."""
        environ = os.environ if environ is None else environ
        kwargs = {}
        sparse = environ.get(ENV_SPARSE)
        if sparse is not None:
            kwargs["sparse"] = sparse.strip().lower() in _TRUTHY
        budget = environ.get(ENV_BUDGET)
        if budget:
            try:
                kwargs["sparse_budget"] = int(budget)
            except ValueError:
                raise ValueError(
                    f"{ENV_BUDGET} must be an integer, got {budget!r}"
                ) from None
        return cls(**kwargs)

    def env_vars(self) -> dict:
        """The environment variables that reproduce this config.

        Setting these in ``os.environ`` is how the CLI carries a
        ``--numerics`` selection into sweep worker processes.
        """
        return {
            ENV_SPARSE: "1" if self.sparse else "0",
            ENV_BUDGET: str(self.sparse_budget),
        }


def active_numerics() -> NumericsConfig:
    """The resolved numerics config: environment > defaults."""
    return NumericsConfig.from_env()


def numerics_env(mode: str | None = None, *,
                 sparse_budget: int | None = None,
                 environ=None) -> NumericsConfig:
    """Resolve CLI-style numerics flags and export them to ``environ``.

    ``mode``/``sparse_budget`` override the corresponding
    environment-derived values; an unspecified one keeps its current
    environment (or default) setting.  The resolved config's
    :meth:`NumericsConfig.env_vars` are written back to ``environ``
    (default ``os.environ``) so worker processes inherit the selection,
    and the config is returned.
    """
    environ = os.environ if environ is None else environ
    config = NumericsConfig.from_env(environ)
    if mode is not None:
        config = NumericsConfig.from_mode(
            mode,
            sparse_budget=(
                sparse_budget if sparse_budget is not None
                else config.sparse_budget
            ),
        )
    elif sparse_budget is not None:
        config = replace(config, sparse_budget=sparse_budget)
    environ.update(config.env_vars())
    return config
