"""Covariance functions for the GP surrogates.

The paper selects a *stationary, anisotropic* kernel — the Matérn family
with per-dimension lengthscales (Automatic Relevance Determination) —
and particularises nu = 3/2 (eq. 6), meaning the learned functions are
at-least-once differentiable.  An RBF kernel is provided for the kernel
ablation study.

All kernels expose their hyperparameters as a flat log-vector so the
marginal-likelihood optimiser can treat them generically.
"""

from __future__ import annotations

import abc
from typing import NamedTuple

import numpy as np

from repro.utils.validation import check_positive

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)


class ScaledPoints(NamedTuple):
    """Points divided by a kernel's lengthscales (see :meth:`Kernel.scale`)."""

    #: ``(n, d)`` points, each coordinate over its lengthscale.
    points: np.ndarray
    #: ``(n,)`` squared Euclidean norms of the rows of ``points``.
    sq_norms: np.ndarray


def _as_2d(x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"inputs must be 1-D or 2-D, got shape {arr.shape}")
    return arr


class Kernel(abc.ABC):
    """Base class: a positive-definite covariance over R^d."""

    def __init__(self, lengthscales, output_scale: float = 1.0) -> None:
        ls = np.asarray(lengthscales, dtype=float).ravel()
        if ls.size == 0:
            raise ValueError("at least one lengthscale is required")
        if np.any(ls <= 0) or not np.all(np.isfinite(ls)):
            raise ValueError(f"lengthscales must be positive finite, got {ls}")
        self.lengthscales = ls
        self.output_scale = check_positive(output_scale, "output_scale")

    @property
    def n_dims(self) -> int:
        """Input dimension ``d`` (one lengthscale per dimension)."""
        return int(self.lengthscales.size)

    def scale(self, y: np.ndarray) -> ScaledPoints:
        """Points divided by the lengthscales, with their squared norms.

        The per-point half of eq. (5).  A :class:`ScaledPoints` is
        accepted wherever the pairwise methods take points, so a fixed
        point set (the engine's joint grid) is scaled once, not on every
        call.  It is only valid while the lengthscales are unchanged.
        """
        ys = _as_2d(y) / self.lengthscales
        if ys.shape[1] != self.n_dims:
            raise ValueError(
                f"inputs must have {self.n_dims} dims, got {ys.shape[1]}"
            )
        return ScaledPoints(ys, np.sum(ys**2, axis=1))

    def _scaled(self, y: np.ndarray | ScaledPoints) -> ScaledPoints:
        return y if isinstance(y, ScaledPoints) else self.scale(y)

    def scaled_distance(
        self, x: np.ndarray | ScaledPoints, y: np.ndarray | ScaledPoints
    ) -> np.ndarray:
        """Anisotropic distance d(z, z') of eq. (5), pairwise.

        Returns an ``(n_x, n_y)`` matrix of
        ``sqrt((z - z')^T L^-2 (z - z'))``.  Either argument may be raw
        points or the :meth:`scale` of them.
        """
        xs, x_sq = self._scaled(x)
        ys, y_sq = self._scaled(y)
        sq = x_sq[:, None] + y_sq[None, :] - 2.0 * (xs @ ys.T)
        return np.sqrt(np.maximum(sq, 0.0))

    def __call__(
        self, x: np.ndarray | ScaledPoints, y: np.ndarray | ScaledPoints
    ) -> np.ndarray:
        """Covariance matrix between two sets of points (raw or scaled)."""
        return self.output_scale * self._correlation(self.scaled_distance(x, y))

    def diag(self, x: np.ndarray) -> np.ndarray:
        """Prior variance at each point (k(z, z))."""
        n = _as_2d(x).shape[0]
        return np.full(n, self.output_scale)

    @abc.abstractmethod
    def _correlation(self, distance: np.ndarray) -> np.ndarray:
        """Correlation as a function of scaled distance (value 1 at 0)."""

    # -- hyperparameter flattening for the LML optimiser ----------------

    def get_log_params(self) -> np.ndarray:
        """Hyperparameters as [log lengthscales..., log output_scale]."""
        return np.concatenate(
            [np.log(self.lengthscales), [np.log(self.output_scale)]]
        )

    def with_log_params(self, log_params: np.ndarray) -> "Kernel":
        """New kernel of the same family with the given log-parameters."""
        params = np.asarray(log_params, dtype=float).ravel()
        if params.size != self.n_dims + 1:
            raise ValueError(
                f"expected {self.n_dims + 1} log-params, got {params.size}"
            )
        return type(self)(
            lengthscales=np.exp(params[:-1]), output_scale=float(np.exp(params[-1]))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(lengthscales={np.round(self.lengthscales, 4)}, "
            f"output_scale={self.output_scale:.4g})"
        )


class Matern(Kernel):
    """Anisotropic Matérn kernel, nu in {1/2, 3/2, 5/2}.

    ``nu=1.5`` reproduces eq. (6) of the paper:
    ``k(z, z') = s * (1 + sqrt(3) d) exp(-sqrt(3) d)``.
    """

    def __init__(self, lengthscales, output_scale: float = 1.0, nu: float = 1.5) -> None:
        if nu not in (0.5, 1.5, 2.5):
            raise ValueError(f"nu must be one of 0.5, 1.5, 2.5; got {nu}")
        super().__init__(lengthscales, output_scale)
        self.nu = float(nu)

    def _correlation(self, distance: np.ndarray) -> np.ndarray:
        if self.nu == 0.5:
            return np.exp(-distance)
        if self.nu == 1.5:
            scaled = _SQRT3 * distance
            return (1.0 + scaled) * np.exp(-scaled)
        scaled = _SQRT5 * distance
        return (1.0 + scaled + scaled**2 / 3.0) * np.exp(-scaled)

    def with_log_params(self, log_params: np.ndarray) -> "Matern":
        """New Matérn kernel with the given log-parameters and the same nu."""
        params = np.asarray(log_params, dtype=float).ravel()
        if params.size != self.n_dims + 1:
            raise ValueError(
                f"expected {self.n_dims + 1} log-params, got {params.size}"
            )
        return Matern(
            lengthscales=np.exp(params[:-1]),
            output_scale=float(np.exp(params[-1])),
            nu=self.nu,
        )


class RBF(Kernel):
    """Anisotropic squared-exponential kernel (ablation alternative)."""

    def _correlation(self, distance: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * distance**2)

