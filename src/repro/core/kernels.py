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
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.utils.validation import check_positive

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)

#: Elements per row chunk of :meth:`Kernel.fill`'s elementwise passes:
#: 4 rows of the paper's 14,641-point grid, which with their scratch stay
#: in a 2 MB L2 cache between passes (the fastest of 1-16 rows at k = 50
#: on a 2-vCPU x86-64 host).
_CHUNK_ELEMENTS = 1 << 16


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


def _chunk_work(shape: tuple[int, int]) -> np.ndarray:
    """Scratch for two row chunks of an ``(n_x, n_y)`` kernel block."""
    n_rows, n_cols = shape
    rows = min(n_rows, _CHUNK_ELEMENTS // max(n_cols, 1))
    return np.empty((2, max(rows, 1), n_cols))


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
        xs, ys = self._scaled(x), self._scaled(y)
        out = np.empty((xs.points.shape[0], ys.points.shape[0]))
        for _ in self._distance_chunks(xs, ys, out, _chunk_work(out.shape)):
            pass
        return out

    def __call__(
        self, x: np.ndarray | ScaledPoints, y: np.ndarray | ScaledPoints
    ) -> np.ndarray:
        """Covariance matrix between two sets of points (raw or scaled)."""
        xs, ys = self._scaled(x), self._scaled(y)
        out = np.empty((xs.points.shape[0], ys.points.shape[0]))
        self.fill(xs, ys, [out], [self.output_scale])
        return out

    def fill(
        self,
        x: np.ndarray | ScaledPoints,
        y: np.ndarray | ScaledPoints,
        outs: Sequence[np.ndarray],
        scales: Sequence[float],
    ) -> None:
        """Write ``scale * corr(d(x, y))`` into each ``(out, scale)`` pair.

        The in-place form of :meth:`__call__`, which is its one-output
        case with this kernel's ``output_scale``.  Every ``out`` is a
        C-contiguous ``(n_x, n_y)`` array; the first one hosts the
        distance and correlation passes, so one correlation block serves
        every kernel with this :meth:`correlation_key` (they differ only
        in ``output_scale``).  The elementwise passes run a few rows at a
        time, so they stay in cache; each element sees the same ops in
        the same order whatever the chunking, so the bits do not depend
        on it.
        """
        work = _chunk_work(outs[0].shape)
        for rows, block in self._distance_chunks(
            self._scaled(x), self._scaled(y), outs[0], work
        ):
            self._correlate(block, work[0, : block.shape[0]],
                            work[1, : block.shape[0]])
            for out, scale in zip(outs[1:], scales[1:]):
                np.multiply(block, scale, out=out[rows])
            np.multiply(block, scales[0], out=block)

    def _distance_chunks(self, xs: ScaledPoints, ys: ScaledPoints,
                         out: np.ndarray, work: np.ndarray):
        """Write d(x, y) into ``out``, yielding each finished row chunk.

        The ``xs @ ys.T`` product runs over the whole block at once (a
        BLAS call's bits may depend on its shape); the elementwise rest
        of eq. (5) runs chunk by chunk through ``work[0]``.
        """
        x_pts, x_sq = xs
        y_pts, y_sq = ys
        np.matmul(x_pts, y_pts.T, out=out)
        step = work.shape[1]
        for start in range(0, out.shape[0], step):
            rows = slice(start, start + step)
            block = out[rows]
            tmp = work[0, : block.shape[0]]
            np.multiply(block, 2.0, out=block)
            np.add(x_sq[rows, None], y_sq, out=tmp)
            np.subtract(tmp, block, out=block)
            np.maximum(block, 0.0, out=block)
            np.sqrt(block, out=block)
            yield rows, block

    def correlation_key(self) -> tuple:
        """What the correlation depends on: family and lengthscale bytes.

        Kernels with equal keys differ at most in ``output_scale``, so
        :meth:`fill` can serve them from one correlation block, and they
        share one :meth:`scale` of a point set.
        """
        return (type(self), self.lengthscales.tobytes())

    def diag(self, x: np.ndarray) -> np.ndarray:
        """Prior variance at each point (k(z, z))."""
        n = _as_2d(x).shape[0]
        return np.full(n, self.output_scale)

    @abc.abstractmethod
    def _correlate(self, block: np.ndarray, tmp: np.ndarray,
                   tmp2: np.ndarray) -> None:
        """Replace scaled distances by their correlation (1 at 0), in place.

        ``tmp`` and ``tmp2`` are scratch arrays of ``block``'s shape.
        """

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

    def _correlate(self, block, tmp, tmp2) -> None:
        if self.nu == 0.5:
            # exp(-d)
            np.negative(block, out=block)
            np.exp(block, out=block)
            return
        if self.nu == 1.5:
            # (1 + s) * exp(-s), s = sqrt(3) d
            np.multiply(block, _SQRT3, out=block)
            np.negative(block, out=tmp)
            np.exp(tmp, out=tmp)
            np.add(block, 1.0, out=block)
            np.multiply(block, tmp, out=block)
            return
        # (1 + s + s**2 / 3) * exp(-s), s = sqrt(5) d
        np.multiply(block, _SQRT5, out=block)
        np.square(block, out=tmp)
        np.divide(tmp, 3.0, out=tmp)
        np.negative(block, out=tmp2)
        np.exp(tmp2, out=tmp2)
        np.add(block, 1.0, out=block)
        np.add(block, tmp, out=block)
        np.multiply(block, tmp2, out=block)

    def correlation_key(self) -> tuple:
        """Family, lengthscale bytes and ``nu``."""
        return super().correlation_key() + (self.nu,)

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

    def _correlate(self, block, tmp, tmp2) -> None:
        # exp(-0.5 d**2)
        np.square(block, out=block)
        np.multiply(block, -0.5, out=block)
        np.exp(block, out=block)

