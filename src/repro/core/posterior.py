"""Incremental multi-head posterior engine for the control-grid hot path.

EdgeBOL's per-period cost is dominated by evaluating three GP
posteriors (cost, delay, mAP — eqs. 3-4) over the joint grid built from
the observed context and the full control grid (11^4 = 14641 points in
the paper).  Evaluated naively through :meth:`GaussianProcess.predict`,
every period recomputes the ``N x M`` cross-kernel *and* the
``O(N^2 M)`` triangular solve ``V = L^-1 K(X, grid)`` from scratch.

:class:`SurrogateEngine` exploits two structural facts of Algorithm 1:

* the control grid is fixed, and contexts are CQI-quantised, so the
  same joint grid recurs period after period (always, in the static
  scenarios of Figs. 9-11; every sweep cycle in the dynamic Fig. 13);
* :meth:`GaussianProcess.add` extends the Cholesky factor by a rank-1
  block, so the factor of the first ``N`` observations is a leading
  principal block of the extended factor — cached solves against it
  stay valid and can be *extended* instead of recomputed.

Per (context, head) the engine caches the solved rows
``V = L^-1 K(X, grid)`` and two running moment vectors: ``sumsq``, the
column sums of ``V**2``, and ``mean_acc = V^T w``, where
``w = L^-1 (y - m)`` is the GP's whitened residual.  The posterior is
then ``mu = m + mean_acc`` and ``sigma^2 = k(x*, x*) - sumsq``.  When
``k`` observations arrived since the entry was built, only the new
rows are computed::

    V = [V_old                                ]
        [L22^-1 (K(X_new, grid) - L21 @ V_old)]

and folded into the running moments; a rank-1 :meth:`GaussianProcess.
add` only appends to ``w``, so ``mean_acc`` grows by ``V_new^T w_new``.
One period thus costs one ``N x M`` pass per head (the ``L21 @ V_old``
product) instead of ``O(N^2 M)`` for a fresh solve.  ``sumsq`` adds the
new rows one at a time, in the order ``np.sum(V**2, axis=0)`` would, so
variances are bit-identical to summing the whole cache.  A
:meth:`GaussianProcess.set_prior_mean` rewrites ``w``; each entry
stamps the prior mean its ``mean_acc`` was built against and rebuilds
it with one ``V^T w`` product when the stamp is stale.  Anything that
rebuilds the factor — ``fit``, eviction, a kernel or noise-variance
change after a hyperparameter refit — bumps the GP's
``factor_version`` and triggers an exact rebuild of the affected cache
entries on their next use.  Each entry also keeps the joint grid scaled
by the head's lengthscales (:meth:`Kernel.scale`), so a new kernel row
does not rescale all ``M`` grid points.

New ``v`` rows are built where they live: :meth:`Kernel.fill` writes
the kernel rows into them, and one BLAS ``dtrsm`` solves them from the
right, in place (docs/NUMERICS.md, "The in-place row solve").  Each
head reserves its rows once (:data:`RESERVE_BYTES` of address space,
of which only the rows written commit memory), so no sweep copies a
kept row unless ``N`` outgrows the reservation.  Heads
whose kernels differ only in ``output_scale`` — EdgeBOL's cost and
delay heads — share one correlation block and one scaled grid per
sweep; each head's rows are that block times its own scale, which is
how a lone kernel call ends, so sharing changes no bit.

All heads are evaluated in one pass over one shared joint grid and
returned as a :class:`PosteriorBatch`, which
:meth:`repro.core.safeset.SafeSetEstimator.safe_mask` (eq. 8) and
:func:`repro.core.acquisition.safe_lcb_index_from_posterior` (eq. 9)
consume directly.  Results match direct ``predict`` calls to rounding:
``predict`` uses the same factor, the same kernel bits and formulas
(``m + v^T w``, ``k - v^T v``), but solves ``v`` in one piece with
LAPACK's left-side ``trtrs``, while the engine solves blocks from the
right; the two round differently (about an ulp per entry on a block,
more through the blocked extensions).

Timing and cache counters are kept in :class:`EngineStats` and surfaced
through :class:`repro.experiments.recorder.RunLog`.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dtrsm

from repro.core.gp import GaussianProcess
from repro.core.kernels import Kernel, ScaledPoints
from repro.core.numerics import NumericalInstabilityError
from repro.telemetry import runtime as telemetry

#: Bytes of ``v`` rows each head reserves on its first sweep of a
#: context (:meth:`_HeadState.rows`).  Above glibc's 32 MiB ceiling on
#: its mmap threshold, so each reservation is an anonymous mapping of
#: its own: its pages commit when a row is first written and return to
#: the OS when the entry is dropped.  That is 572 rows on the paper's
#: 14,641-point grid and 13,421 on the fleet's 625-point grid.
RESERVE_BYTES = 64 << 20


@dataclass
class EngineStats:
    """Counters for the posterior hot path (surfaced in run logs).

    All counters are dimensionless tallies except ``wall_time_s``
    (seconds, monotonic clock).  The same sweep is also visible as the
    ``engine.posterior`` telemetry span when telemetry is enabled.
    """

    #: Number of :meth:`SurrogateEngine.posterior` calls.
    queries: int = 0
    #: Per-head posterior evaluations (``queries`` times heads asked).
    head_queries: int = 0
    #: Cross-kernel entries computed (full rebuilds + extensions); a
    #: block shared by heads of one correlation counts once.
    kernel_evals: int = 0
    #: Head states served fully from cache (no kernel work at all).
    cache_hits: int = 0
    #: Head states extended by the rows added since the last query.
    extensions: int = 0
    #: Head states rebuilt from scratch (cold cache or invalidation).
    rebuilds: int = 0
    #: Context entries dropped by the LRU bound.
    lru_evictions: int = 0
    #: Wall-clock seconds spent inside the engine.
    wall_time_s: float = 0.0

    def snapshot(self) -> dict:
        """Plain-dict copy for logging/serialisation."""
        return {
            "queries": self.queries,
            "head_queries": self.head_queries,
            "kernel_evals": self.kernel_evals,
            "cache_hits": self.cache_hits,
            "extensions": self.extensions,
            "rebuilds": self.rebuilds,
            "lru_evictions": self.lru_evictions,
            "wall_time_s": self.wall_time_s,
        }


@dataclass
class PosteriorBatch:
    """Per-head posterior moments over one shared joint grid.

    ``means``/``variances`` map head names to arrays of length
    ``joint_grid.shape[0]``.  Moments carry the unit of the head's
    training targets — weighted watts for ``"cost"`` (eq. 1), seconds
    for ``"delay"``, mAP in [0, 1] for ``"map"``; variances are the
    unit squared.  Standard deviations are derived lazily and cached
    (most consumers want either moments but not both copies).
    """

    joint_grid: np.ndarray
    means: dict[str, np.ndarray]
    variances: dict[str, np.ndarray]
    _stds: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def n_points(self) -> int:
        """Number of joint-grid points ``M``."""
        return int(self.joint_grid.shape[0])

    @property
    def heads(self) -> tuple[str, ...]:
        """Head names, in the order they were evaluated."""
        return tuple(self.means)

    def mean(self, head: str) -> np.ndarray:
        """Posterior mean of ``head`` over the joint grid (eq. 3)."""
        return self.means[head]

    def variance(self, head: str) -> np.ndarray:
        """Posterior variance of ``head`` over the joint grid (eq. 4)."""
        return self.variances[head]

    def std(self, head: str) -> np.ndarray:
        """Posterior standard deviation of ``head``, derived once."""
        cached = self._stds.get(head)
        if cached is None:
            cached = np.sqrt(self.variances[head])
            self._stds[head] = cached
        return cached

    def moments(self, head: str) -> tuple[np.ndarray, np.ndarray]:
        """``(mean, std)`` — the :meth:`GaussianProcess.predict_std` pair."""
        return self.means[head], self.std(head)


def _solve_rows(chol: np.ndarray, rows: np.ndarray) -> None:
    """``rows <- L^-1 rows`` in place, for a lower-triangular ``L``.

    ``rows`` is a C-ordered ``(k, M)`` block, so its transpose is a
    Fortran ``(M, k)`` array, and BLAS ``dtrsm`` solves that from the
    right, ``X L^T = rows^T``, where it lies: no copy of the rows either
    way.  The ``k x k`` ``chol`` may have any memory order; the wrapper
    hands BLAS a Fortran copy of it when it is not one, so the bits do
    not depend on the order (docs/NUMERICS.md).  One row is scaled by
    ``1 / L[0, 0]``, the 1x1 solve without its call overhead.  As
    ``solve_triangular`` does, raises ``ValueError`` when the factor
    block or the rows are not finite and ``LinAlgError`` on a zero
    pivot.
    """
    if not rows.flags.c_contiguous:
        raise ValueError("the rows to solve must be C-contiguous")
    if not np.isfinite(rows).all():
        raise ValueError("array must not contain infs or NaNs")
    if rows.shape[0] == 1:
        pivot = chol[0, 0]
        if not math.isfinite(pivot):
            raise ValueError("array must not contain infs or NaNs")
        if pivot == 0.0:
            raise np.linalg.LinAlgError("singular matrix: zero pivot")
        rows *= 1.0 / pivot
        return
    if not np.isfinite(chol).all():
        raise ValueError("array must not contain infs or NaNs")
    if not chol.diagonal().all():
        raise np.linalg.LinAlgError("singular matrix: zero pivot")
    dtrsm(1.0, chol, rows.T, side=1, lower=1, trans_a=1, overwrite_b=1)


class _HeadState:
    """Cached solves and running moments of one head on one joint grid.

    ``v`` holds the rows of ``L^-1 K(X, grid)`` in a buffer reserved
    once, on the first :meth:`rows` call, for ``max(n, RESERVE_BYTES //
    (8 M))`` rows; rebuilds, extensions and context returns write their
    rows into it in place.  Beside it run ``sumsq = sum(v**2, axis=0)``,
    accumulated one row at a time in arrival order, and
    ``mean_acc = v^T w`` against the GP's whitened residual ``w``, built
    while the head's prior mean was ``mean_prior``.  ``scaled`` is the
    joint grid scaled by the head's lengthscales (shared with the heads
    of the same :meth:`~repro.core.kernels.Kernel.correlation_key`).

    ``row_ends`` records how ``v`` was built: a rebuild solved its first
    ``row_ends[0]`` rows, and each extension since appended the rows up
    to its ``row_ends`` entry.  Repeating those :meth:`rows` and
    :meth:`solve` calls against the same factor rebuilds ``v`` bit for
    bit (:func:`repro.core.state.restore_engine_state`).
    """

    __slots__ = ("n", "factor_version", "v", "sumsq", "mean_acc",
                 "mean_prior", "prior_var", "scaled", "row_ends")

    def __init__(self, n_points: int, prior_var: np.ndarray) -> None:
        self.n = 0
        self.factor_version = -1
        self.v = np.empty((0, n_points))  # reserved by the first rows()
        self.sumsq = np.zeros(n_points)
        self.mean_acc = np.zeros(n_points)
        self.mean_prior = 0.0
        self.prior_var = prior_var
        self.scaled = None
        self.row_ends: list[int] = []

    def rows(self, k0: int, n: int) -> np.ndarray:
        """The ``v`` rows ``k0:n``, to be filled with ``K(x[k0:n], grid)``.

        The first call reserves the buffer; past the reservation it
        doubles, carrying over only the ``k0`` rows that stay (none for
        a rebuild, ``k0 = 0``).
        """
        capacity, m = self.v.shape
        if n > capacity:
            if capacity:
                grown = np.empty((max(n, 2 * capacity), m))
                grown[:k0] = self.v[:k0]
            else:
                grown = np.empty((max(n, RESERVE_BYTES // (8 * m)), m))
            self.v = grown
        return self.v[k0:n]

    def solve(self, chol: np.ndarray, k0: int, n: int, scratch) -> np.ndarray:
        """Turn the filled kernel rows ``k0:n`` into ``v`` rows; returns them.

        ``v_new = L22^-1 (K_new - L21 v_old)``, in place.  ``chol`` holds
        at least ``n`` rows of the factor lineage the first ``k0`` rows
        were solved against; ``scratch(k)`` returns a ``(k, M)`` array
        for the ``L21 v_old`` product.
        """
        new = self.v[k0:n]
        if k0:
            product = scratch(n - k0)
            np.matmul(chol[k0:n, :k0], self.v[:k0], out=product)
            new -= product
        _solve_rows(chol[k0:n, k0:n], new)
        self.n = n
        if k0:
            self.row_ends.append(n)
        else:
            self.row_ends = [n]
        return new


class VBytes(NamedTuple):
    """Bytes of the engine's cached ``v`` rows (:attr:`SurrogateEngine.v_bytes`)."""

    written: int
    reserved: int


class _Step(NamedTuple):
    """One head's part of a sweep: its ``v`` rows ``k0:n`` are new."""

    gp: GaussianProcess
    state: _HeadState
    k0: int
    n: int


class SurrogateEngine:
    """Shared posterior evaluator for a family of GP heads on one grid.

    Parameters
    ----------
    heads:
        Mapping of head name (``"cost"``, ``"delay"``, ...) to the GP
        surrogate.  All heads must share the input dimension
        ``context_dim + control dims``.
    control_grid:
        ``(M, d_control)`` discretised control space; fixed for the
        engine's lifetime.
    context_dim:
        Length of the normalised context vector prefixed to each grid
        row.
    max_cached_contexts:
        LRU bound on distinct contexts whose joint grid and per-head
        solves are retained.  Each entry keeps ``heads * N * M``
        resident floats (the ``V`` rows written so far), so the bound
        caps memory on long runs with many distinct contexts.  Each
        head's rows sit in a reservation of :data:`RESERVE_BYTES` of
        address space (more once ``N`` outgrows it); only written rows
        commit memory (:attr:`v_bytes`).
    """

    def __init__(
        self,
        heads: Mapping[str, GaussianProcess],
        control_grid: np.ndarray,
        context_dim: int,
        max_cached_contexts: int = 16,
    ) -> None:
        if not heads:
            raise ValueError("at least one GP head is required")
        grid = np.ascontiguousarray(control_grid, dtype=float)
        if grid.ndim != 2 or grid.shape[0] == 0:
            raise ValueError(
                f"control_grid must be a non-empty 2-D array, got shape {grid.shape}"
            )
        if context_dim < 0:
            raise ValueError(f"context_dim must be >= 0, got {context_dim}")
        if max_cached_contexts < 1:
            raise ValueError(
                f"max_cached_contexts must be >= 1, got {max_cached_contexts}"
            )
        self._heads = dict(heads)
        n_dims = context_dim + grid.shape[1]
        for name, gp in self._heads.items():
            if gp.kernel.n_dims != n_dims:
                raise ValueError(
                    f"head {name!r} expects {gp.kernel.n_dims}-dim inputs, "
                    f"but context_dim {context_dim} + control grid width "
                    f"{grid.shape[1]} = {n_dims}"
                )
        self.control_grid = grid
        self.context_dim = int(context_dim)
        self.max_cached_contexts = int(max_cached_contexts)
        # context key -> (joint grid, head name -> _HeadState), LRU order.
        self._cache: OrderedDict[bytes, tuple[np.ndarray, dict[str, _HeadState]]]
        self._cache = OrderedDict()
        self.stats = EngineStats()
        # Scratch for the L21 v_old product of an extension and for one
        # squared v row, kept across sweeps.
        self._product = np.empty((0, grid.shape[0]))
        self._square = np.empty(grid.shape[0])

    # -- introspection --------------------------------------------------

    @property
    def heads(self) -> dict[str, GaussianProcess]:
        """Name-to-GP mapping (the dict is a copy; the GPs are live)."""
        return dict(self._heads)

    @property
    def n_cached_contexts(self) -> int:
        """Contexts whose joint grid and head states are cached."""
        return len(self._cache)

    @property
    def v_bytes(self) -> VBytes:
        """Bytes of cached ``v`` rows, written and reserved, over all entries.

        ``written`` is ``sum(n * M * 8)`` over every cached head — what
        the rows hold now (a stale entry restored from a snapshot holds
        none until its rebuild); ``reserved`` is the address space their
        buffers span.  A reserved page commits memory when a row on it
        is first written.
        """
        written = reserved = 0
        for _, states in self._cache.values():
            for state in states.values():
                capacity, m = state.v.shape
                written += min(state.n, capacity) * m * 8
                reserved += state.v.nbytes
        return VBytes(written, reserved)

    def reset_cache(self) -> None:
        """Drop every cached context (the GPs are untouched)."""
        self._cache.clear()

    # -- joint-grid assembly --------------------------------------------

    def _context_key(self, context: np.ndarray) -> tuple[np.ndarray, bytes]:
        arr = np.asarray(context, dtype=float).ravel()
        if arr.size != self.context_dim:
            raise ValueError(
                f"context must have {self.context_dim} entries, got {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("context must be finite")
        return arr, arr.tobytes()

    def _entry(self, context: np.ndarray):
        arr, key = self._context_key(context)
        entry = self._cache.get(key)
        if entry is None:
            m = self.control_grid.shape[0]
            joint = np.empty((m, self.context_dim + self.control_grid.shape[1]))
            joint[:, : self.context_dim] = arr
            joint[:, self.context_dim:] = self.control_grid
            entry = (joint, {})
            self._cache[key] = entry
            while len(self._cache) > self.max_cached_contexts:
                self._cache.popitem(last=False)
                self.stats.lru_evictions += 1
        else:
            self._cache.move_to_end(key)
        return entry

    def joint_grid(self, context: np.ndarray) -> np.ndarray:
        """The cached ``(M, context_dim + d_control)`` joint grid.

        The returned array is shared with the cache — treat as
        read-only.
        """
        return self._entry(context)[0]

    # -- posterior sweep -------------------------------------------------

    def _state_for(self, name: str, joint: np.ndarray,
                   states: dict[str, _HeadState]) -> _HeadState:
        """The head's cache entry for this joint grid, created on miss."""
        state = states.get(name)
        if state is None:
            state = _HeadState(
                joint.shape[0], self._heads[name].kernel.diag(joint)
            )
            states[name] = state
        return state

    @staticmethod
    def _scaled_grid(kernel: Kernel, joint: np.ndarray,
                     scaled: dict[tuple, ScaledPoints]) -> ScaledPoints:
        """``kernel.scale(joint)``, once per correlation key in ``scaled``."""
        key = kernel.correlation_key()
        grid = scaled.get(key)
        if grid is None:
            grid = scaled[key] = kernel.scale(joint)
        return grid

    def _scratch(self, rows: int) -> np.ndarray:
        """A ``(rows, M)`` scratch block, grown by doubling."""
        capacity = self._product.shape[0]
        if rows > capacity:
            self._product = np.empty(
                (max(rows, 2 * capacity, 8), self._product.shape[1])
            )
        return self._product[:rows]

    def _begin(self, name: str, joint: np.ndarray,
               states: dict[str, _HeadState],
               scaled: dict[tuple, ScaledPoints]) -> _Step:
        """Decide what one head's entry needs and reserve its new rows.

        Changes nothing that a failed sweep would leave inconsistent: the
        row count, schedule and stamp move only in :meth:`_finish`.
        """
        gp = self._heads[name]
        state = self._state_for(name, joint, states)
        x, chol, _, factor_version = gp._posterior_state()
        if x is None:
            return _Step(gp, state, 0, 0)
        if chol is None:
            raise NumericalInstabilityError(
                f"head '{name}' has no usable Cholesky factor (a "
                "refactorisation exhausted the jitter ladder); refit the "
                "surrogate before sweeping the grid"
            )
        n = x.shape[0]
        if state.factor_version != factor_version:
            # Cold cache, or the factor lineage broke (fit / eviction /
            # hyperparameter change): rebuild this entry exactly.
            state.prior_var = gp.kernel.diag(joint)
            state.scaled = self._scaled_grid(gp.kernel, joint, scaled)
            k0 = 0
            self.stats.rebuilds += 1
        elif state.n < n:
            # Same factor lineage, k new rank-1 rows: extend the solves.
            k0 = state.n
            self.stats.extensions += 1
        else:
            k0 = n
            self.stats.cache_hits += 1
        state.rows(k0, n)
        return _Step(gp, state, k0, n)

    @staticmethod
    def _fill(steps: Iterable[_Step]) -> int:
        """Write the kernel rows ``K(x[k0:n], grid)`` of every step's new rows.

        Heads with one :meth:`~repro.core.kernels.Kernel.correlation_key`
        whose new rows have byte-equal inputs get one correlation block,
        scaled into each head's rows by its own ``output_scale`` — the
        very op a lone ``kernel(x, grid)`` ends with, so sharing changes
        no bit.  Returns the kernel entries computed, for
        ``kernel_evals``; a shared block counts once.
        """
        groups: dict[tuple, list[tuple[_Step, np.ndarray]]] = {}
        for step in steps:
            x = step.gp._posterior_state()[0][step.k0:step.n]
            key = (step.gp.kernel.correlation_key(), x.tobytes())
            groups.setdefault(key, []).append((step, x))
        evals = 0
        for members in groups.values():
            first, x = members[0]
            first.gp.kernel.fill(
                x, first.state.scaled,
                [step.state.v[step.k0:step.n] for step, _ in members],
                [step.gp.kernel.output_scale for step, _ in members],
            )
            evals += x.shape[0] * first.state.v.shape[1]
        return evals

    def _finish(self, step: _Step,
                joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve the step's new rows and fold them into its moments."""
        gp, state, k0, n = step
        x, chol, w, factor_version = gp._posterior_state()
        if x is None:
            if state.factor_version != factor_version:
                # Covers a kernel/noise swap while the head is empty.
                state.prior_var = gp.kernel.diag(joint)
                state.factor_version = factor_version
            state.n = 0
            state.row_ends = []
            mean = np.full(joint.shape[0], gp.prior_mean)
            return mean, state.prior_var.copy()

        rebuild = state.factor_version != factor_version
        stale_mean = rebuild or state.mean_prior != gp.prior_mean
        if k0 < n:
            new = state.solve(chol, k0, n, self._scratch)
            if rebuild:
                state.sumsq = np.zeros(joint.shape[0])
                state.factor_version = factor_version
            # Row by row, in the order np.sum(v**2, axis=0) adds them.
            square = self._square
            for row in new:
                np.square(row, out=square)
                state.sumsq += square
            if not stale_mean:
                state.mean_acc += new.T @ w[k0:n]
        if stale_mean:
            # A rebuild, or set_prior_mean rewrote w since mean_acc.
            state.mean_acc = state.v[:n].T @ w
            state.mean_prior = gp.prior_mean

        mean = gp.prior_mean + state.mean_acc
        variance = np.maximum(state.prior_var - state.sumsq, 0.0)
        return mean, variance

    def posterior(
        self,
        context: np.ndarray,
        heads: Iterable[str] | None = None,
    ) -> PosteriorBatch:
        """Evaluate the selected heads over the context's joint grid.

        Parameters
        ----------
        context:
            Normalised context vector of length ``context_dim``.
        heads:
            Head names to evaluate; defaults to every head.

        Returns
        -------
        PosteriorBatch
            Per-head mean/variance arrays over the shared joint grid,
            numerically matching ``gp.predict(joint_grid)`` per head.
        """
        with telemetry.span("engine.posterior") as sp:
            started = time.perf_counter()
            joint, states = self._entry(context)
            names = tuple(self._heads) if heads is None else tuple(heads)
            for name in names:
                if name not in self._heads:
                    raise KeyError(
                        f"unknown head {name!r}; engine heads are {tuple(self._heads)}"
                    )
            scaled: dict[tuple, ScaledPoints] = {}
            steps = {name: self._begin(name, joint, states, scaled)
                     for name in dict.fromkeys(names)}
            self.stats.kernel_evals += self._fill(
                [step for step in steps.values() if step.k0 < step.n])
            means = {}
            variances = {}
            for name, step in steps.items():
                means[name], variances[name] = self._finish(step, joint)
            self.stats.queries += 1
            self.stats.head_queries += len(names)
            self.stats.wall_time_s += time.perf_counter() - started
            if sp:
                sp.set("heads", len(names))
                sp.set("points", int(joint.shape[0]))
            return PosteriorBatch(joint_grid=joint, means=means, variances=variances)
