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
how a lone kernel call ends, so sharing changes no bit.  A sweep with
new rows on a grid of :data:`_LANE_POINTS` points or more (the paper's
11^4 grid), or with many new rows on a smaller one, runs its group
fills, then its head solves, on two lanes: the caller's thread and one
process-wide worker thread, each head written by one lane, every BLAS
call unchanged (:func:`_sweep`, docs/NUMERICS.md, "Two lanes").

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

import ctypes
import math
import os
import queue
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy.linalg import cython_blas

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

#: New ``v`` rows times grid points, summed over a sweep's heads, from
#: which a sweep on a grid of any size runs on two lanes
#: (docs/NUMERICS.md, "When the lanes engage").  Below it, on a grid
#: smaller than :data:`_LANE_POINTS`, handing tasks to the worker costs
#: more than it saves: every sweep on the fleet's 625-point grid stays
#: inline up to 139 new rows per head.
_LANE_ELEMENTS = 1 << 18

#: Grid points from which every sweep with new rows runs on two lanes,
#: one-row extensions included: each head's ``N x M`` pass is then long
#: enough to pay for the hand-off.  Measured break-even of a three-head
#: one-row extension at N = 25 is near 6,561 points; on the paper's
#: 14,641 points two lanes cut it by a quarter (docs/NUMERICS.md).
_LANE_POINTS = 1 << 13


class _Lane:
    """One lane of a sweep: the scratch block its head solves write through.

    A lane runs one task at a time, so one block serves the ``L21 v_old``
    product of an extension and, after it, the squared row of the
    moment fold.  The block grows to the largest one asked for and no
    further; every engine of the process shares it.
    """

    __slots__ = ("_block",)

    def __init__(self) -> None:
        self._block = np.empty(0)

    def scratch(self, rows: int, m: int) -> np.ndarray:
        """A C-ordered ``(rows, m)`` scratch block."""
        size = rows * m
        if size > self._block.size:
            self._block = np.empty(size)
        return self._block[:size].reshape(rows, m)


class _Raised(NamedTuple):
    """A lane task's exception, re-raised on the caller's thread."""

    error: BaseException


class _Worker:
    """The process-wide second lane: one daemon thread and its scratch.

    Jobs are lists of ``(index, task)`` pairs; each ``task(lane)``'s
    result, or its exception as :class:`_Raised`, lands in
    ``results[index]``, and the job's lock is released when all are done.
    """

    def __init__(self) -> None:
        self.lane = _Lane()
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._serve,
                                        name="posterior-lane", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while (job := self._jobs.get()) is not None:
            tasks, results, done = job
            self._work(tasks, results)
            # Hold nothing of a finished job, even before the caller
            # wakes: its tasks reach the heads' state and results.
            del job, tasks, results
            done.release()

    def _work(self, tasks: list, results: list) -> None:
        for index, task in tasks:
            try:
                results[index] = task(self.lane)
            except BaseException as error:  # re-raised by the caller
                results[index] = _Raised(error)

    def submit(self, tasks: list, results: list) -> threading.Lock:
        """Queue one job; the returned lock is acquirable once it is done."""
        done = threading.Lock()
        done.acquire()
        self._jobs.put((tasks, results, done))
        return done

    def stop(self) -> None:
        """Finish the queued jobs, then end the thread and wait for it."""
        self._jobs.put(None)
        self._thread.join()


#: The worker lane, started by the first sweep that takes two lanes
#: (:func:`_two_lanes`); ``None`` until then, and in a forked child.
_worker: _Worker | None = None
_worker_start = threading.Lock()
#: Each calling thread's own lane (its scratch).
_callers = threading.local()
#: False in processes whose siblings already share the CPUs.
_lanes_allowed = True


def _forget_worker() -> None:
    """A forked child has no worker thread; the next sweep starts one."""
    global _worker, _worker_start
    _worker = None
    _worker_start = threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork, no hook (Windows)
    os.register_at_fork(after_in_child=_forget_worker)


def keep_one_lane() -> None:
    """Run every later sweep of this process on the caller's thread alone.

    For processes that share the CPUs with sibling processes, such as
    the workers of a parallel experiment sweep, so the two kinds of
    parallelism do not stack.
    """
    global _lanes_allowed
    _lanes_allowed = False


def _caller_lane() -> _Lane:
    lane = getattr(_callers, "lane", None)
    if lane is None:
        lane = _callers.lane = _Lane()
    return lane


def _cpus() -> int:
    """CPUs this process may run on (its affinity set, where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _two_lanes(rows: int, n_points: int) -> bool:
    """Whether a sweep adding ``rows`` ``v`` rows (over all its heads)
    to an ``n_points`` grid uses the worker."""
    return (rows > 0
            and (n_points >= _LANE_POINTS
                 or rows * n_points >= _LANE_ELEMENTS)
            and _lanes_allowed and _cpus() >= 2)


def _worker_lane() -> _Worker:
    global _worker
    with _worker_start:
        if _worker is None:
            _worker = _Worker()
        return _worker


def _run(tasks: list[tuple[int, Callable[[_Lane], object]]],
         caller: _Lane) -> list:
    """Run each ``(size, task)`` as ``task(lane)`` on two lanes.

    Tasks go largest first to the lane with less work so far (the
    caller's on a tie); the caller runs its share on ``caller`` while
    the worker runs the rest, then waits for it.  Returns the results in
    task order; the first exception in task order is re-raised.  Tasks
    must touch disjoint state: the lanes run concurrently.
    """
    if len(tasks) < 2:
        return [task(caller) for _, task in tasks]
    mine, theirs = [], []
    loads = [0, 0]
    for index in sorted(range(len(tasks)), key=lambda i: -tasks[i][0]):
        lane = 0 if loads[0] <= loads[1] else 1
        loads[lane] += tasks[index][0]
        (theirs if lane else mine).append((index, tasks[index][1]))
    results: list = [None] * len(tasks)
    done = _worker_lane().submit(theirs, results) if theirs else None
    for index, task in mine:
        try:
            results[index] = task(caller)
        except BaseException as error:
            results[index] = _Raised(error)
    if done is not None:
        done.acquire()
    for result in results:
        if type(result) is _Raised:
            raise result.error
    return results


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
    #: Sweeps whose head solves ran on two lanes (:func:`_sweep`).
    lane_sweeps: int = 0
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
            "lane_sweeps": self.lane_sweeps,
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


def _blas_dtrsm():
    """The BLAS ``dtrsm`` scipy links, as a ctypes function.

    ``scipy.linalg.blas.dtrsm`` holds the GIL for the whole solve, which
    would serialise the two lanes' solves; a ctypes call releases it.
    This is the routine the scipy wrapper calls — the pointer scipy's
    ``cython_blas`` exports — so the bits are the same.
    """
    capsule = cython_blas.__pyx_capi__["dtrsm"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    char, int_p = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int)
    array = ctypes.c_void_p  # an array's data address
    return ctypes.CFUNCTYPE(
        None, char, char, char, char, int_p, int_p,
        ctypes.POINTER(ctypes.c_double), array, int_p, array, int_p,
    )(pointer(capsule, name(capsule)))


_dtrsm = _blas_dtrsm()


def _solve_rows(chol: np.ndarray, rows: np.ndarray) -> None:
    """``rows <- L^-1 rows`` in place, for a lower-triangular ``L``.

    ``rows`` is a C-ordered ``(k, M)`` block, so its transpose is a
    Fortran ``(M, k)`` array, and BLAS ``dtrsm`` solves that from the
    right, ``X L^T = rows^T``, where it lies: no copy of the rows either
    way.  The ``k x k`` ``chol`` may have any memory order; BLAS gets a
    Fortran copy of it when it is not one, as scipy's wrapper does, so
    the bits do not depend on the order (docs/NUMERICS.md).  The call
    releases the GIL (:func:`_blas_dtrsm`).  One row is scaled by
    ``1 / L[0, 0]``, the 1x1 solve without its call overhead.  As
    ``solve_triangular`` does, raises ``ValueError`` when the factor
    block or the rows are not finite and ``LinAlgError`` on a zero
    pivot.
    """
    if rows.dtype != np.float64 or not rows.flags.c_contiguous:
        raise ValueError("the rows to solve must be C-contiguous float64")
    if chol.shape != (rows.shape[0],) * 2:
        raise ValueError(
            f"a {rows.shape[0]}-row block needs a square factor block of "
            f"that size, got {chol.shape}"
        )
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
    factor = np.asfortranarray(chol, dtype=np.float64)
    k, m = ctypes.c_int(rows.shape[0]), ctypes.c_int(rows.shape[1])
    # X L^T = B for the Fortran (M, k) B = rows^T: side R, lower L,
    # transposed, non-unit diagonal, alpha 1, lda k, ldb M.
    _dtrsm(b"R", b"L", b"T", b"N", m, k, ctypes.c_double(1.0),
           factor.ctypes.data, k, rows.ctypes.data, m)


class _HeadState:
    """Cached solves and running moments of one head on one joint grid.

    ``v`` holds the rows of ``L^-1 K(X, grid)`` in a buffer reserved
    once, on the first :meth:`rows` call, for ``max(n, RESERVE_BYTES //
    (8 M))`` rows; rebuilds, extensions and context returns write their
    rows into it in place.  ``prior_var`` is the kernel's prior variance
    ``k(x, x)``, one scalar for every grid point (:meth:`Kernel.diag`
    is constant).  Beside it run ``sumsq = sum(v**2, axis=0)``,
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

    def __init__(self, n_points: int, prior_var: float) -> None:
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

    def solve(self, chol: np.ndarray, k0: int, n: int,
              lane: _Lane) -> np.ndarray:
        """Turn the filled kernel rows ``k0:n`` into ``v`` rows; returns them.

        ``v_new = L22^-1 (K_new - L21 v_old)``, in place.  ``chol`` holds
        at least ``n`` rows of the factor lineage the first ``k0`` rows
        were solved against; the ``L21 v_old`` product goes through the
        lane's scratch.
        """
        new = self.v[k0:n]
        if k0:
            product = lane.scratch(n - k0, new.shape[1])
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


def _fill_group(members: list[_Step], x: np.ndarray, lane: _Lane) -> None:
    """Write ``K(x, grid)`` into the new rows of every member step.

    The members share one :meth:`~repro.core.kernels.Kernel.
    correlation_key` and byte-equal new inputs ``x``: one correlation
    block serves them all, scaled into each head's rows by its own
    ``output_scale`` — the very op a lone ``kernel(x, grid)`` ends with,
    so sharing changes no bit.
    """
    first = members[0]
    first.gp.kernel.fill(
        x, first.state.scaled,
        [step.state.v[step.k0:step.n] for step in members],
        [step.gp.kernel.output_scale for step in members],
    )


def _sweep(steps: list[_Step], finish: Callable[[_Step, _Lane], object],
           n_points: int) -> tuple[int, list, bool]:
    """Fill the steps' new rows, then run ``finish(step, lane)`` on each.

    Two phases, each on two lanes when :func:`_two_lanes` admits the
    sweep's new rows on ``n_points`` (:func:`_run`): first one fill task
    per correlation group (:func:`_fill_group`), then one ``finish`` per
    step.  A task writes only its own heads' rows and state, and every
    BLAS call keeps the operands and shape it has inline, so the lanes
    change no bit (docs/NUMERICS.md, "Two lanes").  Returns the kernel
    entries computed, for ``kernel_evals`` (a shared block counts once),
    ``finish``'s results in step order, and whether the worker ran a
    ``finish``, as it does in every admitted sweep of two or more steps
    (:func:`_run` gives the largest task, which has new rows, to the
    caller and the next to the worker).
    """
    groups: dict[tuple, tuple[np.ndarray, list[_Step]]] = {}
    rows = 0
    for step in steps:
        if step.k0 < step.n:
            rows += step.n - step.k0
            x = step.gp._posterior_state()[0][step.k0:step.n]
            key = (step.gp.kernel.correlation_key(), x.tobytes())
            groups.setdefault(key, (x, []))[1].append(step)
    lane = _caller_lane()
    lanes = _two_lanes(rows, n_points)
    if lanes:
        _run([(x.shape[0] * len(members), partial(_fill_group, members, x))
              for x, members in groups.values()], lane)
        results = _run([((step.n - step.k0) * (step.n + 1),
                         partial(finish, step)) for step in steps], lane)
    else:
        for x, members in groups.values():
            _fill_group(members, x, lane)
        results = [finish(step, lane) for step in steps]
    evals = sum(x.shape[0] for x, _ in groups.values()) * n_points
    return evals, results, lanes and len(steps) > 1


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
                joint.shape[0], self._heads[name].kernel.output_scale
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
            state.prior_var = gp.kernel.output_scale
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
    def _finish(step: _Step, lane: _Lane) -> tuple[np.ndarray, np.ndarray]:
        """Solve the step's new rows and fold them into its moments.

        Touches only the step's own head state (a lane task, see
        :func:`_sweep`).
        """
        gp, state, k0, n = step
        m = state.v.shape[1]
        x, chol, w, factor_version = gp._posterior_state()
        if x is None:
            if state.factor_version != factor_version:
                # Covers a kernel/noise swap while the head is empty.
                state.prior_var = gp.kernel.output_scale
                state.factor_version = factor_version
            state.n = 0
            state.row_ends = []
            return np.full(m, gp.prior_mean), np.full(m, state.prior_var)

        rebuild = state.factor_version != factor_version
        stale_mean = rebuild or state.mean_prior != gp.prior_mean
        if k0 < n:
            new = state.solve(chol, k0, n, lane)
            if rebuild:
                state.sumsq = np.zeros(m)
                state.factor_version = factor_version
            # Row by row, in the order np.sum(v**2, axis=0) adds them.
            square = lane.scratch(1, m)[0]
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
            evals, moments, lanes = _sweep(list(steps.values()),
                                           self._finish, joint.shape[0])
            means = {}
            variances = {}
            for name, (mean, variance) in zip(steps, moments):
                means[name], variances[name] = mean, variance
            self.stats.kernel_evals += evals
            self.stats.lane_sweeps += lanes
            self.stats.queries += 1
            self.stats.head_queries += len(names)
            self.stats.wall_time_s += time.perf_counter() - started
            if sp:
                sp.set("heads", len(names))
                sp.set("points", int(joint.shape[0]))
            return PosteriorBatch(joint_grid=joint, means=means, variances=variances)
