"""Exact Gaussian-process regression with incremental updates.

Implements the posterior equations (3)-(4) of the paper through a
Cholesky factorisation of ``K + zeta^2 I``:

* adding one observation is a rank-1 extension of the factor (no
  refactorisation): one kernel row against the cached scaled inputs,
  one O(N^2) triangular solve and O(N) writes, which keeps the
  per-period cost of Algorithm 1 quadratic rather than cubic;
* the whole posterior state is the factor ``L`` and the whitened
  residual ``w = L^-1 (y - m)``: the mean is ``m + v^T w`` and the
  variance ``k(x*, x*) - v^T v`` with ``v = L^-1 K(X, x*)`` (eqs. 3-4);
* the inputs, their lengthscale-scaled copy, the targets, ``w`` and
  ``L`` live in capacity-doubled buffers and the state is their
  ``[:N]`` views, so an add appends in place.  The factor buffer is
  ``C x C`` with ``C < 2N``, up to 4x the factor's own memory (32 MB
  per head at N = 1000 in the worst case);
* an optional observation budget evicts the oldest points in blocks
  (subset-of-data), bounding memory and per-period cost for very long
  runs such as the 3000-period comparison of Fig. 14;
* numerical failures degrade instead of crashing: an unhealthy rank-1
  extension falls back to a full refactorisation, the refactorisation
  escalates diagonal jitter with bounded retries
  (:func:`repro.core.numerics.robust_cholesky`), and only an exhausted
  ladder raises a diagnosable
  :class:`~repro.core.numerics.NumericalInstabilityError` — see
  ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cholesky
from scipy.linalg.lapack import dtrtrs

from repro.core.kernels import Kernel, ScaledPoints
from repro.core.numerics import NumericalInstabilityError, robust_cholesky
from repro.telemetry import runtime as telemetry
from repro.utils.validation import check_finite_array, check_positive


class GaussianProcess:
    """Exact GP regression model with online updates.

    Parameters
    ----------
    kernel:
        Covariance function over the input space.
    noise_variance:
        Observation noise variance ``zeta^2`` (eq. 3-4).
    max_observations:
        Optional cap on retained observations.  When the buffer exceeds
        ``max_observations + eviction_block`` the oldest
        ``eviction_block`` points are dropped and the factor rebuilt.
    eviction_block:
        Eviction granularity (amortises the rebuild cost).
    prior_mean:
        Constant prior mean ``mu(z)``.  The paper assumes ``mu = 0``
        w.l.o.g.; for *safety-critical* surrogates a pessimistic prior
        mean (high for delay, low for mAP) makes unexplored regions
        fail the safe-set test instead of passing it optimistically.
    fault_hook:
        Optional ``hook(site, attempt)`` consulted before every
        factorisation attempt; the fault-injection subsystem
        (:mod:`repro.faults`) uses it to force deterministic
        ``LinAlgError`` failures.  ``None`` (default) adds no overhead.
    eviction_policy:
        Optional ``policy(x, y, budget) -> keep_indices`` deciding
        *which* observations to retain when the budget is exceeded
        (e.g. the inducing-subset selection of :mod:`repro.core.sparse`).
        ``None`` (default) keeps the historical oldest-block behaviour:
        drop the oldest ``eviction_block`` rows, retaining
        ``n - eviction_block`` points — bit-identical to the
        pre-policy implementation.  A policy trims the buffer all the
        way down to ``max_observations`` retained points.
    """

    def __init__(
        self,
        kernel: Kernel,
        noise_variance: float = 1e-4,
        max_observations: int | None = None,
        eviction_block: int = 100,
        prior_mean: float = 0.0,
        fault_hook=None,
        eviction_policy=None,
    ) -> None:
        self._factor_version = 0
        # Capacity-doubled buffers (allocated on the first observation);
        # the state below is their [:n] views.  The factor buffer's upper
        # triangle is always zero.
        self._x_buf: np.ndarray | None = None
        self._y_buf: np.ndarray | None = None
        self._w_buf: np.ndarray | None = None
        self._chol_buf: np.ndarray | None = None
        self._scaled_buf: ScaledPoints | None = None
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        # Whitened residual L^-1 (y - prior_mean): the posterior mean is
        # prior_mean + v^T w with v = L^-1 K(X, x*).
        self._w: np.ndarray | None = None
        # kernel.scale(X), valid while the kernel's lengthscales are.
        self._scaled: ScaledPoints | None = None
        self.kernel = kernel
        self.noise_variance = noise_variance
        if not np.isfinite(prior_mean):
            raise ValueError(f"prior_mean must be finite, got {prior_mean}")
        self.prior_mean = float(prior_mean)
        if max_observations is not None and max_observations < 1:
            raise ValueError("max_observations must be >= 1 when set")
        if eviction_block < 1:
            raise ValueError("eviction_block must be >= 1")
        self.max_observations = max_observations
        self.eviction_block = int(eviction_block)
        self.eviction_policy = eviction_policy
        self._evictions = 0
        self._fault_hook = fault_hook
        self._jitter_retries = 0
        self._rank1_fallbacks = 0
        self._last_jitter = 0.0

    # -- state ----------------------------------------------------------

    @property
    def kernel(self) -> Kernel:
        """Covariance function; assigning one bumps :attr:`factor_version`."""
        return self._kernel

    @kernel.setter
    def kernel(self, kernel: Kernel) -> None:
        """Swap the kernel; the factor is stale until the next :meth:`fit`."""
        self._kernel = kernel
        self._factor_version += 1
        if self._x is not None:
            self._rescale()

    @property
    def noise_variance(self) -> float:
        """Observation noise variance ``zeta^2``."""
        return self._noise_variance

    @noise_variance.setter
    def noise_variance(self, noise_variance: float) -> None:
        """Set ``zeta^2`` (positive); bumps :attr:`factor_version`."""
        self._noise_variance = check_positive(noise_variance, "noise_variance")
        self._factor_version += 1

    @property
    def factor_version(self) -> int:
        """Counter identifying the current Cholesky factor lineage.

        Rank-1 extensions via :meth:`add` keep the version (the factor of
        the first N points is a leading principal block of the extended
        one, so caches keyed on it can grow incrementally); anything that
        rebuilds or invalidates the factor — :meth:`fit`, eviction, a
        kernel or noise change — bumps it.
        """
        return self._factor_version

    @property
    def jitter_retries(self) -> int:
        """Cumulative jittered Cholesky retries (degradation ladder)."""
        return self._jitter_retries

    @property
    def rank1_fallbacks(self) -> int:
        """Rank-1 extensions that fell back to a full refactorisation."""
        return self._rank1_fallbacks

    @property
    def last_jitter(self) -> float:
        """Diagonal jitter of the current factor (0.0 = bare Cholesky)."""
        return self._last_jitter

    @property
    def evictions(self) -> int:
        """How many budget evictions have trimmed the observation buffer."""
        return self._evictions

    @property
    def factor_available(self) -> bool:
        """Whether a usable Cholesky factor exists for the current data.

        ``False`` only after a factorisation exhausted the jitter ladder
        (:class:`~repro.core.numerics.NumericalInstabilityError`); a
        successful :meth:`fit` over the retained data restores it.
        """
        return self._x is None or self._chol is not None

    def _posterior_state(self):
        """``(x, chol, w, factor_version)`` without copies.

        ``w = L^-1 (y - prior_mean)`` is the whitened residual.  Within
        one factor lineage :meth:`add` only appends to it; only
        :meth:`set_prior_mean` rewrites its leading entries.  Internal
        hot-path accessor for :class:`~repro.core.posterior.
        SurrogateEngine`; callers must treat the arrays as read-only.
        """
        return self._x, self._chol, self._w, self._factor_version

    @property
    def n_observations(self) -> int:
        """Number of retained observations ``N``."""
        return 0 if self._y is None else int(self._y.size)

    @property
    def inputs(self) -> np.ndarray:
        """Copy of the retained training inputs."""
        if self._x is None:
            return np.empty((0, self.kernel.n_dims))
        return self._x.copy()

    @property
    def targets(self) -> np.ndarray:
        """Copy of the retained training targets."""
        if self._y is None:
            return np.empty(0)
        return self._y.copy()

    # -- buffers --------------------------------------------------------

    def _reserve(self, rows: int) -> None:
        """Grow the buffers to hold ``rows`` observations.

        Capacity doubles (at least 8), and the live ``[:n]`` rows and the
        ``[:n, :n]`` factor block are carried over.  The views are not
        refreshed here: every caller resets them after its own writes.
        """
        capacity = 0 if self._y_buf is None else self._y_buf.size
        if rows <= capacity:
            return
        capacity = max(rows, 2 * capacity, 8)
        n, d = self.n_observations, self.kernel.n_dims
        x_buf = np.empty((capacity, d))
        y_buf = np.empty(capacity)
        w_buf = np.empty(capacity)
        chol_buf = np.zeros((capacity, capacity))
        scaled_buf = ScaledPoints(np.empty((capacity, d)), np.empty(capacity))
        if n:
            x_buf[:n] = self._x_buf[:n]
            y_buf[:n] = self._y_buf[:n]
            w_buf[:n] = self._w_buf[:n]
            chol_buf[:n, :n] = self._chol_buf[:n, :n]
            scaled_buf.points[:n] = self._scaled_buf.points[:n]
            scaled_buf.sq_norms[:n] = self._scaled_buf.sq_norms[:n]
        self._x_buf, self._y_buf, self._w_buf = x_buf, y_buf, w_buf
        self._chol_buf, self._scaled_buf = chol_buf, scaled_buf

    def _set_views(self, n: int) -> None:
        """Point the state at the buffers' ``[:n]`` rows and factor block.

        Callers that write rows without a factor row (:meth:`_load`, the
        rank-1 fallback) refactorise or invalidate the factor next.
        """
        self._x = self._x_buf[:n]
        self._y = self._y_buf[:n]
        self._w = self._w_buf[:n]
        self._chol = self._chol_buf[:n, :n]
        self._scaled = ScaledPoints(
            self._scaled_buf.points[:n], self._scaled_buf.sq_norms[:n]
        )

    def _load(self, x: np.ndarray, y: np.ndarray) -> None:
        """Make ``(x, y)`` the retained data; the factor is left stale."""
        n = y.size
        self._reserve(n)
        self._x_buf[:n] = x
        self._y_buf[:n] = y
        self._set_views(n)

    def _rescale(self) -> None:
        """Recompute the scaled inputs after the inputs or kernel changed."""
        scaled = self.kernel.scale(self._x)
        self._scaled.points[:] = scaled.points
        self._scaled.sq_norms[:] = scaled.sq_norms

    def _solve_lower(self, b: np.ndarray, overwrite_b: bool = False):
        """``L^-1 b`` against the live factor, without copying it.

        Makes the LAPACK ``trtrs`` call ``solve_triangular(L, b,
        lower=True)`` would make, so the result has the same bits.  For
        the buffer view that is ``trtrs`` on the Fortran-ordered ``L^T``
        (upper, transposed), passed as the leading ``n`` columns of the
        transposed buffer: the capacity becomes the leading dimension and
        nothing is copied.  A factor fresh from :meth:`_refactorize` is
        Cholesky's own Fortran-ordered array and is solved as it is
        (lower, not transposed).  Raises ``LinAlgError`` on ``info != 0``.
        """
        chol = self._chol
        if chol.flags.f_contiguous:
            solved, info = dtrtrs(chol, b, lower=1, overwrite_b=overwrite_b)
        else:
            solved, info = dtrtrs(
                self._chol_buf.T[:, : chol.shape[0]], b, lower=0, trans=1,
                overwrite_b=overwrite_b,
            )
        if info != 0:
            raise np.linalg.LinAlgError(f"trtrs failed with info={info}")
        return solved

    def _restore(self, x, y, chol, w, fortran: bool) -> None:
        """Install snapshot arrays verbatim (see :mod:`repro.core.state`).

        ``chol``/``w`` are ``None`` for an invalidated factor; all four
        are ``None`` for an empty GP.  ``fortran`` marks a factor that
        was still :meth:`_refactorize`'s Fortran-ordered array, so its
        solves keep their LAPACK branch.  The kernel must already carry
        the restored lengthscales: the scaled inputs are rebuilt from it.
        """
        if x is None:
            self._x = self._y = self._chol = self._w = self._scaled = None
            return
        self._load(x, y)
        self._rescale()
        if chol is None:
            self._chol = self._w = None
            return
        self._chol[:] = chol
        self._w[:] = w
        if fortran:
            self._chol = np.asfortranarray(chol)

    # -- training -------------------------------------------------------

    def set_prior_mean(self, prior_mean: float) -> None:
        """Change the constant prior mean, recomputing the posterior.

        Cheap (one triangular solve for ``w``); used when a safety
        surrogate's pessimism level must track a changed constraint
        threshold.  Setting the current value is a no-op.
        """
        if not np.isfinite(prior_mean):
            raise ValueError(f"prior_mean must be finite, got {prior_mean}")
        if float(prior_mean) == self.prior_mean:
            # A full re-solve would change the last bits of the
            # incrementally built w behind the engine's prior-mean stamps.
            return
        self.prior_mean = float(prior_mean)
        if self._y is not None and self._chol is not None:
            self._solve_targets()

    def fit(self, x: np.ndarray, y: np.ndarray) -> None:
        """Replace the training set and refactorise (O(N^3) Cholesky)."""
        with telemetry.span("core.gp.fit") as sp:
            x = np.asarray(x, dtype=float)
            if x.ndim == 1:
                x = x[None, :]
            y = np.asarray(y, dtype=float).ravel()
            if x.shape[0] != y.size:
                raise ValueError(
                    f"got {x.shape[0]} inputs but {y.size} targets"
                )
            if x.shape[1] != self.kernel.n_dims:
                raise ValueError(
                    f"inputs must have {self.kernel.n_dims} dims, got {x.shape[1]}"
                )
            check_finite_array(x, "training inputs")
            check_finite_array(y, "training targets")
            if sp:
                sp.set("n", int(y.size))
            if y.size == 0:
                self._x = self._y = self._chol = self._w = self._scaled = None
                self._factor_version += 1
                return
            self._load(x, y)
            self._refactorize()

    def add(self, x_new: np.ndarray, y_new: float) -> None:
        """Append one observation with a rank-1 Cholesky extension.

        One kernel row, one O(N^2) triangular solve and O(N) writes per
        call; instrumented as the ``core.gp.add`` counter and the
        ``core.gp.add_s`` duration histogram (seconds) when telemetry is
        enabled.
        """
        if not telemetry.enabled():
            self._add(x_new, y_new)
            return
        started = time.perf_counter()
        self._add(x_new, y_new)
        telemetry.inc("core.gp.add")
        telemetry.observe("core.gp.add_s", time.perf_counter() - started)

    def _add(self, x_new: np.ndarray, y_new: float) -> None:
        x_new = np.asarray(x_new, dtype=float).ravel()
        if x_new.size != self.kernel.n_dims:
            raise ValueError(
                f"input must have {self.kernel.n_dims} dims, got {x_new.size}"
            )
        check_finite_array(x_new, "observation input")
        if not np.isfinite(y_new):
            raise ValueError(
                f"observation target must be finite, got {y_new!r}"
            )
        if self._x is None:
            self.fit(x_new[None, :], np.array([y_new]))
            return

        if not self._try_rank1(x_new, y_new):
            # Degradation ladder step 1: the incremental extension is
            # numerically unhealthy (or fault-injected) — retain the
            # observation and rebuild the factor from scratch, which
            # escalates jitter on its own if needed.
            self._rank1_fallbacks += 1
            telemetry.inc("core.gp.rank1_fallbacks")
            self._append(x_new, y_new, self.kernel.scale(x_new))
            self._refactorize()
        self._maybe_evict()

    def _append(self, x_new: np.ndarray, y_new: float,
                scaled_new: ScaledPoints) -> None:
        """Write one observation and its scaled input after the live rows."""
        n = self.n_observations
        self._reserve(n + 1)
        self._x_buf[n] = x_new
        self._y_buf[n] = y_new
        self._scaled_buf.points[n] = scaled_new.points[0]
        self._scaled_buf.sq_norms[n] = scaled_new.sq_norms[0]
        self._set_views(n + 1)

    def _try_rank1(self, x_new: np.ndarray, y_new: float) -> bool:
        """Attempt the rank-1 factor extension; False on failure.

        Fails (without mutating state) when the forward solve reports
        ``info != 0`` or produces non-finite entries, the new pivot is
        non-finite or significantly negative — symptoms of a factor
        drifting from the true Gram, or of a non-finite factor or kernel
        entry — or the fault hook forces a failure.
        """
        if self._chol is None:
            return False
        if self._fault_hook is not None:
            try:
                self._fault_hook("rank1", 0)
            except np.linalg.LinAlgError:
                return False
        scaled_new = self.kernel.scale(x_new)
        cross = self.kernel(self._scaled, scaled_new).ravel()
        self_var = float(self.kernel.diag(x_new[None, :])[0]) + self.noise_variance
        try:
            row = self._solve_lower(cross, overwrite_b=True)
        except np.linalg.LinAlgError:
            return False
        pivot_sq = self_var - float(row @ row)
        if not np.all(np.isfinite(row)) or not np.isfinite(pivot_sq):
            return False
        if pivot_sq <= -1e-6 * self_var:
            return False
        # Numerical floor: keep the factor positive definite even for a
        # duplicated input point.
        pivot = np.sqrt(max(pivot_sq, 1e-12))
        # The factor's new last row [row, pivot] extends w by one entry.
        w_new = (float(y_new) - self.prior_mean - row @ self._w) / pivot

        n = self.n_observations
        self._append(x_new, y_new, scaled_new)
        self._chol_buf[n, :n] = row
        self._chol_buf[n, n] = pivot
        self._w_buf[n] = w_new
        return True

    def _maybe_evict(self) -> None:
        if self.max_observations is None:
            return
        if self.n_observations <= self.max_observations + self.eviction_block:
            return
        if self.eviction_policy is None:
            keep = self.n_observations - self.eviction_block
            self._load(self._x[-keep:], self._y[-keep:])
        else:
            indices = np.asarray(
                self.eviction_policy(self._x, self._y, self.max_observations),
                dtype=int,
            )
            if indices.ndim != 1 or indices.size < 1 \
                    or indices.size > self.n_observations:
                raise ValueError(
                    f"eviction policy returned an invalid index set of "
                    f"shape {indices.shape} for n={self.n_observations}"
                )
            indices = np.unique(indices)  # sorted: preserves arrival order
            self._load(self._x[indices], self._y[indices])
        self._evictions += 1
        telemetry.inc("core.gp.evictions")
        self._refactorize()

    def _refactorize(self) -> None:
        """Rebuild the scaled inputs and the factor, escalating jitter.

        Degradation ladder steps 2-3: a bare Cholesky first, then
        bounded jittered retries; an exhausted ladder invalidates the
        factor (data retained, :attr:`factor_available` false) and
        raises :class:`~repro.core.numerics.NumericalInstabilityError`
        so callers can degrade to a safe policy and re-:meth:`fit`
        later.
        """
        self._rescale()
        gram = self.kernel(self._x, self._x)
        gram[np.diag_indices_from(gram)] += self.noise_variance
        try:
            chol, jitter, retries = robust_cholesky(
                gram, fault_hook=self._fault_hook, site="refactorize"
            )
        except NumericalInstabilityError:
            self._chol = self._w = None
            self._factor_version += 1
            raise
        self._jitter_retries += retries
        self._last_jitter = jitter
        n = self.n_observations
        self._chol_buf[:n, :n] = chol
        # Until the next rank-1 step the factor stays Cholesky's
        # Fortran-ordered array, whose solves take solve_triangular's
        # other LAPACK branch (with other rounding): the buffer copy is
        # what the next rank-1 step extends.
        self._chol = chol
        self._solve_targets()
        self._factor_version += 1

    def _solve_targets(self) -> None:
        """Recompute ``w`` into its buffer from the factor and the targets."""
        n = self.n_observations
        self._w_buf[:n] = self._solve_lower(
            self._y - self.prior_mean, overwrite_b=True
        )
        self._w = self._w_buf[:n]

    # -- prediction -----------------------------------------------------

    def predict(self, x_star: np.ndarray):
        """Posterior mean and variance at query points.

        Implements eqs. (3)-(4) as ``prior_mean + v^T w`` and
        ``k(z, z) - v^T v`` with ``v = L^-1 K(X, z)`` — the formulas of
        :class:`~repro.core.posterior.SurrogateEngine`.  With no
        observations, returns the prior (``prior_mean``, ``k(z, z)``
        variance).

        Returns
        -------
        (mean, variance):
            Arrays of length ``n_queries``.
        """
        x_star = np.asarray(x_star, dtype=float)
        if x_star.ndim == 1:
            x_star = x_star[None, :]
        if x_star.shape[1] != self.kernel.n_dims:
            raise ValueError(
                f"queries must have {self.kernel.n_dims} dims, got {x_star.shape[1]}"
            )
        check_finite_array(x_star, "query points")
        prior_var = self.kernel.diag(x_star)
        if self._x is None:
            return np.full(x_star.shape[0], self.prior_mean), prior_var
        if self._chol is None:
            raise NumericalInstabilityError(
                "posterior unavailable: the Cholesky factor was invalidated "
                "by a failed refactorisation; call fit() to rebuild it"
            )
        v = self._solve_lower(self.kernel(self._scaled, x_star))
        mean = self.prior_mean + v.T @ self._w
        variance = np.maximum(prior_var - np.sum(v**2, axis=0), 0.0)
        return mean, variance

    def predict_std(self, x_star: np.ndarray):
        """Posterior mean and standard deviation at query points."""
        mean, variance = self.predict(x_star)
        return mean, np.sqrt(variance)

    def sample_posterior(self, x_star: np.ndarray, n_samples: int = 1, rng=None):
        """Draw joint posterior function samples at query points."""
        from repro.utils.rng import ensure_rng

        generator = ensure_rng(rng)
        x_star = np.asarray(x_star, dtype=float)
        if x_star.ndim == 1:
            x_star = x_star[None, :]
        mean, _ = self.predict(x_star)
        cov = self.kernel(x_star, x_star)
        if self._x is not None:
            v = self._solve_lower(self.kernel(self._scaled, x_star))
            cov = cov - v.T @ v
        cov[np.diag_indices_from(cov)] += 1e-10
        chol = cholesky(cov, lower=True)
        draws = generator.standard_normal((x_star.shape[0], n_samples))
        return mean[:, None] + chol @ draws
