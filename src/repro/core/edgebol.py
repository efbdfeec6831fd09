"""EdgeBOL — Algorithm 1 of the paper.

The online loop per orchestration period ``t``:

1. observe the context ``c_t``;
2. compute the GP posteriors of cost, delay and mAP over the control
   grid stacked with ``c_t`` (eqs. 3-4);
3. build the safe set ``S_t`` (eq. 8), always containing S0;
4. pick ``x_t`` by the safe cost-LCB acquisition (eq. 9);
5. observe the KPIs, compute the cost (eq. 1), and append the new
   (context, control) -> (cost, delay, mAP) triples to the GPs.

Hyperparameters are set a priori (or fitted offline on profiling data
through :meth:`EdgeBOL.fit_hyperparameters`) and frozen during the run,
per the paper's kernel-selection discussion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.acquisition import lcb_values, safe_lcb_index_from_posterior
from repro.core.gp import GaussianProcess
from repro.core.kernels import Matern
from repro.core.likelihood import fit_hyperparameters
from repro.core.numerics import (
    NumericalInstabilityError,
    NumericsConfig,
    active_numerics,
)
from repro.core.posterior import PosteriorBatch, SurrogateEngine
from repro.core.safeset import SafeSetEstimator
from repro.core.sparse import make_eviction_policy
from repro.faults import runtime as faults
from repro.telemetry import runtime as telemetry
from repro.testbed.config import (
    ControlPolicy,
    CostWeights,
    ServiceConstraints,
)
from repro.testbed.context import Context
from repro.testbed.env import TestbedObservation
from repro.utils.grids import nearest_grid_index
from repro.utils.validation import check_positive

#: GP index conventions matching the paper: i=0 cost, i=1 delay, i=2 mAP.
COST, DELAY, MAP = 0, 1, 2

#: Engine head names, in the paper's GP index order.
HEAD_NAMES = ("cost", "delay", "map")
#: Extra heads of the decoupled-power extension.
POWER_HEAD_NAMES = ("server_power", "bs_power")


def _default_lengthscales(context_dim: int,
                          control_grid: np.ndarray | None = None) -> np.ndarray:
    """Kernel lengthscales: context dims then the 4 control dims.

    Context coordinates are normalised to ~[0, 1]; controls are in
    [0, 1].  Control lengthscales scale with the grid spacing: the safe
    set can only grow if the confidence bound at a *neighbouring* grid
    point tightens below the constraint margin, which requires the
    kernel correlation across one grid step to be high.  Eight steps
    per lengthscale (floored at 0.8) keeps safe-set expansion working
    from 5-level to 11-level grids without oversmoothing.
    """
    context_scales = np.full(context_dim, 0.5)
    control_scales = np.full(4, 1.0)
    if control_grid is not None:
        for axis in range(4):
            levels = np.unique(control_grid[:, axis])
            if levels.size >= 2:
                step = float(np.median(np.diff(levels)))
                control_scales[axis] = float(np.clip(8.0 * step, 0.8, 2.5))
    return np.concatenate([context_scales, control_scales])


def _map_lengthscales(context_dim: int,
                      control_grid: np.ndarray | None = None) -> np.ndarray:
    """ARD lengthscales for the mAP surrogate.

    The offline maximum-likelihood fit on profiling data (the paper's
    procedure) discovers that mAP depends essentially only on the image
    resolution: the fitted ARD lengthscales of the context and of the
    airtime/GPU/MCS axes blow up.  Encoding that here keeps the safe
    set expanding along those axes even when the mAP threshold leaves
    only a thin margin at full resolution.
    """
    scales = _default_lengthscales(context_dim, control_grid=control_grid)
    scales[:context_dim] = 4.0           # mAP is context-independent
    scales[context_dim + 1:] = 6.0       # ... and airtime/GPU/MCS-independent
    return scales


@dataclass(frozen=True)
class EdgeBOLConfig:
    """Hyperparameters of the learner.

    Attributes
    ----------
    beta:
        Confidence multiplier (the paper's ``beta^{1/2} = 2.5``), used
        both in the safe set (eq. 8) and the acquisition (eq. 9).
    cost_output_scale, delay_output_scale, map_output_scale:
        Prior variances (``sigma_f^2``) of the three GPs, in squared
        KPI units.
    cost_noise, delay_noise, map_noise:
        Observation-noise variances ``zeta^2_(i)``.
    delay_clip_s:
        Observed delays are clipped here before entering the GP:
        unserved periods report effectively-infinite delay, and the GP
        needs a finite "at least this bad" target.
    delay_prior_mean_s, map_prior_mean:
        Constant prior means of the two safety GPs.  Both are chosen
        *pessimistic* (high delay, zero mAP) so unexplored regions fail
        the eq.-8 test until evidence accumulates; the cost GP keeps
        the zero (optimistic) prior that drives LCB exploration.
    max_observations:
        Observation budget per GP (subset-of-data for very long runs);
        ``None`` retains everything, as the paper does.  An explicit
        value here takes precedence over the sparse-mode budget of
        ``numerics``.
    numerics:
        Numerics-mode override (:class:`~repro.core.numerics.
        NumericsConfig`): dense, or sparse with an observation budget.
        ``None`` (default) follows the process-wide
        :func:`~repro.core.numerics.active_numerics` resolution
        (environment variables, else dense) —
        which is how the experiment CLIs' ``--numerics`` flags reach
        agents constructed deep inside sweep workers.
    quarantine_spike_factor:
        Robust outlier gate: once ``quarantine_min_history`` clean
        observations exist, a cost exceeding this multiple of the
        running median is quarantined (not fitted) — the guard against
        injected/real power-meter spikes.  See ``docs/ROBUSTNESS.md``.
    quarantine_min_history:
        Clean observations required before the spike gate arms (early
        exploration legitimately spans a wide cost range).
    """

    beta: float = 2.5
    noise_beta: float = 1.0
    delay_noise_rel: float = 0.05
    cost_output_scale: float = 60.0**2
    delay_output_scale: float = 0.15**2
    map_output_scale: float = 0.15**2
    cost_noise: float = 4.0
    delay_noise: float = 0.0004
    map_noise: float = 0.0004
    delay_clip_s: float = 1.5
    delay_prior_mean_s: float = 0.8
    map_prior_mean: float = 0.0
    max_observations: int | None = None
    numerics: NumericsConfig | None = None
    matern_nu: float = 1.5
    quarantine_spike_factor: float = 6.0
    quarantine_min_history: int = 10
    lengthscales: np.ndarray | None = field(default=None)
    #: Extension (Section 4.3 tariffs): model server and BS power with
    #: separate GPs so delta1/delta2 can change at runtime without any
    #: relearning.
    decoupled_power_gps: bool = False

    def __post_init__(self) -> None:
        check_positive(self.beta, "beta")
        check_positive(self.delay_clip_s, "delay_clip_s")
        check_positive(self.quarantine_spike_factor, "quarantine_spike_factor")
        if self.quarantine_min_history < 1:
            raise ValueError(
                f"quarantine_min_history must be >= 1, got "
                f"{self.quarantine_min_history}"
            )


class EdgeBOL:
    """Contextual safe Bayesian online learner (Algorithm 1).

    Parameters
    ----------
    control_grid:
        ``(|X|, 4)`` discretised control space (normalised coordinates,
        axis order of :meth:`ControlPolicy.to_array`).
    constraints:
        Service constraints (may be changed at runtime via
        :meth:`set_constraints`; the GP data is retained, which is what
        makes EdgeBOL adapt instantly in Fig. 14).
    cost_weights:
        The ``delta1, delta2`` of the cost function (eq. 1).
    config:
        Learner hyperparameters.
    context_dim:
        Length of the normalised context vector.
    max_users:
        Context normalisation bound (must match the environment's).
    """

    def __init__(
        self,
        control_grid: np.ndarray,
        constraints: ServiceConstraints,
        cost_weights: CostWeights,
        config: EdgeBOLConfig | None = None,
        context_dim: int = Context.dimension(),
        max_users: int = 8,
    ) -> None:
        grid = np.asarray(control_grid, dtype=float)
        if grid.ndim != 2 or grid.shape[1] != 4:
            raise ValueError(f"control_grid must be (n, 4), got {grid.shape}")
        if grid.shape[0] == 0:
            raise ValueError("control_grid is empty")
        self.control_grid = grid
        self.constraints = constraints
        self.cost_weights = cost_weights
        self.config = config if config is not None else EdgeBOLConfig()
        self.context_dim = int(context_dim)
        self.max_users = int(max_users)

        n_dims = self.context_dim + 4
        if self.config.lengthscales is not None:
            shared = np.asarray(self.config.lengthscales, dtype=float)
            if shared.size != n_dims:
                raise ValueError(
                    f"lengthscales must have {n_dims} entries, got {shared.size}"
                )
            per_gp_lengthscales = [shared, shared, shared]
        else:
            generic = _default_lengthscales(self.context_dim, control_grid=grid)
            per_gp_lengthscales = [
                generic,                                            # cost
                generic,                                            # delay
                _map_lengthscales(self.context_dim, control_grid=grid),  # mAP
            ]
        output_scales = (
            self.config.cost_output_scale,
            self.config.delay_output_scale,
            self.config.map_output_scale,
        )
        noises = (
            self.config.cost_noise,
            self.config.delay_noise,
            self.config.map_noise,
        )
        prior_means = (
            0.0,
            self.config.delay_prior_mean_s,
            self.config.map_prior_mean,
        )
        # Fault-injection hook (None unless a fault plan with GP specs
        # is installed): all heads share one injector so "one forced
        # Cholesky failure" means one event across the agent.
        gp_injector = faults.make_injector("gp")
        self._gp_fault_hook = (
            gp_injector.gp_hook if gp_injector is not None else None
        )
        # Numerics mode (dense / sparse budget): an explicit config
        # wins, else the process-wide resolution (installed config >
        # environment > dense defaults).
        self.numerics = (
            self.config.numerics if self.config.numerics is not None
            else active_numerics()
        )
        gp_budget_kwargs = self._gp_budget_kwargs()
        self._gps = [
            GaussianProcess(
                kernel=Matern(
                    lengthscales=scales,
                    output_scale=scale,
                    nu=self.config.matern_nu,
                ),
                noise_variance=noise,
                prior_mean=mean,
                fault_hook=self._gp_fault_hook,
                **gp_budget_kwargs(scales),
            )
            for scales, scale, noise, mean in zip(
                per_gp_lengthscales, output_scales, noises, prior_means
            )
        ]
        # Optional extension: model the two power draws with separate
        # GPs so energy-price changes (delta1/delta2) need no
        # relearning — the day/night tariff scenario of Section 4.3.
        self._power_gps: list[GaussianProcess] | None = None
        if self.config.decoupled_power_gps:
            generic = per_gp_lengthscales[COST]
            self._power_gps = [
                GaussianProcess(
                    kernel=Matern(
                        lengthscales=generic,
                        output_scale=scale,
                        nu=self.config.matern_nu,
                    ),
                    noise_variance=noise,
                    fault_hook=self._gp_fault_hook,
                    **gp_budget_kwargs(generic),
                )
                for scale, noise in (
                    (40.0**2, 6.0),    # server power: ~50-250 W, 2% meter
                    (1.5**2, 0.01),    # BS power: ~4-8 W, 2% meter
                )
            ]
        heads = dict(zip(HEAD_NAMES, self._gps))
        if self._power_gps is not None:
            heads.update(zip(POWER_HEAD_NAMES, self._power_gps))
        self._engine = SurrogateEngine(
            heads, grid, context_dim=self.context_dim
        )
        self._safe_estimator = SafeSetEstimator(
            beta=self.config.beta,
            noise_beta=self.config.noise_beta,
            delay_noise_rel=self.config.delay_noise_rel,
            map_noise_std=float(np.sqrt(self.config.map_noise)),
        )
        self._sync_delay_pessimism()
        self._s0_index = nearest_grid_index(
            grid, ControlPolicy.max_resources().to_array()
        )
        self._last_safe_size: int | None = None
        # Graceful-degradation state (docs/ROBUSTNESS.md): corrupted
        # observations are quarantined instead of fitted, and the agent
        # falls back to the always-safe S0 control while a surrogate
        # has no usable factor.
        self._quarantined = 0
        self._degraded_periods = 0
        self._surrogate_failures = 0
        self._recoveries = 0
        self._surrogate_down = False
        self._recent_costs: deque[float] = deque(maxlen=64)
        # Decision tracing (docs/OBSERVABILITY.md): None keeps every
        # hook to a single attribute check, so untraced runs pay
        # nothing and traced runs stay bit-identical (the tracer only
        # reads the batch the selection already computed).
        self._tracer = None

    def _gp_budget_kwargs(self):
        """Factory for per-head observation-budget constructor kwargs.

        Dense mode passes exactly the historical arguments (an optional
        ``max_observations`` with the GP's own oldest-block eviction),
        keeping default runs bit-identical.  Sparse mode resolves the
        budget — an explicit ``config.max_observations`` wins over the
        numerics ``sparse_budget`` — and attaches the inducing-subset
        eviction policy of :mod:`repro.core.sparse`, scaled by the
        head's own ARD lengthscales (hence the per-head callable).
        """
        config = self.config
        numerics = self.numerics
        if not numerics.sparse:
            def kwargs(scales) -> dict:
                return {"max_observations": config.max_observations}
            return kwargs
        budget = (
            config.max_observations if config.max_observations is not None
            else numerics.sparse_budget
        )

        def kwargs(scales) -> dict:
            return {
                "max_observations": budget,
                "eviction_block": numerics.sparse_block,
                "eviction_policy": make_eviction_policy(
                    scales, recent_fraction=numerics.recent_fraction
                ),
            }
        return kwargs

    # -- introspection ---------------------------------------------------

    @property
    def numerics_mode(self) -> str:
        """Active numerics mode label (``dense`` or ``sparse``).

        Stamped on decision-trace records so ``repro report`` can
        attribute anomalies to sparse approximation error.
        """
        return self.numerics.mode

    @property
    def gps(self) -> tuple[GaussianProcess, GaussianProcess, GaussianProcess]:
        """The three surrogates (cost, delay, mAP)."""
        return tuple(self._gps)

    @property
    def n_observations(self) -> int:
        return self._gps[COST].n_observations

    @property
    def s0_index(self) -> int:
        """Grid index of the always-safe maximum-resource control."""
        return self._s0_index

    @property
    def last_safe_set_size(self) -> int | None:
        """|S_t| computed during the most recent :meth:`select` call."""
        return self._last_safe_size

    @property
    def engine(self) -> SurrogateEngine:
        """The shared multi-head posterior engine (grid hot path)."""
        return self._engine

    @property
    def degraded(self) -> bool:
        """Whether the agent is currently running on the S0 fallback."""
        return self._surrogate_down

    @property
    def quarantined_observations(self) -> int:
        """Observations rejected by the quarantine gate so far."""
        return self._quarantined

    def head_surrogates(self) -> dict:
        """Head-name → GP mapping, in the engine's head order.

        The decision tracer (:mod:`repro.obs`) uses this to report GP
        hyperparameters and calibration per head without reaching into
        private state.
        """
        heads = dict(zip(HEAD_NAMES, self._gps))
        if self._power_gps is not None:
            heads.update(zip(POWER_HEAD_NAMES, self._power_gps))
        return heads

    def attach_tracer(self, tracer) -> None:
        """Attach a decision tracer (``None`` detaches).

        The tracer receives ``on_select`` / ``on_degraded`` /
        ``on_observe`` callbacks each period; see
        :class:`repro.obs.decision.DecisionTracer`.
        """
        self._tracer = tracer

    def robustness_stats(self) -> dict:
        """Quarantine/degradation counters for the run log.

        Keys: ``quarantined`` (observations rejected by the gate),
        ``degraded_periods`` (periods served by the S0 fallback),
        ``surrogate_failures`` (factorisations that exhausted the jitter
        ladder), ``recoveries`` (successful refits after a failure),
        ``jitter_retries`` / ``rank1_fallbacks`` (GP degradation-ladder
        activity, summed over all heads).
        """
        gps = list(self._gps) + list(self._power_gps or ())
        return {
            "quarantined": self._quarantined,
            "degraded_periods": self._degraded_periods,
            "surrogate_failures": self._surrogate_failures,
            "recoveries": self._recoveries,
            "jitter_retries": sum(gp.jitter_retries for gp in gps),
            "rank1_fallbacks": sum(gp.rank1_fallbacks for gp in gps),
        }

    # -- the online loop --------------------------------------------------

    def _context_array(self, context: Context) -> np.ndarray:
        return context.to_array(max_users=self.max_users)

    def _joint_point(self, context: Context, policy: ControlPolicy) -> np.ndarray:
        return np.concatenate(
            [self._context_array(context), policy.to_array()]
        )

    def _select_heads(self) -> tuple[str, ...]:
        """Heads one period's sweep needs, evaluated in a single pass."""
        if self._power_gps is not None:
            return ("delay", "map") + POWER_HEAD_NAMES
        return HEAD_NAMES

    def posterior(self, context: Context) -> PosteriorBatch:
        """All surrogate posteriors over the grid for ``context``."""
        return self._engine.posterior(self._context_array(context))

    def _safe_mask_from_batch(self, batch: PosteriorBatch) -> np.ndarray:
        return self._safe_estimator.safe_mask(
            batch,
            d_max_s=self.constraints.d_max_s,
            rho_min=self.constraints.rho_min,
            always_safe=np.array([self._s0_index]),
        )

    def safe_mask(self, context: Context) -> np.ndarray:
        """Boolean S_t over the control grid for ``context`` (eq. 8)."""
        batch = self._engine.posterior(
            self._context_array(context), heads=("delay", "map")
        )
        return self._safe_mask_from_batch(batch)

    def safe_set_size(self, context: Context) -> int:
        """|S_t| for ``context`` — the quantity plotted in Fig. 13."""
        return int(np.count_nonzero(self.safe_mask(context)))

    def select(self, context: Context) -> ControlPolicy:
        """Pick the control for this period (Algorithm 1, lines 4-7).

        One :class:`SurrogateEngine` sweep evaluates every head over the
        context's joint grid; the safe set (eq. 8) and the acquisition
        (eq. 9) both consume that batch — no further ``predict`` calls.

        Degraded mode: while any surrogate has no usable factor (a
        factorisation exhausted the jitter ladder), the agent first
        attempts a recovery refit; if that also fails it returns the
        always-safe maximum-resource control S0 for the period instead
        of crashing — the §5 "Practical Issues" stance.
        """
        with telemetry.span("edgebol.select") as sp:
            if self._surrogate_down and not self._try_recover():
                return self._degraded_select(sp, context)
            try:
                batch = self._engine.posterior(
                    self._context_array(context), heads=self._select_heads()
                )
                mask = self._safe_mask_from_batch(batch)
                self._last_safe_size = int(np.count_nonzero(mask))
                index = safe_lcb_index_from_posterior(
                    *self._cost_moments(batch), mask, beta=self.config.beta
                )
            except NumericalInstabilityError:
                self._mark_surrogate_down()
                return self._degraded_select(sp, context)
            if self._tracer is not None:
                self._tracer.on_select(context, batch, mask, index)
            if sp:
                sp.set("safe_set_size", self._last_safe_size)
                sp.set("n_observations", self.n_observations)
            return ControlPolicy.from_array(self.control_grid[index])

    def _degraded_select(self, sp, context: Context) -> ControlPolicy:
        """One period of the S0 fallback (surrogate unavailable)."""
        self._degraded_periods += 1
        telemetry.inc("edgebol.degraded_periods")
        self._last_safe_size = 1
        if self._tracer is not None:
            self._tracer.on_degraded(context)
        if sp:
            sp.set("degraded", True)
        return ControlPolicy.from_array(self.control_grid[self._s0_index])

    def _mark_surrogate_down(self) -> None:
        """Record one surrogate collapse (jitter ladder exhausted)."""
        self._surrogate_down = True
        self._surrogate_failures += 1
        telemetry.inc("edgebol.surrogate_failures")

    def _try_recover(self) -> bool:
        """Refit every factor-less surrogate from its retained data.

        The observation buffers survive a factorisation failure, so a
        successful refit restores the full posterior (no knowledge is
        lost); returns whether the agent is healthy again.
        """
        for gp in list(self._gps) + list(self._power_gps or ()):
            if gp.factor_available:
                continue
            try:
                gp.fit(gp.inputs, gp.targets)
            except NumericalInstabilityError:
                return False
        self._surrogate_down = False
        self._recoveries += 1
        telemetry.inc("edgebol.recoveries")
        return True

    def _cost_moments(self, batch: PosteriorBatch) -> tuple[np.ndarray, np.ndarray]:
        """Full-grid ``(mean, std)`` of the cost from an engine sweep.

        In the default coupled mode this is the cost head itself.  In
        decoupled-power mode ``u = delta1 p_s + delta2 p_b`` is linear
        in the (independent) GP posteriors of the two power heads, so
        its posterior is Gaussian with
        ``mu = delta1 mu_s + delta2 mu_b`` and
        ``sigma^2 = delta1^2 sigma_s^2 + delta2^2 sigma_b^2``.
        """
        if self._power_gps is None:
            return batch.moments("cost")
        s_mean, s_std = batch.moments("server_power")
        b_mean, b_std = batch.moments("bs_power")
        d1, d2 = self.cost_weights.delta1, self.cost_weights.delta2
        mean = d1 * s_mean + d2 * b_mean
        std = np.sqrt((d1 * s_std) ** 2 + (d2 * b_std) ** 2)
        return mean, std

    def cost_lcb_values(self, batch: PosteriorBatch) -> np.ndarray:
        """Full-grid eq.-9 objective (cost LCB) from an engine sweep.

        This is exactly the surface :meth:`select` minimises over the
        safe set.  Decision traces use it to price safety (chosen vs
        unconstrained LCB); it reads only the batch, so calling it
        cannot perturb a run.
        """
        return lcb_values(*self._cost_moments(batch), beta=self.config.beta)

    def update(
        self,
        context: Context,
        policy: ControlPolicy,
        cost: float,
        delay_s: float,
        map_score: float,
        server_power_w: float | None = None,
        bs_power_w: float | None = None,
    ) -> None:
        """Ingest one period's feedback (Algorithm 1, lines 8-13).

        With ``decoupled_power_gps`` the raw power readings must be
        supplied so the per-component surrogates can learn.
        """
        z = self._joint_point(context, policy)
        delay = float(np.clip(delay_s, 0.0, self._delay_clip))
        try:
            self._gps[COST].add(z, float(cost))
            self._gps[DELAY].add(z, delay)
            self._gps[MAP].add(z, float(np.clip(map_score, 0.0, 1.0)))
            if self._power_gps is not None:
                if server_power_w is None or bs_power_w is None:
                    raise ValueError(
                        "decoupled_power_gps requires server_power_w and "
                        "bs_power_w in update()"
                    )
                self._power_gps[0].add(z, float(server_power_w))
                self._power_gps[1].add(z, float(bs_power_w))
        except NumericalInstabilityError:
            # The observation is retained in the GP buffers; the next
            # select() attempts a recovery refit and serves S0 meanwhile.
            self._mark_surrogate_down()

    def _quarantine_reason(self, observation: TestbedObservation,
                           cost: float) -> str | None:
        """Why this observation must not reach the surrogates (or None).

        Gates: non-finite cost or mAP, NaN delay (*infinite* delay is a
        legitimate unserved-period signal and is clipped, not dropped),
        non-finite or non-positive power readings (a real draw is never
        0 W — a zero is a meter dropout), and — once enough clean
        history exists — a cost spike beyond ``quarantine_spike_factor``
        times the running median (meter outliers).
        """
        if not np.isfinite(cost):
            return "non-finite cost"
        if np.isnan(observation.delay_s):
            return "NaN delay"
        if not np.isfinite(observation.map_score):
            return "non-finite mAP"
        for name, power in (("server", observation.server_power_w),
                            ("bs", observation.bs_power_w)):
            if not np.isfinite(power) or power <= 0.0:
                return f"implausible {name} power reading ({power!r} W)"
        if len(self._recent_costs) >= self.config.quarantine_min_history:
            median = float(np.median(self._recent_costs))
            if median > 0.0 and cost > self.config.quarantine_spike_factor * median:
                return (
                    f"cost spike ({cost:.1f} vs running median {median:.1f})"
                )
        return None

    def observe(
        self,
        context: Context,
        policy: ControlPolicy,
        observation: TestbedObservation,
    ) -> float:
        """Compute the cost (eq. 1) from raw KPIs and update; returns it.

        Corrupted KPI samples (NaN/dropout/outlier power readings, NaN
        delay or mAP) are *quarantined*: counted, logged, and withheld
        from the surrogates — one bad meter sample must not poison the
        safe set.  The (possibly garbage) cost is still returned so the
        caller's accounting reflects what actually happened.
        """
        with telemetry.span("edgebol.observe") as sp:
            cost = self.cost_weights.cost(
                observation.server_power_w, observation.bs_power_w
            )
            reason = self._quarantine_reason(observation, cost)
            if reason is not None:
                self._quarantined += 1
                telemetry.inc("edgebol.quarantined")
                if self._tracer is not None:
                    self._tracer.on_observe(
                        context, policy, observation, cost, reason
                    )
                if sp:
                    sp.set("quarantined", reason)
                return cost
            self._recent_costs.append(float(cost))
            if self._tracer is not None:
                # Before update(): the tracer scores the select-time
                # posterior against this observation (one-step-ahead),
                # so the record must close before the GP absorbs it.
                self._tracer.on_observe(context, policy, observation,
                                        cost, None)
            self.update(
                context,
                policy,
                cost=cost,
                delay_s=observation.delay_s,
                map_score=observation.map_score,
                server_power_w=observation.server_power_w,
                bs_power_w=observation.bs_power_w,
            )
            if sp:
                sp.set("cost", float(cost))
            return cost

    # -- runtime reconfiguration ------------------------------------------

    def _sync_delay_pessimism(self) -> None:
        """Keep the delay surrogate's pessimism above the threshold.

        The pessimistic prior mean and the clip level only protect the
        safe set if they *exceed* ``d_max``; a lax delay bound (e.g.
        the 2 s of Fig. 12) would otherwise make unexplored regions
        pass the eq.-8 test.
        """
        d_max = self.constraints.d_max_s
        self._delay_clip = max(self.config.delay_clip_s, 2.0 * d_max)
        prior = max(self.config.delay_prior_mean_s, 1.5 * d_max)
        self._gps[DELAY].set_prior_mean(prior)

    def set_constraints(self, constraints: ServiceConstraints) -> None:
        """Change the service constraints without discarding knowledge.

        Because the surrogates model the raw KPIs (not their feasibility),
        the safe set for the new thresholds is available immediately —
        the key advantage over the parametric DDPG benchmark in Fig. 14.
        """
        self.constraints = constraints
        self._sync_delay_pessimism()

    def set_cost_weights(self, cost_weights: CostWeights) -> None:
        """Change the energy-price weights (eq. 1) at runtime.

        With ``decoupled_power_gps`` the new weights take effect
        instantly (the per-component power surrogates are
        price-agnostic).  In the default coupled mode, historical
        *cost* observations embed the old weights — prefer the
        decoupled mode (or re-instantiating) for large price swings
        such as day/night tariffs.
        """
        self.cost_weights = cost_weights
        # The spike-gate history is in old-price units; rearm it.
        self._recent_costs.clear()

    # -- offline hyperparameter fitting ------------------------------------

    def fit_hyperparameters(
        self,
        inputs: np.ndarray,
        costs: np.ndarray,
        delays: np.ndarray,
        maps: np.ndarray,
        n_restarts: int = 2,
        rng=None,
        server_powers: np.ndarray | None = None,
        bs_powers: np.ndarray | None = None,
    ) -> None:
        """Fit each GP's kernel and noise on prior profiling data.

        ``inputs`` are joint (context, control) rows; targets are the
        corresponding KPI observations.  Mirrors the paper's offline
        maximum-likelihood fit; the GPs keep their (possibly non-empty)
        observation buffers.  With ``decoupled_power_gps``, passing the
        raw power readings also fits the two power surrogates.
        """
        gps = list(self._gps)
        targets = [costs, delays, maps]
        if self._power_gps is not None and server_powers is not None \
                and bs_powers is not None:
            gps.extend(self._power_gps)
            targets.extend([server_powers, bs_powers])
        for gp, y in zip(gps, targets):
            fitted_kernel, fitted_noise, _ = fit_hyperparameters(
                gp.kernel,
                inputs,
                y,
                noise_variance=gp.noise_variance,
                n_restarts=n_restarts,
                rng=rng,
            )
            gp.kernel = fitted_kernel
            gp.noise_variance = fitted_noise
            if gp.n_observations:
                gp.fit(gp.inputs, gp.targets)
