"""Safe-set estimation (eq. 8 of the paper).

For the observed context, a control belongs to the estimated safe set
when the pessimistic GP confidence bound of every constraint satisfies
its threshold:

* delay:  ``mu_d + beta * sigma_d <= d_max``  (upper bound below cap),
* mAP:    ``mu_q - beta * sigma_q >= rho_min`` (lower bound above floor).

The initial safe set S0 (the maximum-resource corner) is always
included, so the agent never runs out of admissible controls even under
infeasible constraint settings (Section 5, "Practical issues").
"""

from __future__ import annotations

import numpy as np

from repro.core.posterior import PosteriorBatch
from repro.utils.validation import check_positive

#: Head names the safe set reads from a :class:`PosteriorBatch`.
DELAY_HEAD = "delay"
MAP_HEAD = "map"


class SafeSetEstimator:
    """Confidence-bound safe set over a discretised control grid.

    The constraint posteriors come from a
    :class:`~repro.core.posterior.SurrogateEngine` sweep: every method
    reads the ``"delay"`` and ``"map"`` head moments of a
    :class:`~repro.core.posterior.PosteriorBatch`.

    Parameters
    ----------
    beta:
        Confidence-bound width multiplier: it multiplies sigma
        directly, playing the role of the paper's ``beta^{1/2}`` (2.5 in
        the evaluation).
    noise_beta:
        Multiplier of the *aleatoric* (observation-noise) margin added
        to the confidence bound.  The constraints of problem (2) apply
        to the realised per-period KPIs, which carry observation noise,
        so a converged point must keep a noise margin from the
        threshold to satisfy them with high probability.  0 disables
        the margin (pure eq. 8).
    delay_noise_rel:
        Relative std of delay measurements (timing jitter scales with
        the delay itself), so the delay margin is
        ``noise_beta * delay_noise_rel * mu_delay``.
    map_noise_std:
        Absolute std of a batch mAP measurement.
    """

    def __init__(
        self,
        beta: float = 2.5,
        noise_beta: float = 1.0,
        delay_noise_rel: float = 0.05,
        map_noise_std: float = 0.02,
    ) -> None:
        self.beta = check_positive(beta, "beta")
        if noise_beta < 0:
            raise ValueError(f"noise_beta must be >= 0, got {noise_beta}")
        self.noise_beta = float(noise_beta)
        if delay_noise_rel < 0 or map_noise_std < 0:
            raise ValueError("noise levels must be >= 0")
        self.delay_noise_rel = float(delay_noise_rel)
        self.map_noise_std = float(map_noise_std)

    def _bounds(self, batch: PosteriorBatch) -> tuple[np.ndarray, np.ndarray]:
        """Pessimistic bounds of the two eq.-8 tests over the grid.

        Returns ``(delay_upper, map_lower)``: ``mu_d + width_d`` and
        ``mu_q - width_q``, each width being the confidence term plus
        the aleatoric margin.
        """
        delay_mean, delay_std = batch.moments(DELAY_HEAD)
        map_mean, map_std = batch.moments(MAP_HEAD)
        delay_width = self.beta * delay_std + (
            self.noise_beta * self.delay_noise_rel * np.abs(delay_mean)
        )
        map_width = self.beta * map_std + self.noise_beta * self.map_noise_std
        return delay_mean + delay_width, map_mean - map_width

    def safe_mask(
        self,
        batch: PosteriorBatch,
        d_max_s: float,
        rho_min: float,
        always_safe: np.ndarray | None = None,
    ) -> np.ndarray:
        """Boolean eq.-8 safety mask over the batch's grid.

        Parameters
        ----------
        batch:
            Engine sweep carrying the ``"delay"`` and ``"map"`` heads
            for the current context.
        d_max_s, rho_min:
            Constraint thresholds of problem (2).
        always_safe:
            Optional boolean mask (or integer indices) of grid rows
            forced into the safe set — the S0 of Algorithm 1, line 6.
        """
        delay_upper, map_lower = self._bounds(batch)
        mask = (delay_upper <= d_max_s) & (map_lower >= rho_min)
        if always_safe is not None:
            indices = np.asarray(always_safe)
            if indices.dtype == bool:
                if indices.size != mask.size:
                    raise ValueError("boolean always_safe mask has wrong length")
                mask = mask | indices
            else:
                mask[indices] = True
        return mask

    def margins_from_batch(
        self,
        batch: PosteriorBatch,
        d_max_s: float,
        rho_min: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-point slack of each eq.-8 constraint (>= 0 means safe).

        Returns ``(delay_slack_s, map_slack)``: the delay slack is
        ``d_max - (mu_d + width_d)`` in seconds, the mAP slack is
        ``(mu_q - width_q) - rho_min`` in mAP units.  These are the
        "how close to the boundary did we certify" quantities decision
        traces record per round (``docs/OBSERVABILITY.md``).
        """
        delay_upper, map_lower = self._bounds(batch)
        return d_max_s - delay_upper, map_lower - rho_min
