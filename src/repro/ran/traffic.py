"""Background-traffic generators.

Fig. 6 of the paper emulates "10x more load" on the BS.  The default
environment models that with a constant multiplier; these generators
provide stochastic alternatives for studies of time-varying cell load:

* :class:`PoissonTraffic` — memoryless per-period load around a mean;
* :class:`OnOffTraffic` — a two-state Markov-modulated source (bursty
  cross traffic: an ON state at high rate, an OFF state at zero);
* :class:`DiurnalTraffic` — a deterministic day-shaped profile with
  multiplicative noise, matching cellular load traces.

All produce an *offered load multiplier* per orchestration period that
can be applied to the slice's own load before the BS power model.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_non_negative, check_positive


class PoissonTraffic:
    """Per-period multiplier ~ mean * Poisson-normalised fluctuation.

    The number of background flows in a period is Poisson; the
    multiplier is proportional to the realised count, normalised so the
    long-run mean equals ``mean_multiplier``.
    """

    def __init__(self, mean_multiplier: float = 10.0,
                 mean_flows: float = 20.0, rng=None) -> None:
        check_positive(mean_multiplier, "mean_multiplier")
        check_positive(mean_flows, "mean_flows")
        self.mean_multiplier = float(mean_multiplier)
        self.mean_flows = float(mean_flows)
        self._rng = ensure_rng(rng)

    def step(self) -> float:
        flows = self._rng.poisson(self.mean_flows)
        return float(self.mean_multiplier * flows / self.mean_flows)


class OnOffTraffic:
    """Two-state Markov-modulated background source.

    Parameters
    ----------
    on_multiplier, off_multiplier:
        Load multiplier in each state.
    p_on_to_off, p_off_to_on:
        Per-period transition probabilities.
    """

    def __init__(
        self,
        on_multiplier: float = 10.0,
        off_multiplier: float = 1.0,
        p_on_to_off: float = 0.1,
        p_off_to_on: float = 0.1,
        rng=None,
        start_on: bool = False,
    ) -> None:
        check_non_negative(off_multiplier, "off_multiplier")
        if on_multiplier < off_multiplier:
            raise ValueError("on_multiplier must be >= off_multiplier")
        for name, p in (("p_on_to_off", p_on_to_off), ("p_off_to_on", p_off_to_on)):
            if not 0.0 < p <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {p}")
        self.on_multiplier = float(on_multiplier)
        self.off_multiplier = float(off_multiplier)
        self.p_on_to_off = float(p_on_to_off)
        self.p_off_to_on = float(p_off_to_on)
        self._rng = ensure_rng(rng)
        self._on = bool(start_on)

    def stationary_on_probability(self) -> float:
        """Long-run fraction of time spent in the ON state."""
        return self.p_off_to_on / (self.p_off_to_on + self.p_on_to_off)

    def step(self) -> float:
        if self._on and self._rng.random() < self.p_on_to_off:
            self._on = False
        elif not self._on and self._rng.random() < self.p_off_to_on:
            self._on = True
        return self.on_multiplier if self._on else self.off_multiplier


class DiurnalTraffic:
    """Day-shaped load profile with multiplicative log-normal noise.

    The multiplier follows ``base + amplitude * sin^2(pi t / period)``
    — low at "night", peaking mid-"day" — like aggregate cellular load
    traces.
    """

    def __init__(
        self,
        base_multiplier: float = 1.0,
        peak_multiplier: float = 10.0,
        periods_per_day: int = 200,
        noise_rel: float = 0.1,
        rng=None,
        phase: int = 0,
    ) -> None:
        check_positive(base_multiplier, "base_multiplier")
        if peak_multiplier < base_multiplier:
            raise ValueError("peak_multiplier must be >= base_multiplier")
        if periods_per_day < 2:
            raise ValueError("periods_per_day must be >= 2")
        check_non_negative(noise_rel, "noise_rel")
        self.base_multiplier = float(base_multiplier)
        self.peak_multiplier = float(peak_multiplier)
        self.periods_per_day = int(periods_per_day)
        self.noise_rel = float(noise_rel)
        self._rng = ensure_rng(rng)
        # Starting offset into the day shape: multi-cell load harnesses
        # stagger cells so their peaks do not coincide.
        self._t = int(phase) % self.periods_per_day

    def step(self) -> float:
        phase = math.sin(math.pi * (self._t % self.periods_per_day)
                         / self.periods_per_day) ** 2
        self._t += 1
        value = self.base_multiplier + (
            self.peak_multiplier - self.base_multiplier
        ) * phase
        if self.noise_rel > 0:
            sigma = self.noise_rel
            value *= float(
                np.exp(self._rng.normal(-0.5 * sigma**2, sigma))
            )
        return float(max(value, 0.0))
