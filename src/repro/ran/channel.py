"""Wireless channel models.

The prototype connects the UE and the vBS with SMA cables plus
attenuators and sweeps the RF gain to attain different uplink SNRs; here
SNR is a stochastic process per user.  Two models are provided:

* :class:`GaussMarkovChannel` -- a first-order autoregressive (Gauss-
  Markov) SNR process around a configurable mean, the standard model for
  slowly varying shadowing on a static link.
* :class:`SnrTrace` -- a deterministic, replayable SNR schedule used for
  the fast context dynamics of Fig. 13 (SNR swinging between 5 and
  38 dB).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_in_range, check_non_negative


class GaussMarkovChannel:
    """First-order Gauss-Markov uplink SNR process.

    ``snr[t+1] = mean + corr * (snr[t] - mean) + noise`` with Gaussian
    innovations scaled so the stationary standard deviation is ``std``.

    Parameters
    ----------
    mean_snr_db:
        Long-run mean SNR in dB.
    std_db:
        Stationary standard deviation of the process.
    correlation:
        One-step autocorrelation in [0, 1); higher values give slower
        fading.
    rng:
        Seed or generator for the innovations.
    snr_floor_db, snr_ceil_db:
        Hard clipping range mirroring the attenuator limits of the
        testbed.
    """

    def __init__(
        self,
        mean_snr_db: float,
        std_db: float = 1.5,
        correlation: float = 0.9,
        rng=None,
        snr_floor_db: float = -5.0,
        snr_ceil_db: float = 40.0,
    ) -> None:
        self.mean_snr_db = float(mean_snr_db)
        self.std_db = check_non_negative(std_db, "std_db")
        self.correlation = check_in_range(correlation, "correlation", 0.0, 0.999)
        if snr_ceil_db <= snr_floor_db:
            raise ValueError("snr_ceil_db must exceed snr_floor_db")
        self.snr_floor_db = float(snr_floor_db)
        self.snr_ceil_db = float(snr_ceil_db)
        self._rng = ensure_rng(rng)
        self._current = self.mean_snr_db

    def reset(self, snr_db: float | None = None) -> float:
        """Reset the process to ``snr_db`` (default: the mean)."""
        self._current = self.mean_snr_db if snr_db is None else float(snr_db)
        return self._current

    def retune(self, mean_snr_db: float) -> None:
        """Change the long-run mean without resetting the state.

        Mirrors adjusting the RF chain gain mid-experiment.
        """
        self.mean_snr_db = float(mean_snr_db)

    def step(self) -> float:
        """Advance one period and return the new SNR sample (dB)."""
        innovation_std = self.std_db * np.sqrt(max(1.0 - self.correlation**2, 0.0))
        noise = self._rng.normal(0.0, innovation_std) if innovation_std > 0 else 0.0
        deviation = self._current - self.mean_snr_db
        self._current = self.mean_snr_db + self.correlation * deviation + noise
        self._current = float(
            np.clip(self._current, self.snr_floor_db, self.snr_ceil_db)
        )
        return self._current

    def sample(self, n: int) -> np.ndarray:
        """Generate ``n`` consecutive SNR samples."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        return np.array([self.step() for _ in range(n)])


class SnrTrace:
    """Deterministic SNR schedule replayed period by period.

    Iterating past the end wraps around, so a finite trace drives an
    arbitrarily long experiment.
    """

    def __init__(self, values_db: Sequence[float]) -> None:
        values = np.asarray(list(values_db), dtype=float)
        if values.size == 0:
            raise ValueError("trace must contain at least one value")
        if not np.all(np.isfinite(values)):
            raise ValueError("trace values must be finite")
        self._values = values
        self._index = 0

    def __len__(self) -> int:
        return int(self._values.size)

    @property
    def values_db(self) -> np.ndarray:
        """Copy of the underlying schedule."""
        return self._values.copy()

    def reset(self) -> None:
        """Rewind to the beginning of the trace."""
        self._index = 0

    def step(self) -> float:
        """Return the next SNR value, wrapping at the end."""
        value = float(self._values[self._index % self._values.size])
        self._index += 1
        return value


def constant_trace(snr_db: float, length: int = 1) -> SnrTrace:
    """Trace holding a single SNR value (steady-channel scenarios)."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return SnrTrace([float(snr_db)] * length)


def dynamic_context_trace(
    low_db: float = 5.0,
    high_db: float = 38.0,
    period: int = 50,
    length: int = 150,
    rng=None,
    jitter_db: float = 1.0,
) -> SnrTrace:
    """Fast-varying SNR trace in the style of Fig. 13.

    Produces a piecewise pattern that swings between ``low_db`` and
    ``high_db`` with a triangular sweep of the given ``period``, plus
    small Gaussian jitter so consecutive contexts are never identical.
    """
    if high_db <= low_db:
        raise ValueError("high_db must exceed low_db")
    if period < 2:
        raise ValueError(f"period must be >= 2, got {period}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    generator = ensure_rng(rng)
    t = np.arange(length)
    phase = (t % period) / period
    triangle = np.where(phase < 0.5, 2.0 * phase, 2.0 * (1.0 - phase))
    values = low_db + (high_db - low_db) * triangle
    if jitter_db > 0:
        values = values + generator.normal(0.0, jitter_db, size=length)
    values = np.clip(values, low_db, high_db)
    return SnrTrace(values)
