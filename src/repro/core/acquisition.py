"""Acquisition functions over the safe set.

The paper adopts the *contextual Lower Confidence Bound* of Krause &
Ong (2011), restricted to the estimated safe set (eq. 9):

``x_t = argmin_{x in S_t}  mu_0(c_t, x) - beta * sigma_0(c_t, x)``

Here ``beta`` multiplies sigma directly: it plays the role of the
paper's ``beta^{1/2}`` (2.5 in the evaluation), exactly as in the
eq.-8 widths of :mod:`repro.core.safeset`.

Minimising an optimistic (lower) bound of the cost both exploits
low-cost regions and explores uncertain ones; because low-power
controls sit near the constraint boundary, this acquisition expands the
safe set without an explicit expansion phase (Section 5).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_non_negative


def lcb_values(mean: np.ndarray, std: np.ndarray,
               beta: float = 2.5) -> np.ndarray:
    """Full-grid LCB surface ``mu - beta * sigma`` (eq. 9 objective).

    Decision traces record this surface's value at the chosen control
    and at the unconstrained minimiser (the "price of safety"); the
    selection itself goes through :func:`safe_lcb_index_from_values`.
    """
    check_non_negative(beta, "beta")
    return np.asarray(mean, dtype=float) - beta * np.asarray(std, dtype=float)


def safe_lcb_index_from_values(lcb: np.ndarray, safe_mask: np.ndarray) -> int:
    """Index of the safe grid point minimising a precomputed LCB surface.

    Ties resolve to the lowest grid index (matching ``np.argmin`` over
    the safe subset in grid order), so selections are identical whether
    the LCB is evaluated on the safe subset or on the full grid.
    """
    lcb = np.asarray(lcb, dtype=float)
    safe_mask = np.asarray(safe_mask, dtype=bool)
    if safe_mask.size != lcb.size:
        raise ValueError("safe_mask and LCB values must have equal length")
    safe_indices = np.nonzero(safe_mask)[0]
    if safe_indices.size == 0:
        raise ValueError("safe set is empty; include S0 in the mask")
    return int(safe_indices[int(np.argmin(lcb[safe_indices]))])


def safe_lcb_index_from_posterior(
    mean: np.ndarray,
    std: np.ndarray,
    safe_mask: np.ndarray,
    beta: float = 2.5,
) -> int:
    """Eq. 9 applied to precomputed full-grid posterior moments.

    This is the hot-path variant consuming a
    :class:`~repro.core.posterior.SurrogateEngine` sweep; the moments
    must cover the *whole* grid (same length as ``safe_mask``).
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if mean.size != std.size:
        raise ValueError("safe_mask and posterior moments must have equal length")
    return safe_lcb_index_from_values(
        lcb_values(mean, std, beta), safe_mask
    )
