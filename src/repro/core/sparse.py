"""Sparse (subset-of-data) GP mode with a principled observation budget.

Long EdgeBOL runs accumulate history without bound, and every posterior
sweep pays for it: the per-period engine extension is ``O(N M)`` and
any factor rebuild ``O(N^2 M)``, so per-period cost grows with the run
(the O(N^2) wall flagged in ``ROADMAP.md`` and measured in
``BENCH_posterior.json``).  The sparse mode bounds each GP head to a
fixed *observation budget*: when the buffer exceeds
``budget + block`` points, an eviction policy keeps a
diversity-preserving subset of exactly ``budget`` points and the
factor is rebuilt over it — per-period cost is then flat in the
nominal run length.

Two properties make this safe to plumb into the certification path:

* **Exactness on the subset.**  A subset-of-data posterior *is* an
  exact GP posterior — conditioned on fewer points, not a parametric
  approximation — so every identity the safe set and acquisition rely
  on (eqs. 3-4, 8, 9) holds verbatim.
* **Conservative variances.**  Conditioning a GP on additional
  observations never increases the posterior variance at any point
  (the law of total variance applied to the Gaussian conditional), so
  the subset posterior's ``sigma`` upper-bounds the full-data
  ``sigma``.  The eq.-8 safe-set test therefore stays *valid*: a
  control certified safe under the inflated uncertainty would also be
  certified by wider evidence, never the other way round.  The means
  do move (that is the approximation error).

The retained subset is chosen by a deterministic greedy max-min
(farthest-point) rule in the kernel's ARD-scaled metric — the classic
inducing-point heuristic — with a *forced recent block*: the newest
``recent_fraction`` of the budget is always kept, so the posterior
tracks non-stationarity (constraint changes, drift) even when old
points dominate the diversity objective.  Determinism matters: eviction
happens mid-run, and replays must reproduce bit-identically.

See ``docs/NUMERICS.md`` for the policy discussion and accuracy
trade-offs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["greedy_inducing_indices", "make_eviction_policy"]


def greedy_inducing_indices(
    x: np.ndarray,
    n_select: int,
    lengthscales: np.ndarray | None = None,
    preselected: np.ndarray | None = None,
) -> np.ndarray:
    """Deterministic greedy max-min subset of ``n_select`` row indices.

    Farthest-point selection in the (optionally ARD-scaled) Euclidean
    metric: starting from ``preselected`` (or, when empty, the most
    recent row — the point the next rank-1 update will extend from),
    repeatedly add the row farthest from the current subset.  Ties
    resolve to the lowest index, so the selection is a pure function of
    its inputs and replays bit-identically.

    Parameters
    ----------
    x:
        ``(n, d)`` candidate rows, in arrival order.
    n_select:
        Total subset size, including the preselected rows; capped at
        ``n``.
    lengthscales:
        Optional per-dimension scales dividing the coordinates before
        distances are taken (use the head's ARD lengthscales so
        "diverse" matches what the kernel can distinguish).
    preselected:
        Indices that must be in the subset (the forced recent block).

    Returns
    -------
    Sorted integer array of ``min(n_select, n)`` unique row indices —
    sorted so the retained rows keep their arrival order, which
    preserves the meaning of "newest rows" for later evictions.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {x.shape}")
    n = x.shape[0]
    n_select = int(n_select)
    if n_select < 1:
        raise ValueError(f"n_select must be >= 1, got {n_select}")
    if n_select >= n:
        return np.arange(n)
    scaled = x / np.asarray(lengthscales, dtype=float) \
        if lengthscales is not None else x
    chosen = np.zeros(n, dtype=bool)
    if preselected is not None and np.asarray(preselected).size:
        seeds = np.unique(np.asarray(preselected, dtype=int))
        if seeds.size > n_select:
            raise ValueError(
                f"{seeds.size} preselected rows exceed n_select={n_select}"
            )
        chosen[seeds] = True
    else:
        chosen[n - 1] = True
    # Min squared distance from every row to the current subset.
    subset = scaled[chosen]
    diff = scaled[:, None, :] - subset[None, :, :]
    min_d2 = np.min(np.sum(diff * diff, axis=2), axis=1)
    min_d2[chosen] = -np.inf
    while int(np.count_nonzero(chosen)) < n_select:
        pick = int(np.argmax(min_d2))  # first max -> lowest-index tie-break
        chosen[pick] = True
        d2 = np.sum((scaled - scaled[pick]) ** 2, axis=1)
        min_d2 = np.minimum(min_d2, d2)
        min_d2[pick] = -np.inf
    return np.nonzero(chosen)[0]


def make_eviction_policy(
    lengthscales: np.ndarray | None = None,
    recent_fraction: float = 0.25,
):
    """An eviction policy for :class:`~repro.core.gp.GaussianProcess`.

    The returned ``policy(x, y, budget)`` keeps the newest
    ``round(budget * recent_fraction)`` rows unconditionally (stream
    continuity under drift) and fills the rest of the budget by
    :func:`greedy_inducing_indices` over the whole buffer, so the
    retained subset spans the explored input space instead of just its
    most recent corner.

    Parameters
    ----------
    lengthscales:
        Optional ARD scales forwarded to the selection metric (pass the
        head's kernel lengthscales).
    recent_fraction:
        Fraction of the budget reserved for the newest rows, in [0, 1].
    """
    if not 0.0 <= recent_fraction <= 1.0:
        raise ValueError(
            f"recent_fraction must be in [0, 1], got {recent_fraction}"
        )
    scales = None if lengthscales is None \
        else np.asarray(lengthscales, dtype=float).copy()

    def policy(x: np.ndarray, y: np.ndarray, budget: int) -> np.ndarray:
        """Indices to retain: forced recent block + greedy diverse rest."""
        n = np.asarray(x).shape[0]
        budget = int(budget)
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if n <= budget:
            return np.arange(n)
        n_recent = min(budget, max(1, int(round(budget * recent_fraction))))
        recent = np.arange(n - n_recent, n)
        return greedy_inducing_indices(
            x, budget, lengthscales=scales, preselected=recent
        )

    return policy
