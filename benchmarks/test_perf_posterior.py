"""Perf benchmark: per-period posterior sweep across numerics modes.

Times one orchestration period's three-head posterior sweep over the
paper's full 11^4 = 14641-point control grid at
N in {100, 250, 500, 1000, 2000} retained observations, per numerics
mode:

* **direct** — what Algorithm 1 cost before the engine: one
  ``GaussianProcess.predict`` per head over the joint grid, i.e. a
  fresh ``N x M`` cross-kernel plus an ``O(N^2 M)`` triangular solve
  every period (skipped above N = 1000, where it is pointlessly slow);
* **dense** — one :class:`SurrogateEngine` sweep (per-head loops, the
  bit-identity reference), including the incremental cross-kernel and
  solve extension for the observation added that period, plus the pure
  cache-hit re-query path;
* **sparse** — heads bounded to a 200-observation budget with the
  inducing-subset eviction policy of :mod:`repro.core.sparse`; this is
  the mode whose per-period cost must stay *flat* as the nominal N
  grows (the flat-cost claim: N = 2000 within 1.5x of N = 250).

A second test times the sweeps the dense mode pays for a changing
context at N in {100, 250, 500}: the **cold rebuild** of a context seen
for the first time, and the **context return**, the sweep on a cached
context after 50 adds made under another one, which extends every
head's solves by 50 rows at once.

A third test times one-row extensions, inline and on two lanes, on
grids of 5^4 to 11^4 points at N in {25, 100}: the table behind the
engine's lane admission (``_LANE_POINTS``, docs/NUMERICS.md, "When the
lanes engage").

Each test updates its own keys of ``BENCH_posterior.json`` at the repo
root.  The first asserts the >= 5x engine-vs-direct speedup at N = 500,
non-zero cache hits and the sparse flat-cost bound; the second asserts
that a context return matches ``predict``; the third, on a host with
two CPUs and one BLAS thread, that two lanes beat inline on the paper
grid at N = 100.  Run it as perfbench runs, with one BLAS thread::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \
        python -m pytest -s benchmarks/test_perf_posterior.py::test_perf_lane_admission

With more BLAS threads each lane's product is already threaded, and
two lanes on two CPUs oversubscribe them.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core import posterior
from repro.core.gp import GaussianProcess
from repro.core.kernels import Matern
from repro.core.posterior import SurrogateEngine
from repro.core.sparse import make_eviction_policy
from repro.utils.grids import cartesian_grid, linear_levels

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_posterior.json"

CONTEXT_DIM = 3
N_LEVELS = 11  # |X| = 14641, the paper's grid
N_VALUES = (100, 250, 500, 1000, 2000)
#: Timed periods per N (median reported); direct at N=1000 is slow.
REPS = {100: 5, 250: 5, 500: 3, 1000: 2, 2000: 3}
#: Timed periods for the sparse mode (cheap at every N, so always
#: enough reps for a noise-robust minimum).
SPARSE_REPS = 6
#: Largest N still timed through per-head ``predict`` (the O(N^2 M) wall).
DIRECT_MAX_N = 1000
#: Largest N where engine-vs-direct moments are verified allclose.
VERIFY_MAX_N = 500
SPEEDUP_TARGET_AT_500 = 5.0
#: Sparse-mode observation budget and eviction granularity.
SPARSE_BUDGET = 200
SPARSE_BLOCK = 50
#: Flat-cost bound: sparse per-period seconds at N=2000 vs at N=250.
FLAT_COST_FACTOR = 1.5

#: N values, adds under the other context and timed repetitions of the
#: context-return test.
RETURN_N_VALUES = (100, 250, 500)
RETURN_ADDS = 50
RETURN_REPS = 3

#: Grid levels per control axis (5^4 = 625 to 11^4 = 14641 points), N
#: values and timed one-row extensions per cell of the lane-admission
#: table.
LANE_LEVELS = (5, 7, 9, 11)
LANE_N_VALUES = (25, 100)
LANE_REPS = 15

HEAD_SPECS = (
    ("cost", 60.0**2, 4.0, 0.0),
    ("delay", 0.15**2, 4e-4, 0.8),
    ("map", 0.15**2, 4e-4, 0.0),
)


def make_dataset(n_obs, rng):
    """Deterministic training set + per-period additions for one N."""
    x = rng.random((n_obs, CONTEXT_DIM + 4))
    y = rng.normal(size=(n_obs, len(HEAD_SPECS)))
    context = rng.random(CONTEXT_DIM)
    adds = [
        (np.concatenate([context, rng.random(4)]),
         rng.normal(size=len(HEAD_SPECS)))
        for _ in range(max(REPS[n_obs], SPARSE_REPS))
    ]
    return x, y, context, adds


def build_heads(x, y, sparse):
    """The three benchmark heads, optionally budget-bounded (sparse).

    Sparse heads are seeded with a ``fit`` over the first budget-sized
    chunk and then stream the rest through ``add`` so the eviction
    policy actually churns, exactly as a long run would.
    """
    lengthscales = np.full(CONTEXT_DIM + 4, 0.8)
    budget_kwargs = {}
    if sparse:
        budget_kwargs = {
            "max_observations": SPARSE_BUDGET,
            "eviction_block": SPARSE_BLOCK,
            "eviction_policy": make_eviction_policy(lengthscales),
        }
    heads = {}
    for column, (name, output_scale, noise, prior) in enumerate(HEAD_SPECS):
        gp = GaussianProcess(
            Matern(lengthscales, output_scale=output_scale),
            noise_variance=noise,
            prior_mean=prior,
            **budget_kwargs,
        )
        n = x.shape[0]
        if sparse and n > SPARSE_BUDGET:
            gp.fit(x[:SPARSE_BUDGET], y[:SPARSE_BUDGET, column])
            for j in range(SPARSE_BUDGET, n):
                gp.add(x[j], float(y[j, column]))
        else:
            gp.fit(x, y[:, column])
        heads[name] = gp
    return heads


def time_mode(mode, x, y, context, adds, grid, n_reps):
    """Per-period engine/hit seconds for one numerics mode.

    Every mode replays a prefix of the identical observation stream, so
    counters and moments are comparable across modes.  Reports the median (typical period)
    and the minimum (noise-robust intrinsic cost).  Returns the mode
    row plus the live engine and last batch for cross-mode assertions.
    """
    heads = build_heads(x, y, sparse=(mode == "sparse"))
    engine = SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM)
    engine.posterior(context)  # amortised first-contact rebuild, untimed

    engine_times, hit_times = [], []
    batch = None
    for z, targets in adds[:n_reps]:
        for column, gp in enumerate(heads.values()):
            gp.add(z, float(targets[column]))

        started = time.perf_counter()
        batch = engine.posterior(context)
        engine_times.append(time.perf_counter() - started)

        # Same context, no new data: the pure cache-hit path (the grid
        # re-query a same-period safe-set/diagnostics consumer issues).
        started = time.perf_counter()
        engine.posterior(context)
        hit_times.append(time.perf_counter() - started)

    row = {
        "engine_s": float(np.median(engine_times)),
        "engine_min_s": float(np.min(engine_times)),
        "engine_hit_s": float(np.median(hit_times)),
        "engine_stats": engine.stats.snapshot(),
    }
    if mode == "sparse":
        row["budget"] = SPARSE_BUDGET
        row["eviction_block"] = SPARSE_BLOCK
        row["retained"] = int(next(iter(heads.values())).n_observations)
        row["evictions"] = int(next(iter(heads.values())).evictions)
    return row, heads, batch


def time_direct(heads, joint):
    """One per-head ``predict`` sweep (the pre-engine cost), timed."""
    started = time.perf_counter()
    posteriors = {name: gp.predict(joint) for name, gp in heads.items()}
    return time.perf_counter() - started, posteriors


def bench_one_n(n_obs, rng, grid):
    """All modes at one retained-observation count N."""
    x, y, context, adds = make_dataset(n_obs, rng)
    modes = {}
    dense_row, dense_heads, dense_batch = time_mode(
        "dense", x, y, context, adds, grid, REPS[n_obs]
    )
    modes["dense"] = dense_row
    sparse_row, _, _ = time_mode(
        "sparse", x, y, context, adds, grid, SPARSE_REPS
    )
    modes["sparse"] = sparse_row

    direct_s = None
    if n_obs <= DIRECT_MAX_N:
        joint = np.empty((grid.shape[0], CONTEXT_DIM + grid.shape[1]))
        joint[:, :CONTEXT_DIM] = context
        joint[:, CONTEXT_DIM:] = grid
        direct_times = []
        for _ in range(REPS[n_obs]):
            elapsed, posteriors = time_direct(dense_heads, joint)
            direct_times.append(elapsed)
        direct_s = float(np.median(direct_times))
        if n_obs <= VERIFY_MAX_N:
            for name, (mean, var) in posteriors.items():
                np.testing.assert_allclose(dense_batch.mean(name), mean,
                                           atol=1e-8, rtol=0)
                np.testing.assert_allclose(dense_batch.variance(name), var,
                                           atol=1e-8, rtol=0)

    return {
        "n_observations": n_obs,
        "grid_points": int(grid.shape[0]),
        "heads": len(HEAD_SPECS),
        # Legacy top-level keys: the dense reference mode.
        "engine_s": dense_row["engine_s"],
        "engine_hit_s": dense_row["engine_hit_s"],
        "direct_s": direct_s,
        "speedup": (
            float(direct_s / dense_row["engine_s"])
            if direct_s is not None else None
        ),
        "engine_stats": dense_row["engine_stats"],
        "modes": modes,
    }


def write_keys(**keys):
    """Update ``keys`` in the results file, keeping the other tests' keys."""
    payload = (json.loads(RESULT_PATH.read_text())
               if RESULT_PATH.exists() else {})
    payload.update(keys)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_perf_posterior_sweep():
    rng = np.random.default_rng(0)
    grid = cartesian_grid(*[linear_levels(N_LEVELS)] * 4)
    rows = [bench_one_n(n, rng, grid) for n in N_VALUES]
    write_keys(
        benchmark="per-period three-head posterior sweep over 11^4 grid",
        unit="seconds (median per period)",
        modes={
            "dense": "per-head loops (bit-identity reference)",
            "sparse": (
                f"subset-of-data, budget {SPARSE_BUDGET} + "
                f"block {SPARSE_BLOCK} inducing-subset eviction"
            ),
        },
        results=rows,
    )

    print()
    print(f"{'N':>6} {'direct s':>10} {'dense s':>10} "
          f"{'sparse s':>10} {'hit s':>10} {'speedup':>9}")
    for row in rows:
        direct = (f"{row['direct_s']:>10.4f}"
                  if row["direct_s"] is not None else f"{'-':>10}")
        speedup = (f"{row['speedup']:>8.1f}x"
                   if row["speedup"] is not None else f"{'-':>9}")
        print(f"{row['n_observations']:>6} {direct} "
              f"{row['modes']['dense']['engine_s']:>10.4f} "
              f"{row['modes']['sparse']['engine_s']:>10.4f} "
              f"{row['engine_hit_s']:>10.4f} {speedup}")

    at_500 = next(r for r in rows if r["n_observations"] == 500)
    assert at_500["speedup"] >= SPEEDUP_TARGET_AT_500, (
        f"engine speedup at N=500 is {at_500['speedup']:.1f}x, "
        f"target {SPEEDUP_TARGET_AT_500}x"
    )
    for row in rows:
        stats = row["engine_stats"]
        assert stats["cache_hits"] >= REPS[row["n_observations"]] * 3, (
            f"repeat-context queries at N={row['n_observations']} should "
            f"hit the cache, stats: {stats}"
        )

    # The flat-cost claim: a budget-bounded sweep costs the same at
    # N=2000 as at N=250 (both retain <= budget + block points).
    sparse_250 = next(
        r for r in rows if r["n_observations"] == 250
    )["modes"]["sparse"]
    sparse_2000 = next(
        r for r in rows if r["n_observations"] == 2000
    )["modes"]["sparse"]
    assert sparse_2000["retained"] <= SPARSE_BUDGET + SPARSE_BLOCK
    # Compare minima: the intrinsic per-period cost, robust to CI
    # scheduling noise (medians are reported in the JSON alongside).
    assert sparse_2000["engine_min_s"] <= \
        FLAT_COST_FACTOR * sparse_250["engine_min_s"], (
            f"sparse per-period cost is not flat: "
            f"{sparse_2000['engine_min_s']:.4f}s at N=2000 vs "
            f"{sparse_250['engine_min_s']:.4f}s at N=250"
        )


def time_context_return(n_obs, grid):
    """Cold-rebuild and context-return seconds at one N (medians).

    Each repetition starts from fresh dense heads and a fresh engine:
    the first sweep on context A is the cold rebuild; then every head
    takes ``RETURN_ADDS`` observations under context B, each followed
    by a (cheap, untimed) sweep on B; the next sweep on A is the
    context return.
    """
    rng = np.random.default_rng(n_obs)
    x = rng.random((n_obs, CONTEXT_DIM + 4))
    y = rng.normal(size=(n_obs, len(HEAD_SPECS)))
    context_a, context_b = rng.random(CONTEXT_DIM), rng.random(CONTEXT_DIM)
    adds = [(np.concatenate([context_b, rng.random(4)]),
             rng.normal(size=len(HEAD_SPECS))) for _ in range(RETURN_ADDS)]
    cold, back = [], []
    for _ in range(RETURN_REPS):
        heads = build_heads(x, y, sparse=False)
        engine = SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM)
        started = time.perf_counter()
        engine.posterior(context_a)
        cold.append(time.perf_counter() - started)
        for z, targets in adds:
            for column, gp in enumerate(heads.values()):
                gp.add(z, float(targets[column]))
            engine.posterior(context_b)
        evals = engine.stats.kernel_evals
        started = time.perf_counter()
        batch = engine.posterior(context_a)
        back.append(time.perf_counter() - started)
        return_evals = engine.stats.kernel_evals - evals
    for name, gp in heads.items():
        mean, var = gp.predict(batch.joint_grid)
        np.testing.assert_allclose(batch.mean(name), mean, atol=1e-8, rtol=0)
        np.testing.assert_allclose(batch.variance(name), var,
                                   atol=1e-8, rtol=0)
    return {
        "n_observations": n_obs,
        "cold_rebuild_s": float(np.median(cold)),
        "context_return_s": float(np.median(back)),
        "context_return_kernel_evals": int(return_evals),
    }


def test_perf_context_return():
    grid = cartesian_grid(*[linear_levels(N_LEVELS)] * 4)
    rows = [time_context_return(n, grid) for n in RETURN_N_VALUES]
    previous = (json.loads(RESULT_PATH.read_text()).get("context_return", {})
                if RESULT_PATH.exists() else {})
    section = {
        "unit": "seconds (median of 3 sweeps)",
        "columns": {
            "cold_rebuild_s": "first sweep on a context: three heads "
                              "rebuilt over N rows",
            "context_return_s": f"sweep on a cached context after "
                                f"{RETURN_ADDS} adds under another one",
            "context_return_kernel_evals": "kernel entries computed by "
                                           "that sweep",
        },
        "sharing": "the three benchmark heads share one lengthscale "
                   "vector, so one correlation block serves all three "
                   "(three-way sharing); EdgeBOL's cost and delay heads "
                   "share one and its mAP head has its own (two-way)",
        "rows": rows,
    }
    if "before" in previous:
        section["before"] = previous["before"]
    write_keys(context_return=section)

    print()
    print(f"{'N':>6} {'cold s':>10} {'return s':>10}")
    for row in rows:
        print(f"{row['n_observations']:>6} {row['cold_rebuild_s']:>10.4f} "
              f"{row['context_return_s']:>10.4f}")


def edgebol_heads(x, y):
    """The benchmark heads in EdgeBOL's layout: cost and delay share one
    lengthscale vector (one correlation group), mAP has its own."""
    heads = {}
    for column, (name, output_scale, noise, prior) in enumerate(HEAD_SPECS):
        lengthscales = np.full(CONTEXT_DIM + 4, 0.9 if name == "map" else 0.8)
        gp = GaussianProcess(Matern(lengthscales, output_scale=output_scale),
                             noise_variance=noise, prior_mean=prior)
        gp.fit(x, y[:, column])
        heads[name] = gp
    return heads


def time_lane_admission(n_obs, grid, monkeypatch):
    """Seconds of one-row extensions at one N, inline and on two lanes.

    Two engines over identical heads take the same observations; each
    repetition adds one to both and times one sweep on each, inline
    first, so host drift hits both modes alike.  Returns min and median
    per mode.
    """
    rng = np.random.default_rng(n_obs)
    x = rng.random((n_obs, CONTEXT_DIM + 4))
    y = rng.normal(size=(n_obs, len(HEAD_SPECS)))
    context = rng.random(CONTEXT_DIM)
    modes = {
        # (_LANE_POINTS, _LANE_ELEMENTS) that force each mode.
        "inline": (1 << 62, 1 << 62),
        "lanes": (0, 0),
    }
    engines = {}
    for mode in modes:
        heads = edgebol_heads(x, y)
        engines[mode] = (heads,
                         SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM))
    times = {mode: [] for mode in modes}
    for rep in range(LANE_REPS + 1):
        z = np.concatenate([context, rng.random(4)])
        targets = rng.normal(size=len(HEAD_SPECS))
        for mode, (points, elements) in modes.items():
            monkeypatch.setattr(posterior, "_LANE_POINTS", points)
            monkeypatch.setattr(posterior, "_LANE_ELEMENTS", elements)
            heads, engine = engines[mode]
            if rep:  # the first sweep is the untimed rebuild
                for column, gp in enumerate(heads.values()):
                    gp.add(z, float(targets[column]))
            started = time.perf_counter()
            engine.posterior(context)
            if rep:
                times[mode].append(time.perf_counter() - started)
    row = {"grid_points": int(grid.shape[0]), "n_observations": n_obs}
    for mode, values in times.items():
        row[f"{mode}_min_s"] = float(np.min(values))
        row[f"{mode}_median_s"] = float(np.median(values))
    return row


def test_perf_lane_admission(monkeypatch):
    thresholds = (posterior._LANE_POINTS, posterior._LANE_ELEMENTS)
    rows = []
    for levels in LANE_LEVELS:
        grid = cartesian_grid(*[linear_levels(levels)] * 4)
        for n_obs in LANE_N_VALUES:
            row = time_lane_admission(n_obs, grid, monkeypatch)
            row["admitted"] = grid.shape[0] >= thresholds[0] or (
                3 * grid.shape[0] >= thresholds[1])
            rows.append(row)
    monkeypatch.undo()
    cpus = posterior._cpus()
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
    write_keys(lanes={
        "unit": "seconds per three-head one-row extension "
                f"(min and median of {LANE_REPS})",
        "heads": "EdgeBOL layout: cost and delay share one correlation "
                 "group, mAP has its own",
        "cpus": cpus,
        "blas_threads": blas_threads,
        "lane_points": thresholds[0],
        "lane_elements": thresholds[1],
        "columns": {
            "inline_*": "every sweep on the caller's thread",
            "lanes_*": "every sweep on the caller's thread and the "
                       "worker lane",
            "admitted": "whether the engine's thresholds send a one-row "
                        "extension of this grid to two lanes",
        },
        "rows": rows,
    })

    print()
    print(f"{'points':>7} {'N':>4} {'inline min':>11} {'lanes min':>10} "
          f"{'inline med':>11} {'lanes med':>10} admitted")
    for row in rows:
        print(f"{row['grid_points']:>7} {row['n_observations']:>4} "
              f"{row['inline_min_s'] * 1e3:>9.2f}ms "
              f"{row['lanes_min_s'] * 1e3:>8.2f}ms "
              f"{row['inline_median_s'] * 1e3:>9.2f}ms "
              f"{row['lanes_median_s'] * 1e3:>8.2f}ms {row['admitted']}")

    if cpus >= 2 and blas_threads == "1":
        paper = next(r for r in rows if r["grid_points"] == 11**4
                     and r["n_observations"] == 100)
        assert paper["lanes_min_s"] < paper["inline_min_s"], paper
