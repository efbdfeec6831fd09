"""Perf benchmark: the content-addressed experiment store warm path.

Runs a registry-grid sweep of the ``static`` experiment (Figs. 10-11
cells at a reduced period budget) twice against one store directory:

* **cold** — empty store, every cell executes and writes through;
* **warm** — the same configuration again, every cell served from the
  store without executing (``SweepResult.store_hits == len(cells)``).

Times both phases plus the store's own overhead on the cold side (a
cold *unstored* baseline run), asserts the warm rerun is a real
cache hit (all cells served, rows bit-identical, no workers) and at
least :data:`SPEEDUP_TARGET` times faster than the cold run, and
emits ``BENCH_store.json`` at the repo root.  See ``docs/STORE.md``.
"""

import json
import time
from pathlib import Path

from repro.experiments import spec as spec_registry
from repro.experiments.parallel import run_sweep
from repro.store import ExperimentStore

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"

#: Registry grid benchmarked: static cells over three BS energy prices.
SWEEP = {"delta2": (1.0, 8.0, 64.0)}
SETTINGS = {"periods": 20, "levels": 5}
SEED = 7
#: Warm rerun must beat the cold run by at least this factor.  The real
#: margin is orders of magnitude (cells run 20 BO periods each; a hit
#: is one JSON read) — the target only guards against a broken cache.
SPEEDUP_TARGET = 5.0


def _run(store):
    """One timed sweep of the benchmark grid: ``(seconds, result)``."""
    spec = spec_registry.get("static")
    params = spec.resolve(SETTINGS)
    started = time.perf_counter()
    result = run_sweep(
        spec, params, seed=SEED, jobs=1, sweep_overrides=SWEEP, store=store,
    )
    return time.perf_counter() - started, result


def test_perf_store_warm_rerun(tmp_path):
    baseline_s, baseline = _run(store=None)

    store = tmp_path / "store"
    cold_s, cold = _run(store=store)
    assert cold.store_hits == 0

    warm_s, warm = _run(store=store)
    n_cells = len(warm.cells)
    assert warm.store_hits == n_cells, "warm rerun must hit on every cell"
    assert warm.pids == (), "warm rerun must not dispatch workers"
    assert json.dumps(warm.rows) == json.dumps(cold.rows), (
        "store-served rows must be bit-identical to the cold run's"
    )
    assert json.dumps(cold.rows) == json.dumps(baseline.rows), (
        "writing through to the store must not perturb results"
    )

    speedup = cold_s / warm_s
    index_bytes = ExperimentStore(store).index_path.stat().st_size
    blob_bytes = sum(
        path.stat().st_size
        for path in (store / "objects").rglob("*.json")
    )
    payload = {
        "benchmark": (
            "static registry grid, cold sweep vs warm store rerun"
        ),
        "unit": "seconds (one full sweep)",
        "cells": n_cells,
        "settings": {**SETTINGS, "sweep": {k: list(v) for k, v in
                                           SWEEP.items()}, "seed": SEED},
        "baseline_s": baseline_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": speedup,
        "write_through_overhead_s": cold_s - baseline_s,
        "store_bytes": {"index": index_bytes, "blobs": blob_bytes},
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(f"{'phase':>22} {'seconds':>9}")
    print(f"{'cold (no store)':>22} {baseline_s:>9.3f}")
    print(f"{'cold (write-through)':>22} {cold_s:>9.3f}")
    print(f"{'warm (all hits)':>22} {warm_s:>9.3f}")
    print(f"{'speedup':>22} {speedup:>8.1f}x over {n_cells} cells")

    assert speedup >= SPEEDUP_TARGET, (
        f"warm store rerun is only {speedup:.1f}x faster than the cold "
        f"run (target {SPEEDUP_TARGET}x) — the cache is not saving work"
    )
