#!/usr/bin/env python3
"""EdgeBOL orchestration-period benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload static-paper --seed 1 --seconds 30 --trace 0

The load is a closed loop from one process and one Python thread: each
period starts when the previous one has returned.  A run repeats
fixed-length *episodes* (set-up, then ``Workload.periods`` periods, from
the same seed) until ``--seconds`` have passed, always finishing the
episode it is in.  The first episode only warms the process up.  With
``--trace 0`` the run prints end-to-end metrics of untraced episodes,
each a median over episodes.  With ``--trace 1`` it alternates traced
and untraced episodes and prints the per-layer budget of the traced
ones plus the tracing overhead.

Every run checks its outputs: each episode has one row per period (per
cell on the fleet), no NaN cost, and rows bit-identical (by digest) to
every other episode of the run, traced or not; on single-cell workloads
``EdgeBOL.posterior`` must match ``GaussianProcess.predict`` on the final
context.  The second-to-last stdout line is a JSON report (environment,
sample counts, per-episode timings, checks); the last line is the
result object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS/OpenMP threads, fixed before numpy loads; at or below ``nproc``.
#: On a 2-vCPU machine two OpenBLAS threads made a dynamic-paper episode
#: about twice as slow as one.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")

#: End-to-end metric units (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "period_ms_p50": "ms",
    "period_ms_p95": "ms",
    "periods_per_s": "1/s",
    "peak_rss_mb": "MB",
    "tail_cost": "W",
    "satisfaction_rate": "fraction",
}

#: Per-layer counters beside the span metrics (``--trace 1``).
COUNTER_UNITS = {
    "engine.kernel_evals": "count",
    "engine.extensions": "count",
    "engine.rebuilds": "count",
    "engine.cache_hits": "count",
    "engine.lru_evictions": "count",
    "engine.cached_contexts": "count",
    "engine.cache_mb_computed": "MB",
    "gp.jitter_retries": "count",
    "gp.rank1_fallbacks": "count",
    "safeset.size_mean": "points",
    "oran.loop_steps_per_decision": "steps",
    "oran.mailbox_dropped": "count",
    "oran.mailbox_coalesced": "count",
    "oran.mailbox_blocked": "count",
    "state.snapshot_kb": "KiB",
    "state.snapshots": "count",
    "trace.periods_per_s": "1/s",
    "trace.untraced_periods_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def _use_repo_sources() -> None:
    """Fix BLAS threads, then make ``repro`` and the benchmark importable."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    for path in (ROOT / "src", HERE):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def per_layer_units() -> dict:
    """Every per-layer metric name and unit, spans first."""
    from tracing import ROOT as PERIOD, SPANS

    units = {}
    for span in (PERIOD, *SPANS):
        units[f"{span}.ms_p50"] = "ms"
        units[f"{span}.calls"] = "calls/period"
        units[f"{span}.share"] = "fraction"
    units.update(COUNTER_UNITS)
    return units


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    """The run environment recorded beside every result."""
    import numpy
    import scipy

    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "blas": blas,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _episode(workload, seed: int, tracer=None,
             check_posterior: bool = False) -> dict:
    """Set up one simulation from ``seed`` and run its periods.

    Exceptions are caught here, at the episode boundary, so that a
    failure is counted against the attempted periods instead of ending
    the run.  The simulation is dropped on return: only the latest one
    is ever alive, so peak memory is one episode's.
    """
    gc.collect()
    durations: list[float] = []

    @contextmanager
    def period_clock(_t: int):
        started = time.perf_counter()
        try:
            with tracer.period() if tracer else nullcontext():
                yield
        finally:
            durations.append(time.perf_counter() - started)

    started = time.perf_counter()
    sim = workload.build(seed)
    setup_s = time.perf_counter() - started
    attempted = workload.periods * workload.cells
    episode = {"setup_s": setup_s, "durations": durations,
               "attempted": attempted}
    started = time.perf_counter()
    try:
        sim.run(workload.periods, period_clock)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        episode.update(wall_s=time.perf_counter() - started, outcome=None)
        return episode
    episode["wall_s"] = time.perf_counter() - started
    episode["outcome"] = sim.outcome()
    episode["counters"] = sim.counters()
    if check_posterior:
        episode["posterior_error"] = sim.posterior_error()
    return episode


def _check(episodes: list) -> tuple[int, dict]:
    """Correctness of every episode; returns (failed decisions, checks)."""
    from workloads import POSTERIOR_RTOL

    reference = next((e["outcome"]["digest"] for e in episodes
                      if e["outcome"] is not None), None)
    checks = {"rows": True, "nan_cost": True, "digest": True,
              "posterior": None, "posterior_error": None}
    failed = 0
    for episode in episodes:
        outcome = episode["outcome"]
        if outcome is None:
            failed += episode["attempted"]
            continue
        rows_ok = outcome["rows"] == episode["attempted"]
        nan_ok = outcome["nan_costs"] == 0
        digest_ok = outcome["digest"] == reference
        checks["rows"] &= rows_ok
        checks["nan_cost"] &= nan_ok
        checks["digest"] &= digest_ok
        episode_ok = rows_ok and nan_ok and digest_ok
        if "posterior_error" in episode:
            error = float(episode["posterior_error"])
            checks["posterior_error"] = error
            checks["posterior"] = bool(error <= POSTERIOR_RTOL)
            episode_ok &= checks["posterior"]
        failed += (episode["attempted"] if not episode_ok
                   else min(outcome["failed"], episode["attempted"]))
    return failed, checks


def _percentile(seconds: list, q: float) -> float:
    """``q``-th percentile of period times given in seconds, in ms."""
    import numpy as np

    return float(np.percentile(seconds, q)) * 1e3 if seconds else float("nan")


def _throughput(episode: dict) -> float:
    """Decisions completed per second of one episode's period loop."""
    return episode["attempted"] / episode["wall_s"]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure(workload, seed: int, seconds: float, trace: bool,
            spans_path: Path | None = None) -> tuple[dict, dict]:
    """Run ``workload`` for ``seconds``; returns (result, report).

    The first episode warms the process (lazy imports, allocator pools)
    and is kept out of every timing; it still takes the correctness
    checks, and its rows are the digest every other episode must match.
    Traced runs alternate traced and untraced episodes after it, so the
    tracing overhead compares equally warm episodes.
    """
    from tracing import Tracer, install

    deadline = time.perf_counter() + seconds
    warmup = _episode(workload, seed,
                      check_posterior=workload.scenario != "fleet")
    tracer = Tracer() if trace else None
    measured: list[dict] = []   # traced when tracing, else untraced
    untraced: list[dict] = []   # tracing-overhead baseline of traced runs
    while (not measured or (trace and not untraced)
           or time.perf_counter() < deadline):
        if trace and len(untraced) < len(measured):
            untraced.append(_episode(workload, seed))
            continue
        with install(tracer) if trace else nullcontext():
            measured.append(_episode(workload, seed, tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    episodes = [warmup, *measured, *untraced]
    failed, checks = _check(episodes)
    attempted = sum(e["attempted"] for e in episodes)
    completed = [e for e in measured if e["outcome"] is not None]
    # Timings are medians over episodes: interference from other
    # tenants of the machine comes in bursts that a minority of
    # episodes absorb.
    per_episode = {
        "period_ms_p50": [_percentile(e["durations"], 50) for e in completed],
        "period_ms_p95": [_percentile(e["durations"], 95) for e in completed],
        "periods_per_s": [_throughput(e) for e in completed],
        "setup_s": [e["setup_s"] for e in completed],
    }
    p50 = _median(per_episode["period_ms_p50"])
    p95 = _median(per_episode["period_ms_p95"])
    periods_per_s = _median(per_episode["periods_per_s"])
    samples = sum(len(e["durations"]) for e in completed)
    # Rows are identical in every episode (checked), so the outcome
    # metrics come from the first episode that completed.
    outcome = next((e["outcome"] for e in episodes if e["outcome"]), {})
    rows = outcome.get("rows") or 1
    violation_rate = outcome.get("violations", rows) / rows

    report = {
        "workload": workload.name,
        "environment": environment(seed),
        "warmup_episodes": 1,
        "measured_episodes": len(measured),
        "untraced_baseline_episodes": len(untraced),
        "periods_per_episode": workload.periods,
        "decisions_per_period": workload.cells,
        # Sample counts behind each end-to-end metric: timings are
        # per-episode statistics (over `periods_per_episode` periods)
        # then a median over `measured_episodes`.
        "samples": {
            "setup_s": len(completed),
            "period_ms": samples,
            "periods_per_s": len(completed),
            "tail_cost": max(1, workload.periods // 4) * workload.cells,
            "satisfaction_rate": rows,
        },
        "per_episode": per_episode,
        "violation_rate": violation_rate,
        "digest": outcome.get("digest"),
        "checks": checks,
    }
    if not trace:
        metrics = {
            "setup_s": _median(per_episode["setup_s"]),
            "period_ms_p50": p50,
            "period_ms_p95": p95,
            "periods_per_s": periods_per_s,
            "peak_rss_mb": peak_rss_mb,
            "tail_cost": outcome.get("tail_cost", 0.0),
            "satisfaction_rate": 1.0 - violation_rate,
        }
        units = END_TO_END
    else:
        checks["span_self_within_period"] = tracer.period_self_check()
        if not checks["span_self_within_period"]:
            failed = attempted
        metrics = {}
        for name, span in tracer.summary().items():
            metrics[f"{name}.ms_p50"] = span["ms_p50"]
            metrics[f"{name}.calls"] = span["calls"] / max(1, samples)
            metrics[f"{name}.share"] = span["share"]
        if completed:
            metrics.update(completed[-1]["counters"])
        metrics["safeset.size_mean"] = outcome.get("safe_set_mean", 0.0)
        snapshots = tracer.snapshot_bytes
        metrics["state.snapshot_kb"] = (
            sum(snapshots) / len(snapshots) / 1024 if snapshots else 0.0)
        metrics["state.snapshots"] = len(snapshots) / max(1, len(measured))
        untraced_pps = _median(
            _throughput(e) for e in untraced if e["outcome"] is not None)
        metrics["trace.periods_per_s"] = periods_per_s
        metrics["trace.untraced_periods_per_s"] = untraced_pps
        metrics["trace.overhead_ratio"] = (
            periods_per_s / untraced_pps if untraced_pps else 0.0)
        units = per_layer_units()
        if spans_path is not None:
            tracer.dump(spans_path)
            report["spans_file"] = os.path.relpath(spans_path, ROOT)
    report["failed_rate"] = failed / attempted
    result = {
        "correct": all(v is not False for v in checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, report


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    _use_repo_sources()
    from workloads import LAYER_EFFECTS, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    spans_path = HERE / "out" / f"{workload.name}-seed{args.seed}.spans.jsonl"
    result, report = measure(workload, args.seed, args.seconds,
                             bool(args.trace), spans_path=spans_path)
    report["layer_effects"] = LAYER_EFFECTS
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
