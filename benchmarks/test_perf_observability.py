"""Perf benchmark: decision-trace and fleet-metrics overhead.

Two phases, both recording into ``BENCH_observability.json``:

**Decision traces** — times the same seeded EdgeBOL loop four ways:

* **untraced** — no telemetry sink attached: ``make_tracer`` returns
  ``None`` and every agent hook is a single ``is not None`` check (run
  twice, so the pair's spread doubles as the measurement-noise yardstick);
* **traced (memory)** — an
  :class:`~repro.telemetry.export.InMemorySink`: full record assembly
  (margins, price of safety, calibration z-scores, drift) without
  serialisation;
* **traced (jsonl)** — a :class:`~repro.telemetry.export.JsonlSink`
  with ``flush_every=1``: the legacy flush-per-line path;
* **traced (jsonl, buffered)** — the same sink at its default batched
  flush, the current ``--trace-decisions`` path.

The two JSONL sinks are timed in ``SINK_PAIRS`` interleaved pairs on
the same seed (alternating which runs first), and the batching gate
reads the median per-pair ratio: host drift between the two runs of a
pair cancels, where two medians taken one after the other do not.

**Fleet metrics** — times a 32-cell stub-agent fleet with and without
a ``--set metrics`` :class:`~repro.fleetobs.store.MetricStore`
attached to the record stream (KPI and alert records, sampled round
tracing through the bus), asserts the per-cell rows stay
bit-identical, and gates the ingestion overhead at
``FLEET_OVERHEAD_LIMIT``.  A query-latency phase
then times the store's range/rollup/aggregate/top-k reads.
"""

import json
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.core import EdgeBOL
from repro.experiments.fleet import METRICS_TRACE_EVERY, run_fleet_cell_sim
from repro.experiments.runner import run_agent
from repro.fleetobs import MetricStore
from repro.telemetry import runtime as telemetry
from repro.telemetry.export import InMemorySink, JsonlSink
from repro.testbed.config import (
    ControlPolicy,
    CostWeights,
    ServiceConstraints,
    TestbedConfig,
)
from repro.testbed.scenarios import static_scenario

RESULT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_observability.json"
)

N_LEVELS = 5
N_PERIODS = 40
REPS = 3
#: Interleaved (flush-per-line, buffered) JSONL pairs for the batching
#: gate; seeds cycle through the ``REPS`` seeds.
SINK_PAIRS = 7
#: The untraced/untraced ratio bounds the run-to-run noise; the
#: disabled-mode "overhead" must stay inside the same envelope with
#: this much headroom (generous: CI machines are noisy).
NOISE_HEADROOM = 1.5

#: Fleet-metrics phase: the ISSUE acceptance gate — a ``--metrics``
#: store on a 32-cell fleet may cost at most this fraction of the
#: uninstrumented run.
FLEET_OVERHEAD_LIMIT = 0.15
FLEET_CELLS = 32
FLEET_PERIODS = 30
FLEET_SEED = 11


def _merge_results(section: str, payload: dict) -> None:
    """Read-modify-write one section of ``BENCH_observability.json``.

    The two benchmark tests own disjoint sections and may run in any
    order (or alone), so each merges into whatever is already on disk.
    """
    merged = {}
    if RESULT_PATH.exists():
        try:
            merged = json.loads(RESULT_PATH.read_text())
        except ValueError:
            merged = {}
    merged[section] = payload
    RESULT_PATH.write_text(json.dumps(merged, indent=2) + "\n")


def run_once(seed, sink=None):
    """One seeded run; returns (elapsed_s, cost_series).

    ``sink`` may be None (untraced) or a telemetry sink; sinks are
    closed inside the timed region so flush cost is part of the figure.
    """
    testbed = TestbedConfig(n_levels=N_LEVELS)
    env = static_scenario(
        mean_snr_db=35.0, rng=np.random.default_rng(seed), config=testbed
    )
    agent = EdgeBOL(
        testbed.control_grid(), ServiceConstraints(0.4, 0.5),
        CostWeights(1.0, 8.0),
    )
    started = time.perf_counter()
    if sink is None:
        log = run_agent(env, agent, N_PERIODS, oracle_cost=100.0)
    else:
        with telemetry.attach(sink):
            log = run_agent(env, agent, N_PERIODS, oracle_cost=100.0)
        sink.close()
    return time.perf_counter() - started, log.cost


def test_perf_observability_overhead(tmp_path):
    base_a, base_b, mem, jsonl, buffered, ratios = [], [], [], [], [], []
    reference_costs = {}
    for rep in range(REPS):
        t_a, costs_a = run_once(rep)
        t_b, costs_b = run_once(rep)
        t_mem, costs_mem = run_once(rep, InMemorySink())
        assert costs_a == costs_b == costs_mem, (
            f"rep {rep}: traced KPIs diverged from untraced"
        )
        reference_costs[rep] = costs_a
        base_a.append(t_a)
        base_b.append(t_b)
        mem.append(t_mem)
    for pair in range(SINK_PAIRS):
        seed = pair % REPS
        kinds = {"jsonl": {"flush_every": 1}, "buffered": {}}
        order = list(kinds) if pair % 2 == 0 else list(kinds)[::-1]
        timed = {}
        for kind in order:
            timed[kind], costs = run_once(seed, JsonlSink(
                tmp_path / f"decisions_{kind}_{pair}.jsonl", **kinds[kind]
            ))
            assert costs == reference_costs[seed], (
                f"pair {pair}: {kind}-traced KPIs diverged from untraced"
            )
        jsonl.append(timed["jsonl"])
        buffered.append(timed["buffered"])
        ratios.append(timed["buffered"] / timed["jsonl"])

    untraced_a = float(np.median(base_a))
    untraced_b = float(np.median(base_b))
    noise_ratio = max(untraced_a, untraced_b) / min(untraced_a, untraced_b)
    untraced = min(untraced_a, untraced_b)
    traced_mem = float(np.median(mem))
    traced_jsonl = float(np.median(jsonl))
    traced_buffered = float(np.median(buffered))
    buffered_ratio = float(np.median(ratios))

    payload = {
        "benchmark": (
            f"decision-trace overhead on a {N_PERIODS}-period EdgeBOL run "
            f"({N_LEVELS}^4 grid, median of {REPS} reps; JSONL sinks: "
            f"median of {SINK_PAIRS} interleaved pairs)"
        ),
        "unit": "seconds per run",
        "results": {
            "untraced_s": untraced,
            "untraced_repeat_s": max(untraced_a, untraced_b),
            "noise_ratio": noise_ratio,
            "traced_memory_s": traced_mem,
            "traced_jsonl_s": traced_jsonl,
            "traced_jsonl_buffered_s": traced_buffered,
            "traced_memory_overhead": traced_mem / untraced - 1.0,
            "traced_jsonl_overhead": traced_jsonl / untraced - 1.0,
            "traced_jsonl_buffered_overhead": (
                traced_buffered / untraced - 1.0
            ),
            "buffered_to_jsonl_pair_ratio": buffered_ratio,
        },
        "bit_identical_kpis": True,
    }
    _merge_results("decision_traces", payload)

    print()
    print(f"untraced     {untraced:.3f}s (repeat ratio {noise_ratio:.3f})")
    print(f"traced (mem) {traced_mem:.3f}s "
          f"(+{payload['results']['traced_memory_overhead'] * 100:.1f}%)")
    print(f"traced (jsonl, flush/line) {traced_jsonl:.3f}s "
          f"(+{payload['results']['traced_jsonl_overhead'] * 100:.1f}%)")
    print(f"traced (jsonl, buffered)   {traced_buffered:.3f}s "
          f"(+{payload['results']['traced_jsonl_buffered_overhead'] * 100:.1f}%)")

    # Disabled-mode tracing must be free: the two untraced timings are
    # the same code path, so their spread *is* the noise floor, and a
    # regression that sneaks work into the disabled path would show up
    # as a systematic gap wider than that floor allows.
    assert noise_ratio <= NOISE_HEADROOM, (
        f"untraced repeat ratio {noise_ratio:.2f} exceeds {NOISE_HEADROOM} — "
        "either the machine is too noisy to benchmark or the disabled "
        "path stopped being free"
    )
    # Full tracing stays a modest multiple of the run itself.
    assert traced_jsonl <= 3.0 * untraced, (
        f"jsonl-traced run {traced_jsonl:.3f}s vs untraced {untraced:.3f}s"
    )
    # The buffered default must not cost more than the legacy
    # flush-per-line path (the point of batching writes), judged on the
    # median of the interleaved same-seed pairs.
    assert buffered_ratio <= 1.10, (
        f"buffered jsonl runs at {buffered_ratio:.3f}x the flush-per-line "
        f"run (median of {SINK_PAIRS} pairs)"
    )


class _StubAgent:
    """Constant mid-grid controller: zero learning cost, full plane."""

    def select(self, context):
        return ControlPolicy(
            resolution=0.5, airtime=0.5, gpu_speed=0.5, mcs_fraction=1.0
        )

    def observe(self, context, policy, observation):
        return float(observation.server_power_w + observation.bs_power_w)


def _fleet_once(metrics=None):
    """One seeded 32-cell stub fleet run -> (elapsed_s, rows_json)."""
    started = time.perf_counter()
    with (telemetry.attach(metrics) if metrics is not None
          else nullcontext()):
        result = run_fleet_cell_sim(
            n_cells=FLEET_CELLS,
            n_periods=FLEET_PERIODS,
            seed=FLEET_SEED,
            levels=4,
            make_agent=_StubAgent,
            trace_rounds_every=METRICS_TRACE_EVERY,
        )
    elapsed = time.perf_counter() - started
    rows = json.dumps([
        (cell_id, log.as_rows())
        for cell_id, log in sorted(result.logs.items())
    ])
    return elapsed, rows


def _time_queries(store) -> dict:
    """Median query latencies (seconds) over the populated store."""
    cells = store.cells()
    mid = cells[len(cells) // 2]

    def _median_of(fn, reps=50):
        times = []
        for _ in range(reps):
            started = time.perf_counter()
            fn()
            times.append(time.perf_counter() - started)
        return float(np.median(times))

    return {
        "series_range_s": _median_of(
            lambda: store.series(mid, "cost", t_min=5, t_max=25)
        ),
        "rollups_s": _median_of(lambda: store.rollups(mid, "cost")),
        "aggregate_s": _median_of(lambda: store.aggregate("cost")),
        "top_k_s": _median_of(lambda: store.top_k("cost", k=5, agg="p95")),
    }


def test_perf_fleet_metrics_overhead():
    plain_times, metrics_times = [], []
    store = None
    for _ in range(REPS):
        t_plain, rows_plain = _fleet_once()
        store = MetricStore()
        t_metrics, rows_metrics = _fleet_once(metrics=store)
        assert rows_plain == rows_metrics, (
            "per-cell KPI rows diverged under --metrics"
        )
        plain_times.append(t_plain)
        metrics_times.append(t_metrics)

    plain = float(np.median(plain_times))
    instrumented = float(np.median(metrics_times))
    overhead = instrumented / plain - 1.0
    assert store is not None and store.ingested > 0
    queries = _time_queries(store)

    payload = {
        "benchmark": (
            f"fleet metrics-store overhead on a {FLEET_CELLS}-cell stub "
            f"fleet ({FLEET_PERIODS} periods, round tracing every "
            f"{METRICS_TRACE_EVERY} periods, median of {REPS} reps)"
        ),
        "unit": "seconds per fleet run",
        "results": {
            "plain_s": plain,
            "metrics_s": instrumented,
            "fleet_metrics_overhead": overhead,
            "overhead_limit": FLEET_OVERHEAD_LIMIT,
            "records_ingested": store.ingested,
            "spans_retained": len(store.spans()),
            "query_latency": queries,
        },
        "bit_identical_rows": True,
    }
    _merge_results("fleet_metrics", payload)

    print()
    print(f"plain fleet    {plain:.3f}s")
    print(f"with --metrics {instrumented:.3f}s (+{overhead * 100:.1f}%)")
    print(f"ingested {store.ingested} records, "
          f"{len(store.spans())} spans retained")
    for name, value in queries.items():
        print(f"query {name:>16} {value * 1e6:8.1f} us")

    assert overhead <= FLEET_OVERHEAD_LIMIT, (
        f"--metrics ingestion overhead {overhead:.1%} exceeds the "
        f"{FLEET_OVERHEAD_LIMIT:.0%} budget — raise METRICS_TRACE_EVERY "
        "or cheapen the ingest path"
    )
    # Queries must stay interactive: the dashboard calls dozens of them.
    assert max(queries.values()) < 0.05, f"store query too slow: {queries}"
