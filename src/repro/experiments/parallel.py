"""Process-parallel sweep engine over declarative experiment specs.

:func:`run_sweep` expands an :class:`~repro.experiments.spec.ExperimentSpec`
into independent cells and executes them:

* **seeding** — one :class:`numpy.random.SeedSequence` root per sweep,
  spawned into one child per cell *by cell index*, so per-cell
  randomness is independent of execution order and worker count
  (``--jobs 1`` and ``--jobs N`` produce identical results);
* **scheduling** — ``jobs == 1`` runs cells in-process (telemetry spans
  nest under the caller's trace as ``sweep.cell``); ``jobs > 1``
  dispatches cells to a :class:`concurrent.futures.ProcessPoolExecutor`
  by spec *name* — workers re-import the registry, so only plain data
  crosses the process boundary, and sweep their posteriors on one lane
  (:func:`repro.core.posterior.keep_one_lane`), so process and lane
  parallelism do not stack;
* **cell keys** — every cell is identified by its canonical
  configuration hash (spec + params + seed node + fault plan +
  numerics + code fingerprint, see :func:`repro.store.key.cell_key`);
  a result is reused only under its cell's key;
* **result cache** — with a ``store`` configured (the CLI defaults to
  ``<out>/store``), every cell is looked up in the
  :class:`~repro.store.store.ExperimentStore` by its key; a hit returns
  the stored rows bit-identically without dispatching a worker
  (``CellResult.store_hit``, counted in :attr:`SweepResult.store_hits`),
  a miss is written through as soon as it completes — so an interrupted
  sweep re-runs only its unfinished cells and a repeated one is
  near-free, while a changed seed, parameter, fault plan, numerics mode
  or code re-runs them (see ``docs/STORE.md``);
* **telemetry** — when the parent records a trace, worker cells collect
  their own metrics snapshots which are merged (counters summed,
  histograms bucket-wise) into the parent registry so the final report
  covers the whole sweep;
* **robustness** — a crashing cell is retried with exponential backoff
  (``sweep.cell.retries``); with ``cell_timeout_s`` set, a hung worker
  cell is abandoned and retried (``sweep.cell.timeouts``); a cell that
  still fails after ``max_retries`` is *quarantined* — reported with its
  error in :attr:`SweepResult.quarantined` instead of aborting the sweep
  (``sweep.cell.quarantined``) and never stored, so the next run
  re-executes it.  When a fault plan is
  installed (or passed via ``fault_plan``) it is re-installed inside
  every cell scope with the cell's spawn key, so chaos runs are
  bit-identical per seed at any ``--jobs`` (see ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.numerics import active_numerics
from repro.core.posterior import keep_one_lane
from repro.experiments import spec as registry
from repro.experiments.spec import ExperimentSpec
from repro.faults import runtime as faults
from repro.faults.injector import InjectedWorkerCrash
from repro.faults.plan import FaultPlan
from repro.store import ExperimentStore, cell_key, code_fingerprint
from repro.telemetry import runtime as telemetry
from repro.telemetry.export import JsonlSink

__all__ = ["SweepCell", "CellResult", "SweepResult", "run_sweep", "merge_metrics"]


@dataclass(frozen=True)
class SweepCell:
    """One schedulable point of a sweep (plain data, picklable)."""

    index: int
    cell_id: str
    params: dict
    #: Root entropy + spawn key identifying this cell's SeedSequence
    #: node inside the sweep's spawn tree.
    entropy: int
    spawn_key: tuple[int, ...]

    def seed_sequence(self) -> np.random.SeedSequence:
        """Reconstruct this cell's node of the sweep's seed tree."""
        return np.random.SeedSequence(
            entropy=self.entropy, spawn_key=self.spawn_key
        )


@dataclass
class CellResult:
    """Outcome of one executed (or store-served) cell.

    ``attempts`` counts executions including retries; a non-``None``
    ``error`` marks a quarantined cell (all attempts failed — ``rows``
    is empty and nothing is stored, so a later run re-executes it).
    """

    index: int
    cell_id: str
    params: dict
    rows: list
    pid: int
    metrics: dict | None = None
    attempts: int = 1
    error: str | None = None
    #: Per-period decision records the cell emitted while its records
    #: were collected (``--trace-decisions`` or an attached sink);
    #: ``None`` when untraced.
    decisions: list | None = None
    #: Served from the content-addressed experiment store — the rows
    #: are a previous run's, replayed bit-identically (``pid == -1``).
    store_hit: bool = False


@dataclass
class SweepResult:
    """Merged outcome of one sweep, in cell-index order."""

    spec_name: str
    params: dict
    cells: list[CellResult] = field(default_factory=list)
    #: Root of the experiment store consulted, if any.
    store_path: Path | None = None

    @property
    def rows(self) -> list:
        """All cell rows concatenated in cell order."""
        return [row for cell in self.cells for row in cell.rows]

    @property
    def pids(self) -> tuple[int, ...]:
        """Distinct worker PIDs that executed (non-store-served) cells."""
        return tuple(sorted({c.pid for c in self.cells if not c.store_hit}))

    @property
    def store_hits(self) -> int:
        """How many cells were served from the experiment store."""
        return sum(1 for c in self.cells if c.store_hit)

    @property
    def retries(self) -> int:
        """Total extra attempts across all cells (0 in a clean sweep)."""
        return sum(max(0, c.attempts - 1) for c in self.cells)

    @property
    def quarantined(self) -> "list[CellResult]":
        """Cells whose every attempt failed (empty in a clean sweep)."""
        return [c for c in self.cells if c.error is not None]


def _build_cells(spec: ExperimentSpec, params: dict, seed: int,
                 sweep_overrides=None) -> list[SweepCell]:
    """Expand the grid and attach one seed-tree node per cell."""
    pairs = spec.cells(params, sweep_overrides)
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(pairs))
    return [
        SweepCell(
            index=i,
            cell_id=cid,
            params=cell_params,
            entropy=int(root.entropy),
            spawn_key=tuple(int(k) for k in child.spawn_key),
        )
        for i, ((cid, cell_params), child) in enumerate(zip(pairs, children))
    ]


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays for the JSON store."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _maybe_inject_worker_fault(cell: SweepCell, attempt: int) -> None:
    """Apply the plan's worker faults to this cell execution, if any.

    Mode ``crash`` raises :class:`InjectedWorkerCrash` before the cell
    body runs; mode ``hang`` sleeps for ``magnitude`` seconds first (a
    stuck worker — pair with ``cell_timeout_s`` to exercise the timeout
    path).  Faults fire only on ``attempt == 0``, so the retry ladder
    always recovers.
    """
    injector = faults.make_injector("worker")
    if injector is None:
        return
    spec = injector.worker_decision(cell.index, attempt)
    if spec is None:
        return
    if spec.mode == "hang":
        time.sleep(float(spec.magnitude))
        return
    raise InjectedWorkerCrash(
        f"injected worker crash in cell '{cell.cell_id}' (attempt {attempt})"
    )


@contextmanager
def _cell_records(cell: SweepCell, collect: bool):
    """Run one cell under its own record stream when ``collect`` is set.

    Yields the cell's :class:`~repro.telemetry.export.InMemorySink` (the
    only sink inside the block, see :func:`repro.telemetry.runtime.capture`),
    with every label-less record stamped ``cell: <cell id>``; yields
    ``None`` and changes nothing otherwise.
    """
    if not collect:
        yield None
        return
    with telemetry.capture() as sink, telemetry.scope(cell.cell_id):
        yield sink


def _decisions(sink) -> "list | None":
    """The decision records a cell's sink collected (``None``: untraced)."""
    return None if sink is None else _jsonable(sink.of_type("decision"))


def _execute_cell(spec_name: str, cell: SweepCell, collect_telemetry: bool,
                  fault_plan: dict | None = None,
                  attempt: int = 0,
                  collect_decisions: bool = False) -> CellResult:
    """Run one cell — the worker-process entry point.

    Top-level so it pickles under any multiprocessing start method;
    looks the spec up by name after (re-)loading the registry.  The
    fault plan crosses the process boundary as a plain dict and is
    installed for the cell scope with the cell's spawn key, so fault
    streams are per-cell reproducible regardless of which worker runs
    the cell.  With ``collect_decisions`` the cell's records are
    collected by :func:`_cell_records` and its decision records ride
    back on the result for the parent to merge.
    """
    registry.load_all()
    spec = registry.get(spec_name)
    plan = FaultPlan.from_dict(fault_plan) if fault_plan is not None else None
    metrics = None
    with faults.use(plan, seed_path=cell.spawn_key):
        _maybe_inject_worker_fault(cell, attempt)
        with _cell_records(cell, collect_decisions) as sink:
            if collect_telemetry:
                telemetry.reset_metrics()
                telemetry.enable()
                try:
                    rows = spec.run_cell(cell.params, cell.seed_sequence())
                    metrics = telemetry.metrics_snapshot()
                finally:
                    telemetry.disable()
            else:
                rows = spec.run_cell(cell.params, cell.seed_sequence())
    return CellResult(
        index=cell.index,
        cell_id=cell.cell_id,
        params=cell.params,
        rows=_jsonable(rows),
        pid=os.getpid(),
        metrics=metrics,
        attempts=attempt + 1,
        decisions=_decisions(sink),
    )


def _run_cell_inprocess(spec: ExperimentSpec, cell: SweepCell,
                        attempt: int = 0,
                        collect_decisions: bool = False) -> CellResult:
    """Serial path: telemetry spans nest under the caller's trace.

    A collected cell's spans and other non-decision records reach the
    caller's sinks as soon as the cell ends; its decision records are
    buffered like a pool cell's, so serial and pool sweeps merge
    identical traces in cell-index order.
    """
    with telemetry.span("sweep.cell") as sp:
        if sp:
            sp.set("spec", spec.name)
            sp.set("cell", cell.cell_id)
        _maybe_inject_worker_fault(cell, attempt)
        with _cell_records(cell, collect_decisions) as sink:
            rows = spec.run_cell(cell.params, cell.seed_sequence())
        for record in sink.records() if sink is not None else ():
            if record.get("type") != "decision":
                telemetry.emit_record(record)
    return CellResult(
        index=cell.index,
        cell_id=cell.cell_id,
        params=cell.params,
        rows=_jsonable(rows),
        pid=os.getpid(),
        attempts=attempt + 1,
        decisions=_decisions(sink),
    )


# -- content-addressed store ------------------------------------------------


def _cell_keys(spec: ExperimentSpec, cells: "list[SweepCell]",
               plan: "FaultPlan | None") -> dict[str, str]:
    """Each cell's content key (:func:`repro.store.key.cell_key`)."""
    numerics = active_numerics()
    fingerprint = code_fingerprint()
    plan_dict = plan.to_dict() if plan is not None else None
    return {
        cell.cell_id: cell_key(
            spec.name, cell.params,
            entropy=cell.entropy, spawn_key=cell.spawn_key,
            fault_plan=plan_dict, numerics=numerics, code=fingerprint,
        )
        for cell in cells
    }


def _store_scan(store: ExperimentStore, cells: "list[SweepCell]",
                keys: dict[str, str],
                collect_decisions: bool) -> dict[str, CellResult]:
    """Consult the experiment store for every cell before dispatch.

    Returns the store-served :class:`CellResult` per cell the store can
    satisfy; every other cell is a miss, executed and written through.
    """
    hits: dict[str, CellResult] = {}
    for cell in cells:
        result = _store_hit(store, keys[cell.cell_id], cell,
                            collect_decisions)
        if result is None:
            telemetry.inc("sweep.store.misses")
        else:
            hits[cell.cell_id] = result
            telemetry.inc("sweep.store.hits")
    return hits


def _store_hit(store: ExperimentStore, key: str, cell: SweepCell,
               need_decisions: bool) -> "CellResult | None":
    """The stored result for ``cell``, or ``None`` when unusable.

    A blob without decision records cannot serve a run that collects
    them (``--trace-decisions``) — the cell recomputes and the write-
    through refreshes the blob with its trace.  Replayed decision
    records are stamped ``store_hit`` so downstream consumers
    (``repro report``) can attribute them.
    """
    blob = store.get(key)
    if blob is None:
        return None
    result = blob.get("result")
    if not isinstance(result, dict) \
            or not isinstance(result.get("rows"), list):
        return None
    if result.get("recovered"):
        # Crash-recovered blobs never serve replays: the recompute is
        # the authority, and its write-through refreshes the blob.
        return None
    decisions = result.get("decisions")
    if need_decisions and decisions is None:
        return None
    if decisions is not None:
        decisions = [
            {**record, "store_hit": True}
            for record in decisions if isinstance(record, dict)
        ]
    return CellResult(
        index=cell.index,
        cell_id=cell.cell_id,
        params=cell.params,
        rows=result["rows"],
        pid=-1,
        metrics=result.get("metrics"),
        attempts=1,
        decisions=decisions,
        store_hit=True,
    )


def _store_put(store: ExperimentStore, key: str, cell: SweepCell,
               result: CellResult, meta: dict) -> None:
    """Write one executed cell through to the experiment store.

    Quarantined cells never are — a failure is not a result, so the
    next run re-executes them.  Cells containing crash-recovered fleet
    rows (``recovered`` flag) are stamped ``recovered: true`` and never
    overwrite an existing blob, so a warm-restored run cannot shadow a
    clean result under the same key; serving such a blob is also
    refused (:func:`_store_hit`).  Store I/O errors are downgraded to a
    telemetry counter: a broken cache must not fail the sweep that
    would populate it.
    """
    if result.error is not None:
        return
    record = {
        "rows": result.rows,
        "metrics": result.metrics,
        "attempts": result.attempts,
    }
    if any(isinstance(row, dict) and row.get("recovered")
           for row in result.rows):
        if store.contains(key):
            telemetry.inc("sweep.store.recovered_skips")
            return
        record["recovered"] = True
    if result.decisions is not None:
        record["decisions"] = result.decisions
    meta = {
        **meta,
        "cell_id": cell.cell_id,
        "params": _jsonable(cell.params),
        "seed": {"entropy": cell.entropy, "spawn_key": list(cell.spawn_key)},
    }
    try:
        store.put(key, record, meta)
        telemetry.inc("sweep.store.writes")
    except OSError:
        telemetry.inc("sweep.store.write_errors")


# -- telemetry merging --------------------------------------------------


def merge_metrics(snapshots: "list[dict]") -> dict:
    """Combine per-cell metrics snapshots into one summary dict.

    Counters and histogram buckets are summed, gauges keep the last
    non-NaN value seen, histogram min/max/mean are recombined.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            if value == value:  # skip NaN
                gauges[name] = value
        for name, h in snap.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {k: (list(v) if isinstance(v, list) else v)
                                    for k, v in h.items()}
                continue
            merged["counts"] = [
                a + b for a, b in zip(merged["counts"], h["counts"])
            ]
            merged["count"] += h["count"]
            merged["sum"] += h["sum"]
            mins = [v for v in (merged["min"], h["min"]) if v is not None]
            maxs = [v for v in (merged["max"], h["max"]) if v is not None]
            merged["min"] = min(mins) if mins else None
            merged["max"] = max(maxs) if maxs else None
            merged["mean"] = (
                merged["sum"] / merged["count"] if merged["count"] else None
            )
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def _merge_decisions(ordered: "list[CellResult]",
                     decision_path: "Path | str | None") -> None:
    """Re-emit every cell's decision records in cell-index order.

    With a ``decision_path`` the merged trace is written there as one
    JSONL file (records already carry their ``cell`` label from the
    cell's scope); every record also goes into the caller's record
    stream, so an attached sink (``--telemetry``) carries them too.
    """
    records = [
        record for result in ordered for record in (result.decisions or [])
    ]
    if decision_path is not None:
        sink = JsonlSink(decision_path)
        try:
            for record in records:
                sink.emit(record)
        finally:
            sink.close()
    for record in records:
        telemetry.emit_record(record)


def _fold_into_parent_registry(merged: dict) -> None:
    """Add merged worker counters/gauges to the parent's registry."""
    reg = telemetry.get_registry()
    for name, value in merged.get("counters", {}).items():
        reg.counter(name).inc(int(value))
    for name, value in merged.get("gauges", {}).items():
        reg.gauge(name).set(value)


# -- the engine ---------------------------------------------------------


def _quarantined_result(cell: SweepCell, attempts: int,
                        error: BaseException) -> CellResult:
    """Poison-cell record: every attempt failed; the sweep carries on."""
    telemetry.inc("sweep.cell.quarantined")
    return CellResult(
        index=cell.index,
        cell_id=cell.cell_id,
        params=cell.params,
        rows=[],
        pid=-1,
        attempts=attempts,
        error=repr(error),
    )


def _backoff(retry_backoff_s: float, attempt: int) -> None:
    """Exponential pre-retry pause (attempt is the one that failed)."""
    telemetry.inc("sweep.cell.retries")
    if retry_backoff_s > 0.0:
        time.sleep(retry_backoff_s * (2.0 ** attempt))


def _run_serial(spec, pending, complete, plan, max_retries,
                retry_backoff_s, collect_decisions=False):
    """In-process execution with the same retry/quarantine ladder."""
    for cell in pending:
        result = None
        failure: BaseException | None = None
        for attempt in range(max_retries + 1):
            if attempt:
                _backoff(retry_backoff_s, attempt - 1)
            try:
                with faults.use(plan, seed_path=cell.spawn_key):
                    result = _run_cell_inprocess(
                        spec, cell, attempt,
                        collect_decisions=collect_decisions,
                    )
                break
            except Exception as exc:  # noqa: BLE001 — quarantine ladder
                failure = exc
        if result is None:
            result = _quarantined_result(cell, max_retries + 1, failure)
        complete(cell, result)


def _run_pool(spec, pending, complete, plan_dict, collect_telemetry,
              jobs, max_retries, retry_backoff_s, cell_timeout_s,
              collect_decisions=False):
    """Pool execution: retries, per-cell deadlines, poison quarantine.

    A timed-out future cannot be preempted inside a
    :class:`ProcessPoolExecutor`; it is *abandoned* (stops being
    waited on) and the cell is resubmitted — the stuck worker frees
    itself when its cell body eventually returns.
    """
    with ProcessPoolExecutor(max_workers=min(jobs, len(pending)),
                             initializer=keep_one_lane) as pool:

        def submit(cell: SweepCell, attempt: int) -> None:
            """Submit one cell attempt and start its deadline clock."""
            future = pool.submit(
                _execute_cell, spec.name, cell, collect_telemetry,
                plan_dict, attempt, collect_decisions,
            )
            deadline = (
                time.monotonic() + cell_timeout_s
                if cell_timeout_s is not None else None
            )
            tracked[future] = (cell, attempt, deadline)

        def handle_failure(cell: SweepCell, attempt: int,
                           error: BaseException) -> None:
            """Retry with backoff, or quarantine once the budget is spent."""
            if attempt < max_retries:
                _backoff(retry_backoff_s, attempt)
                submit(cell, attempt + 1)
                return
            complete(cell, _quarantined_result(cell, attempt + 1, error))

        tracked: dict = {}
        for cell in pending:
            submit(cell, 0)
        while tracked:
            wait_s = None
            if cell_timeout_s is not None:
                deadlines = [d for (_, _, d) in tracked.values() if d is not None]
                if deadlines:
                    wait_s = max(0.0, min(deadlines) - time.monotonic())
            finished, _ = wait(
                set(tracked), timeout=wait_s, return_when=FIRST_COMPLETED
            )
            for future in finished:
                cell, attempt, _ = tracked.pop(future)
                try:
                    result = future.result()
                except Exception as exc:  # noqa: BLE001 — quarantine ladder
                    handle_failure(cell, attempt, exc)
                else:
                    complete(cell, result)
            now = time.monotonic()
            for future, (cell, attempt, deadline) in list(tracked.items()):
                if deadline is None or now < deadline:
                    continue
                tracked.pop(future)
                future.cancel()
                telemetry.inc("sweep.cell.timeouts")
                handle_failure(
                    cell, attempt,
                    TimeoutError(
                        f"cell '{cell.cell_id}' exceeded "
                        f"{cell_timeout_s:.1f}s (attempt {attempt})"
                    ),
                )


def run_sweep(
    spec: ExperimentSpec,
    params: dict,
    *,
    seed: int = 0,
    jobs: int = 1,
    sweep_overrides: dict | None = None,
    max_retries: int = 2,
    retry_backoff_s: float = 0.05,
    cell_timeout_s: float | None = None,
    fault_plan: "FaultPlan | None" = None,
    decision_path: "Path | str | None" = None,
    store: "ExperimentStore | Path | str | None" = None,
) -> SweepResult:
    """Execute every cell of ``spec`` for ``params`` (see module docs).

    Parameters
    ----------
    seed:
        Root of the sweep's SeedSequence spawn tree.
    jobs:
        Worker processes; ``1`` runs serially in-process.
    sweep_overrides:
        Extra/replacement axis values (``repro run --sweep key=a,b,c``).
    max_retries:
        Extra attempts per failing cell before it is quarantined.
    retry_backoff_s:
        Base of the exponential pre-retry pause (0 disables sleeping).
    cell_timeout_s:
        Per-cell wall-clock deadline (pool mode only — a serial cell
        cannot be preempted); ``None`` disables it.
    fault_plan:
        Fault plan to install inside every cell scope; defaults to the
        process's active plan (``repro run --faults plan.json``).
    decision_path:
        JSONL file for the merged decision trace
        (``--trace-decisions``): every cell runs under its own record
        stream, decision records come back on the :class:`CellResult`
        (persisting through the store, so served cells keep their
        traces) and are written here in cell-index order.  They are
        also re-emitted into the caller's record stream, so with a
        sink attached (``--telemetry``) cells are traced even without a
        path; with neither, cells run untraced.
    store:
        Content-addressed experiment store (an
        :class:`~repro.store.store.ExperimentStore` or a directory
        path, ``repro run --store DIR``).  Cells whose canonical
        configuration hash is already stored are served from it
        without dispatching a worker and counted in
        :attr:`SweepResult.store_hits`; fresh completions are written
        through.  ``None`` disables the store (the CLI resolves
        ``--store`` / ``REPRO_STORE`` / ``<out>/store`` before calling).
        See ``docs/STORE.md``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    cells = _build_cells(spec, params, seed, sweep_overrides)
    plan = fault_plan if fault_plan is not None else faults.active_plan()
    collect_telemetry = telemetry.enabled() and jobs > 1
    collect_decisions = decision_path is not None or telemetry.has_sinks()

    store_obj = (
        store if isinstance(store, ExperimentStore) or store is None
        else ExperimentStore(store)
    )
    results: dict[str, CellResult] = {}
    if store_obj is not None:
        keys = _cell_keys(spec, cells, plan)
        results = _store_scan(store_obj, cells, keys, collect_decisions)
        store_meta = {
            "spec": spec.name,
            "numerics_mode": active_numerics().mode,
            "code": code_fingerprint(),
        }
    pending = [c for c in cells if c.cell_id not in results]

    def complete(cell: SweepCell, result: CellResult) -> None:
        """Every completion path funnels here: record, then write through."""
        results[cell.cell_id] = result
        if store_obj is not None:
            _store_put(store_obj, keys[cell.cell_id], cell, result,
                       store_meta)

    if jobs == 1 or len(pending) <= 1:
        _run_serial(spec, pending, complete, plan, max_retries,
                    retry_backoff_s, collect_decisions=collect_decisions)
    else:
        _run_pool(spec, pending, complete,
                  plan.to_dict() if plan is not None else None,
                  collect_telemetry, jobs, max_retries,
                  retry_backoff_s, cell_timeout_s,
                  collect_decisions=collect_decisions)

    if collect_telemetry:
        merged = merge_metrics(
            [r.metrics for r in results.values() if r.metrics]
        )
        if merged["counters"] or merged["gauges"] or merged["histograms"]:
            _fold_into_parent_registry(merged)

    ordered = sorted(results.values(), key=lambda r: r.index)
    if collect_decisions:
        _merge_decisions(ordered, decision_path)
    return SweepResult(
        spec_name=spec.name,
        params=params,
        cells=ordered,
        store_path=store_obj.root if store_obj is not None else None,
    )
