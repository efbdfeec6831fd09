"""Sweep-engine robustness: store index corruption, retries, timeouts,
quarantine.

Drives :func:`repro.experiments.parallel.run_sweep` through corrupted
store indexes and crash/hang fault plans, asserting the engine recovers
without losing completed work (``docs/ROBUSTNESS.md``).
"""

import json

import pytest

import repro.experiments  # noqa: F401  (populate the spec registry)
from repro.experiments import spec as spec_registry
from repro.experiments.parallel import run_sweep
from repro.faults import FaultPlan, FaultSpec, uninstall
from repro.store import ExperimentStore
from repro.telemetry import runtime as telemetry


@pytest.fixture(autouse=True)
def _fault_free():
    """Every test starts and ends with no plan installed."""
    uninstall()
    yield
    uninstall()


@pytest.fixture
def convergence():
    spec = spec_registry.get("convergence")
    params = spec.resolve({
        "delta2": (1.0, 2.0), "periods": 3, "repetitions": 2, "levels": 3,
    })
    return spec, params  # 4 cells


@pytest.fixture
def metrics():
    """Parent-side metrics collection around the test body."""
    telemetry.reset_metrics()
    telemetry.enable()
    yield telemetry.metrics_snapshot
    telemetry.disable()
    telemetry.reset_metrics()


def _counter(snapshot, name):
    return snapshot().get("counters", {}).get(name, 0)


def _index_lines(store):
    return store.index_path.read_text().splitlines()


# -- store index corruption ----------------------------------------------


def test_corrupt_trailing_line_keeps_completed_prefix(convergence, tmp_path):
    """Cells are looked up by blob path, not through the index: a crash
    mid-append that truncates the last index line loses no result."""
    spec, params = convergence
    store = ExperimentStore(tmp_path)
    first = run_sweep(spec, params, seed=3, jobs=1, store=store)
    lines = _index_lines(store)
    store.index_path.write_text(
        "".join(line + "\n" for line in lines[:-1])
        + lines[-1][: len(lines[-1]) // 2]
    )

    second = run_sweep(spec, params, seed=3, jobs=1, store=store)
    assert second.store_hits == len(first.cells)  # nothing re-ran
    assert [c.rows for c in second.cells] == [c.rows for c in first.cells]
    assert store.verify()["corrupt_index_lines"] == 1


def test_corrupt_middle_index_line_loses_no_cell(convergence, tmp_path):
    """A garbled record in the middle of the index drops only itself:
    the intact records after it stay indexed and every cell is served."""
    spec, params = convergence
    store = ExperimentStore(tmp_path)
    first = run_sweep(spec, params, seed=3, jobs=1, store=store)
    lines = _index_lines(store)
    bad_key = json.loads(lines[1])["key"]
    lines[1] = "{not json"  # second record of four
    store.index_path.write_text("\n".join(lines) + "\n")

    assert len(store.entries()) == len(first.cells) - 1
    assert bad_key not in {entry["key"] for entry in store.entries()}
    second = run_sweep(spec, params, seed=3, jobs=1, store=store)
    assert second.store_hits == len(first.cells)
    assert [c.rows for c in second.cells] == [c.rows for c in first.cells]
    assert store.verify()["corrupt_index_lines"] == 1


# -- retries and quarantine ----------------------------------------------


def test_serial_crash_is_retried_and_rows_match_fault_free(
        convergence, metrics):
    spec, params = convergence
    clean = run_sweep(spec, params, seed=5, jobs=1)
    plan = FaultPlan(specs=(
        FaultSpec(kind="worker", mode="crash", at=(0, 2), max_events=2),
    ))
    chaotic = run_sweep(spec, params, seed=5, jobs=1,
                        fault_plan=plan)
    assert chaotic.retries == 2
    assert chaotic.quarantined == []
    assert _counter(metrics, "sweep.cell.retries") == 2
    # The retry re-runs the cell from its own seed node: bit-identical.
    assert [c.rows for c in chaotic.cells] == [c.rows for c in clean.cells]


def test_pool_crash_is_retried_and_rows_match_fault_free(convergence):
    spec, params = convergence
    clean = run_sweep(spec, params, seed=5, jobs=1)
    plan = FaultPlan(specs=(
        FaultSpec(kind="worker", mode="crash", at=(0,), max_events=1),
    ))
    chaotic = run_sweep(spec, params, seed=5, jobs=2,
                        fault_plan=plan)
    assert chaotic.retries >= 1
    assert chaotic.quarantined == []
    assert [c.rows for c in chaotic.cells] == [c.rows for c in clean.cells]


def test_poison_cell_is_quarantined_then_recovers_on_resume(
        convergence, tmp_path, metrics):
    spec, params = convergence
    store = ExperimentStore(tmp_path)
    plan = FaultPlan(specs=(
        FaultSpec(kind="worker", mode="crash", at=(1,)),
    ))
    # No retry budget: the injected crash poisons the cell outright.
    poisoned = run_sweep(spec, params, seed=5, jobs=1, store=store,
                         fault_plan=plan, max_retries=0)
    assert len(poisoned.quarantined) == 1
    bad = poisoned.quarantined[0]
    assert bad.index == 1 and bad.rows == [] and "InjectedWorkerCrash" in bad.error
    assert _counter(metrics, "sweep.cell.quarantined") == 1
    # A failure is not a result: only the healthy cells were stored.
    stored = {entry["cell_id"] for entry in store.entries()}
    assert len(stored) == len(poisoned.cells) - 1
    assert bad.cell_id not in stored

    # The worker fault is not part of the cell key, so a fault-free
    # re-run is served the healthy cells and heals the poison.
    healed = run_sweep(spec, params, seed=5, jobs=1, store=store)
    assert healed.store_hits == len(poisoned.cells) - 1
    assert healed.quarantined == []
    assert all(c.rows for c in healed.cells)
    assert bad.cell_id in {entry["cell_id"] for entry in store.entries()}


def test_hung_worker_times_out_and_the_retry_recovers(convergence, metrics):
    spec, params = convergence
    plan = FaultPlan(specs=(
        FaultSpec(kind="worker", mode="hang", at=(0,), magnitude=3.0,
                  max_events=1),
    ))
    result = run_sweep(spec, params, seed=5, jobs=2,
                       fault_plan=plan, cell_timeout_s=0.5,
                       retry_backoff_s=0.0)
    assert _counter(metrics, "sweep.cell.timeouts") == 1
    assert result.retries >= 1
    assert result.quarantined == []
    assert all(c.rows for c in result.cells)


def test_run_sweep_rejects_negative_max_retries(convergence):
    spec, params = convergence
    with pytest.raises(ValueError, match="max_retries"):
        run_sweep(spec, params, max_retries=-1)
