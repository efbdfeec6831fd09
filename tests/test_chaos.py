"""Chaos end-to-end: the committed fault plan against the full stack.

``examples/faults/chaos_plan.json`` is the documented chaos scenario
(``docs/ROBUSTNESS.md``): >=5% power-meter dropout, an occasional NaN
delay sample, one forced persistent Cholesky failure and one worker
crash.  The convergence experiment must ride through it with zero
uncaught exceptions, visible quarantine/retry counters, bit-identical
results for a fixed seed, and a converged cost close to the fault-free
baseline.
"""

from pathlib import Path

import numpy as np
import pytest

import repro.experiments  # noqa: F401  (populate the spec registry)
from repro.cli import main
from repro.experiments import spec as spec_registry
from repro.experiments.parallel import run_sweep
from repro.faults import FaultPlan, uninstall
from repro.telemetry import runtime as telemetry

PLAN_PATH = (
    Path(__file__).resolve().parent.parent
    / "examples" / "faults" / "chaos_plan.json"
)


@pytest.fixture(autouse=True)
def _fault_free():
    """Every test starts and ends with no plan installed."""
    uninstall()
    yield
    uninstall()


@pytest.fixture(scope="module")
def chaos_plan() -> FaultPlan:
    return FaultPlan.from_json(PLAN_PATH)


def _convergence():
    spec = spec_registry.get("convergence")
    params = spec.resolve({
        "delta2": (1.0,), "periods": 60, "repetitions": 2, "levels": 5,
    })
    return spec, params  # 2 cells: the plan crashes cell 0 once


def _tail_costs(result, window: int = 15) -> list[float]:
    """Mean cost of the final ``window`` periods, per cell."""
    tails = []
    for cell in result.cells:
        costs = [row["cost"] for row in sorted(cell.rows, key=lambda r: r["t"])]
        tails.append(float(np.mean(costs[-window:])))
    return tails


def test_plan_file_documents_the_advertised_faults(chaos_plan):
    kinds = {(s.kind, s.mode) for s in chaos_plan.specs}
    assert ("sensor", "dropout") in kinds
    assert ("gp", "persistent") in kinds
    assert ("worker", "crash") in kinds
    dropout = next(s for s in chaos_plan.specs if s.mode == "dropout")
    assert dropout.probability >= 0.05


def test_convergence_survives_the_chaos_plan_end_to_end(chaos_plan):
    spec, params = _convergence()
    telemetry.reset_metrics()
    telemetry.enable()
    try:
        result = run_sweep(spec, params, seed=11, jobs=2,
                           fault_plan=chaos_plan, retry_backoff_s=0.0)
        counters = telemetry.metrics_snapshot().get("counters", {})
    finally:
        telemetry.disable()
        telemetry.reset_metrics()

    # Zero uncaught exceptions: every cell completed, none quarantined.
    assert result.quarantined == []
    assert all(cell.rows for cell in result.cells)
    # The injected worker crash was absorbed by the retry ladder.
    assert result.retries >= 1
    assert counters.get("sweep.cell.retries", 0) >= 1
    # The sensor dropouts hit and were quarantined, not fitted.
    assert counters.get("faults.sensor.dropout", 0) > 0
    assert counters.get("edgebol.quarantined", 0) > 0
    # The forced Cholesky failure tripped the degradation ladder.
    assert counters.get("faults.gp.persistent", 0) >= 1
    assert counters.get("edgebol.surrogate_failures", 0) >= 1


def test_chaos_runs_are_bit_identical_for_a_seed(chaos_plan):
    spec, params = _convergence()
    first = run_sweep(spec, params, seed=11, jobs=2,
                      fault_plan=chaos_plan, retry_backoff_s=0.0)
    second = run_sweep(spec, params, seed=11, jobs=2,
                       fault_plan=chaos_plan, retry_backoff_s=0.0)
    assert [c.rows for c in first.cells] == [c.rows for c in second.cells]


def test_chaos_cost_stays_near_the_fault_free_baseline(chaos_plan):
    spec, params = _convergence()
    baseline = run_sweep(spec, params, seed=11, jobs=1)
    chaotic = run_sweep(spec, params, seed=11, jobs=2,
                        fault_plan=chaos_plan, retry_backoff_s=0.0)
    base = float(np.mean(_tail_costs(baseline)))
    chaos = float(np.mean(_tail_costs(chaotic)))
    assert abs(chaos - base) <= 0.15 * abs(base), (
        f"chaos tail cost {chaos:.1f} vs fault-free {base:.1f}"
    )


def test_cli_accepts_a_fault_plan(tmp_path, capsys):
    status = main([
        "convergence", "--delta2", "1", "--periods", "3",
        "--repetitions", "2", "--levels", "3",
        "--faults", str(PLAN_PATH), "--out", str(tmp_path),
    ])
    assert status == 0
    assert "convergence" in capsys.readouterr().out


def test_cli_rejects_a_malformed_fault_plan(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"faults": [{"kind": "cosmic", "mode": "ray"}]}')
    with pytest.raises(SystemExit, match="cannot load fault plan"):
        main(["convergence", "--faults", str(bad), "--out", str(tmp_path)])
