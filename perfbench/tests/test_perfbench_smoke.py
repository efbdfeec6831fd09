"""Small-scale smoke test of the benchmark: every workload, both modes.

Runs each workload at test scale (3-level grid, six periods, two fleet
cells) untraced and traced, in-process, and checks the benchmark's
contract: every end-to-end and per-layer metric is emitted with its
unit, span self times fit inside their period, and the correctness
check passes.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (perfbench/run.py)

run._use_repo_sources()

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke(name, tmp_path):
    workload = WORKLOADS[name].smoke()
    plain, plain_report = run.measure(workload, seed=3, seconds=0, trace=False)
    traced, traced_report = run.measure(
        workload, seed=3, seconds=0, trace=True,
        spans_path=tmp_path / "spans.jsonl")

    for result in (plain, traced):
        assert result["correct"]
        assert result["failed"] == 0
        assert result["attempted"] >= 2 * workload.periods * workload.cells
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == run.END_TO_END
    assert ({k: m["unit"] for k, m in traced["metrics"].items()}
            == run.per_layer_units())

    # Traced rows are bit-identical to untraced rows, across runs too.
    assert plain_report["digest"] == traced_report["digest"]
    if workload.scenario != "fleet":
        assert plain_report["checks"]["posterior"]

    # Self times partition each period: never above its wall.
    assert traced_report["checks"]["span_self_within_period"]
    shares = [m["value"] for k, m in traced["metrics"].items()
              if k.endswith(".share")]
    assert all(0.0 <= share <= 1.0 for share in shares)
    assert sum(shares) == pytest.approx(1.0)
    assert (tmp_path / "spans.jsonl").stat().st_size > 0

    calls = {k: m["value"] for k, m in traced["metrics"].items()
             if k.endswith(".calls")}
    assert calls["edgebol.select.calls"] == workload.cells
    assert calls["engine.posterior.calls"] >= workload.cells
    assert calls["env.step.calls"] == workload.cells
    if workload.scenario == "fleet":
        assert calls["bus.drain.calls"] > 0
        assert calls["state.encode_snapshot.calls"] > 0
        assert traced["metrics"]["state.snapshot_kb"]["value"] > 0
    else:
        assert calls["bus.drain.calls"] == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())
