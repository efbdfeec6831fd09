"""Tests for the experiment registry, the sweep engine and the CLI shell."""

from types import SimpleNamespace

import pytest

import repro.experiments  # noqa: F401  (populate the spec registry)
from repro.cli import main
from repro.core.numerics import NumericsConfig
from repro.experiments import parallel
from repro.experiments import spec as spec_registry
from repro.experiments.parallel import merge_metrics, run_sweep
from repro.experiments.runner import ConstraintSchedule, band
from repro.experiments.spec import ExperimentSpec, ParamSpec, cell_id
from repro.faults import FaultPlan, FaultSpec
from repro.store import ENV_FINGERPRINT, ExperimentStore
from repro.telemetry import runtime as telemetry
from repro.testbed.config import ServiceConstraints

# -- CLI smoke: every registered spec end-to-end with tiny budgets -------

#: Tiny override per scalar parameter name (CLI string values).
TINY_SCALARS = {
    "periods": "3",
    "levels": "3",
    "repetitions": "2",
    "figure": "4",
}

#: Trimmed sweep-axis values so each smoke run stays a handful of cells.
TINY_SWEEPS = {
    "delta2": ["1"],
    "users": ["2"],
    "studies": ["safeset"],
}

#: Spec-specific scalar overrides (tariff needs >= 2 periods per day).
TINY_PER_SPEC = {
    "tariff": {"periods": "4"},
}


def _tiny_scalar(spec, name):
    return TINY_PER_SPEC.get(spec.name, {}).get(name, TINY_SCALARS.get(name))


def _tiny_argv(spec):
    argv = [spec.name]
    for p in spec.params:
        if p.sweep and p.name in TINY_SWEEPS:
            argv += [f"--{p.name}", *TINY_SWEEPS[p.name]]
        elif _tiny_scalar(spec, p.name) is not None:
            argv += [f"--{p.name}", _tiny_scalar(spec, p.name)]
        elif p.required:
            raise AssertionError(
                f"spec '{spec.name}' has required parameter '{p.name}' with "
                "no tiny override; extend TINY_SCALARS"
            )
    return argv


def _tiny_params(spec):
    overrides = {}
    for p in spec.params:
        if p.sweep and p.name in TINY_SWEEPS:
            overrides[p.name] = p.parse_values(",".join(TINY_SWEEPS[p.name]))
        elif _tiny_scalar(spec, p.name) is not None:
            overrides[p.name] = p.type(_tiny_scalar(spec, p.name))
    return spec.resolve(overrides)


@pytest.mark.parametrize("name", spec_registry.names())
def test_cli_smoke_every_spec(name, tmp_path, capsys):
    """Each registered spec runs end-to-end and writes its artifacts."""
    spec = spec_registry.get(name)
    argv = _tiny_argv(spec) + ["--out", str(tmp_path), "--jobs", "1"]
    assert main(argv) == 0
    for artifact in spec.artifact_names(_tiny_params(spec)):
        assert (tmp_path / artifact).exists(), f"{name} missing {artifact}"
    assert "wrote" in capsys.readouterr().out


def test_cli_list_shows_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in spec_registry.names():
        assert name in out


def test_cli_run_rejects_unknown_spec():
    with pytest.raises(SystemExit):
        main(["run", "nonsense"])


def test_cli_run_rejects_unknown_sweep_key(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "run", "dynamic", "--sweep", "bogus=1,2",
            "--out", str(tmp_path),
        ])


def test_cli_run_requires_required_params():
    with pytest.raises(SystemExit):
        main(["run", "profile"])  # missing --set figure=N


def test_cli_run_with_sweep_and_set(tmp_path, capsys):
    code = main([
        "run", "tariff", "--set", "periods=6", "--set", "levels=3",
        "--out", str(tmp_path), "--jobs", "1",
    ])
    assert code == 0
    assert (tmp_path / "tariff.csv").exists()


# -- determinism: --jobs 1 and --jobs 2 give identical cell results ------


def _static_tiny_params():
    spec = spec_registry.get("static")
    return spec, spec.resolve({"delta2": (1.0, 8.0), "periods": 3, "levels": 3})


def test_jobs_parallel_matches_serial(tmp_path):
    """SeedSequence-tree seeding makes worker count irrelevant."""
    spec, params = _static_tiny_params()
    serial = run_sweep(spec, params, seed=7, jobs=1)
    parallel_result = run_sweep(spec, params, seed=7, jobs=2)
    assert [c.cell_id for c in serial.cells] == [
        c.cell_id for c in parallel_result.cells
    ]
    assert serial.rows == parallel_result.rows
    assert len(parallel_result.pids) >= 1


def test_cell_seeds_depend_on_root_seed():
    spec, params = _static_tiny_params()
    a = run_sweep(spec, params, seed=0, jobs=1)
    b = run_sweep(spec, params, seed=1, jobs=1)
    assert a.rows != b.rows


# -- resume through the experiment store --------------------------------

_CALLS: list = []
#: Value of ``x`` whose cell raises ``KeyboardInterrupt`` (None: none).
_INTERRUPT_AT: list = [None]


def _toy_cell(params, seed):
    if params["x"] == _INTERRUPT_AT[0]:
        raise KeyboardInterrupt
    _CALLS.append(params["x"])
    rng = seed if hasattr(seed, "generate_state") else None
    draw = int(rng.generate_state(1)[0]) if rng is not None else 0
    return [{"x": params["x"], "draw": draw}]


def _toy_report(rows, params, out):
    return f"{len(rows)} rows"


def _toy_spec(xs=(1, 2, 3)):
    return ExperimentSpec(
        name="toy",
        help="synthetic spec for engine tests",
        params=(
            ParamSpec("x", type=int, default=xs, sweep=True),
            ParamSpec("periods", type=int, default=1),
        ),
        run_cell=_toy_cell,
        report=_toy_report,
    )


def test_sweep_resumes_from_manifest(tmp_path):
    """A repeated sweep is served from the store: nothing re-executes."""
    spec = _toy_spec()
    params = spec.resolve({})
    _CALLS.clear()
    first = run_sweep(spec, params, seed=3, jobs=1, store=tmp_path)
    assert first.store_hits == 0
    assert _CALLS == [1, 2, 3]

    _CALLS.clear()
    second = run_sweep(spec, params, seed=3, jobs=1, store=tmp_path)
    assert second.store_hits == 3
    assert _CALLS == []  # nothing re-executed
    assert second.rows == first.rows


def test_interrupted_sweep_runs_only_pending_cells(tmp_path):
    """``KeyboardInterrupt`` escapes the quarantine ladder mid-sweep; the
    cells finished before it are already stored, so the rerun executes
    only the interrupted cell and the ones after it."""
    spec = _toy_spec((1, 2, 3, 4))
    params = spec.resolve({})
    _CALLS.clear()
    _INTERRUPT_AT[0] = 3
    try:
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, params, seed=3, jobs=1, store=tmp_path)
    finally:
        _INTERRUPT_AT[0] = None
    assert _CALLS == [1, 2]

    _CALLS.clear()
    second = run_sweep(spec, params, seed=3, jobs=1, store=tmp_path)
    assert second.store_hits == 2
    assert _CALLS == [3, 4]
    assert second.rows == run_sweep(spec, params, seed=3, jobs=1).rows


def test_reshaped_sweep_does_not_reuse_stale_seeds(tmp_path):
    """Cells are reused only when their seed-tree node matches.

    ``x=3`` is cell index 2 of the 3-value grid but index 0 of the
    1-value grid, so its SeedSequence spawn key differs and the
    stored result must not be reused.
    """
    spec = _toy_spec()
    run_sweep(spec, spec.resolve({}), seed=3, jobs=1, store=tmp_path)
    _CALLS.clear()
    rerun = run_sweep(
        spec, spec.resolve({"x": (3,)}), seed=3, jobs=1, store=tmp_path
    )
    assert rerun.store_hits == 0
    assert _CALLS == [3]


@pytest.mark.parametrize("change", ["faults", "numerics", "code"])
def test_changed_configuration_forces_recompute(tmp_path, monkeypatch,
                                                change):
    """A result is served only under its cell's full content key: a
    changed fault plan, numerics mode or code fingerprint re-runs every
    cell instead of serving the rows the old configuration computed."""
    spec = _toy_spec()
    params = spec.resolve({})
    run_sweep(spec, params, seed=3, jobs=1, store=tmp_path)
    plan = numerics = None
    if change == "faults":
        plan = FaultPlan(specs=(FaultSpec(kind="sensor", mode="nan",
                                          at=(1,)),))
    elif change == "numerics":
        numerics = NumericsConfig(sparse=True)
    else:
        monkeypatch.setenv(ENV_FINGERPRINT, "edited-code")
    _CALLS.clear()
    with telemetry.configure(plan=plan, numerics=numerics):
        rerun = run_sweep(spec, params, seed=3, jobs=1, store=tmp_path)
    assert rerun.store_hits == 0
    assert _CALLS == [1, 2, 3]


def test_manifest_records_carry_spawn_keys(tmp_path):
    """Each stored cell's index entry names its seed-tree node."""
    spec = _toy_spec()
    run_sweep(spec, spec.resolve({}), seed=3, jobs=1, store=tmp_path)
    entries = ExperimentStore(tmp_path).find(spec="toy", seed=3)
    assert sorted(tuple(e["seed"]["spawn_key"]) for e in entries) == [
        (0,), (1,), (2,)
    ]


def test_run_sweep_rejects_bad_jobs():
    spec = _toy_spec()
    with pytest.raises(ValueError):
        run_sweep(spec, spec.resolve({}), jobs=0)


# -- spec / registry API -------------------------------------------------


def test_param_parse_values_and_choices():
    p = ParamSpec("delta2", type=float, sweep=True)
    assert p.parse_values("1,8,64") == (1.0, 8.0, 64.0)
    with pytest.raises(ValueError):
        p.parse_values("")
    limited = ParamSpec("figure", type=int, choices=(1, 2, 3))
    with pytest.raises(ValueError):
        limited.parse_values("9")


def test_resolve_validates_names_and_required():
    spec = _toy_spec()
    with pytest.raises(KeyError):
        spec.resolve({"bogus": 1})
    required = ExperimentSpec(
        name="needy", help="", run_cell=_toy_cell, report=_toy_report,
        params=(ParamSpec("figure", type=int, required=True),),
    )
    with pytest.raises(ValueError):
        required.resolve({})


def test_cells_promote_scalar_params_to_axes():
    spec = _toy_spec()
    cells = spec.cells(spec.resolve({}), {"periods": (1, 2)})
    assert len(cells) == 6  # 3 x-values crossed with 2 periods values
    assert cells[0][0] == "x=1/periods=1"
    assert cells[0][1]["periods"] == 1


def test_cell_id_formatting():
    assert cell_id({}) == "all"
    assert cell_id({"delta2": 8.0, "users": 4}) == "delta2=8/users=4"


def test_register_rejects_reserved_names():
    with pytest.raises(ValueError):
        spec_registry.register(ExperimentSpec(
            name="list", help="", params=(),
            run_cell=_toy_cell, report=_toy_report,
        ))


def test_reserved_names_are_the_cli_commands():
    """Every subcommand the parser adds besides the specs is reserved,
    so a spec can never collide with one when the parser is built."""
    import argparse

    from repro.cli import build_parser

    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    specs = {spec.name for spec in spec_registry.all_specs()}
    assert set(sub.choices) - specs == set(spec_registry.RESERVED_NAMES)


def test_get_unknown_spec_names_known_ones():
    with pytest.raises(KeyError, match="static"):
        spec_registry.get("nope")


def test_merge_metrics_sums_counters_and_histograms():
    snap = {
        "counters": {"periods": 2},
        "gauges": {"snr": 30.0},
        "histograms": {"cost": {
            "buckets": [1.0, 2.0], "counts": [1, 1, 0],
            "count": 2, "sum": 2.5, "min": 0.5, "max": 2.0, "mean": 1.25,
        }},
    }
    merged = merge_metrics([snap, snap, {}])
    assert merged["counters"]["periods"] == 4
    assert merged["gauges"]["snr"] == 30.0
    hist = merged["histograms"]["cost"]
    assert hist["counts"] == [2, 2, 0]
    assert hist["count"] == 4
    assert hist["sum"] == 5.0
    assert hist["mean"] == pytest.approx(1.25)


def test_jsonable_coerces_numpy():
    import numpy as np

    value = {"a": np.float64(1.5), "b": np.arange(2), "c": (np.int32(3),)}
    assert parallel._jsonable(value) == {"a": 1.5, "b": [0, 1], "c": [3]}


# -- satellite regressions: ConstraintSchedule and band() ----------------


def test_schedule_sorts_changes_once():
    lax = ServiceConstraints(0.9, 0.1)
    tight = ServiceConstraints(0.1, 0.9)
    sched = ConstraintSchedule(lax, changes=((20, lax), (10, tight)))
    assert [start for start, _ in sched.changes] == [10, 20]
    assert sched.at(0) == lax
    assert sched.at(10) == tight
    assert sched.at(25) == lax


def test_schedule_rejects_negative_period():
    with pytest.raises(ValueError, match="non-negative"):
        ConstraintSchedule(
            ServiceConstraints(), changes=((-1, ServiceConstraints()),)
        )


def test_schedule_rejects_duplicate_periods():
    with pytest.raises(ValueError, match="duplicate"):
        ConstraintSchedule(
            ServiceConstraints(),
            changes=((5, ServiceConstraints()), (5, ServiceConstraints())),
        )


def test_band_rejects_empty_logs():
    with pytest.raises(ValueError, match="cost"):
        band([], "cost")


def test_band_names_offending_log():
    logs = [SimpleNamespace(cost=[1.0, 2.0]), SimpleNamespace(cost=[1.0])]
    with pytest.raises(ValueError, match="log 1 has 1 periods"):
        band(logs, "cost")


def test_profile_report_handles_zero_rows(tmp_path):
    from repro.experiments.profiling import report_profile

    text = report_profile([], {"figure": 4}, tmp_path)
    assert "no measurement rows" in text
