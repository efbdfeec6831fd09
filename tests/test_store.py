"""Tests for the content-addressed experiment store and its sweep hookup."""

import json
import os

import numpy as np
import pytest

import repro.experiments  # noqa: F401  (populate the spec registry)
from repro.cli import main
from repro.core.numerics import NumericsConfig
from repro.experiments import spec as spec_registry
from repro.experiments.parallel import run_sweep
from repro.experiments.spec import ExperimentSpec, ParamSpec
from repro.faults.plan import FaultPlan, FaultSpec
from repro.store import (
    ENV_FINGERPRINT,
    ENV_STORE,
    ExperimentStore,
    canonical_json,
    cell_key,
    code_fingerprint,
    resolve_store_dir,
)
from repro.telemetry import runtime as telemetry

# -- canonical serialisation --------------------------------------------


def test_canonical_json_ignores_dict_order():
    assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})


def test_canonical_json_normalises_numpy_and_tuples():
    assert canonical_json((1, 2.5, np.float64(3.0))) \
        == canonical_json([1, 2.5, 3.0])
    assert canonical_json({"x": np.int64(4)}) == canonical_json({"x": 4})
    assert canonical_json(np.array([1.0, 2.0])) == canonical_json([1.0, 2.0])


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json({"x": float("nan")})


# -- code fingerprint ----------------------------------------------------


def test_code_fingerprint_tracks_tree_changes(tmp_path):
    (tmp_path / "a.py").write_text("A = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("B = 2\n")
    first = code_fingerprint(tmp_path, environ={})

    (tmp_path / "a.py").write_text("A = 2\n")
    # the per-root cache must not mask the edit
    from repro.store import key as key_module

    key_module._FINGERPRINTS.clear()
    second = code_fingerprint(tmp_path, environ={})
    assert first != second
    key_module._FINGERPRINTS.clear()


def test_code_fingerprint_env_override(tmp_path):
    assert code_fingerprint(
        tmp_path, environ={ENV_FINGERPRINT: "pinned"}
    ) == "pinned"


def test_code_fingerprint_default_is_stable():
    assert code_fingerprint() == code_fingerprint()


# -- cell keys -----------------------------------------------------------

_BASE = dict(
    entropy=7,
    spawn_key=(2,),
    fault_plan=None,
    numerics=NumericsConfig(),
    code="codefp",
)


def _key(**overrides):
    kwargs = {**_BASE, **overrides}
    spec_name = kwargs.pop("spec_name", "static")
    params = kwargs.pop("params", {"delta2": 8.0, "periods": 150})
    return cell_key(spec_name, params, **kwargs)


def test_cell_key_is_deterministic():
    assert _key() == _key()
    # dict insertion order must not matter
    assert _key(params={"periods": 150, "delta2": 8.0}) == _key()
    # 64-hex SHA-256
    key = _key()
    assert len(key) == 64
    int(key, 16)


@pytest.mark.parametrize("change", [
    {"spec_name": "dynamic"},
    {"params": {"delta2": 9.0, "periods": 150}},
    {"params": {"delta2": 8.0, "periods": 151}},
    {"entropy": 8},
    {"spawn_key": (3,)},
    {"fault_plan": FaultPlan(
        specs=(FaultSpec(kind="sensor", mode="nan", at=(1,)),), seed=0
    ).to_dict()},
    {"numerics": NumericsConfig(sparse=True)},
    {"numerics": NumericsConfig(sparse=True, sparse_budget=128)},
    {"numerics": NumericsConfig(sparse_budget=128)},
    {"code": "othercode"},
])
def test_cell_key_changes_with_any_field(change):
    assert _key(**change) != _key()


#: One static cell's digest under a pinned code fingerprint, as keyed
#: while the numerics mode still travelled through the environment: the
#: payload is ``asdict(NumericsConfig)`` however the config is installed.
_PINNED_DIGESTS = {
    "dense": "ed082a5be82dd20b4f570e9f9cba414c05ca0c5b1f9547794e8efa008c293373",
    "sparse": "c9fa9a01e7124ba322ee35540507ee4e15456a1ff7ec57c856ae67ca105db373",
}


@pytest.mark.parametrize("config", [
    NumericsConfig(), NumericsConfig.from_mode("sparse", sparse_budget=24),
], ids=["dense", "sparse"])
def test_cell_key_digest_is_pinned(config):
    params = {"setting": "lax", "delta2": 8.0, "periods": 40}

    def key(**numerics):
        return cell_key("static", params, entropy=0, spawn_key=(1,),
                        code="pinned", **numerics)

    with telemetry.configure(numerics=config):
        installed = key()
    assert key(numerics=config) == installed == _PINNED_DIGESTS[config.mode]


# -- the store itself ----------------------------------------------------

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "1" * 62


def test_store_put_get_roundtrip(tmp_path):
    store = ExperimentStore(tmp_path / "store")
    result = {"rows": [{"x": 1, "y": 2.5}], "metrics": None, "attempts": 1}
    store.put(KEY_A, result, {"spec": "toy", "cell_id": "x=1"})
    blob = store.get(KEY_A)
    assert blob["key"] == KEY_A
    assert blob["result"] == result
    assert blob["meta"]["spec"] == "toy"
    assert store.contains(KEY_A)
    assert not store.contains(KEY_B)
    assert store.get(KEY_B) is None


def test_store_corrupt_blob_is_a_miss(tmp_path):
    store = ExperimentStore(tmp_path)
    store.put(KEY_A, {"rows": []}, {})
    store.blob_path(KEY_A).write_text("{truncated")
    assert store.get(KEY_A) is None


def test_store_index_dedupes_last_wins(tmp_path):
    store = ExperimentStore(tmp_path)
    store.put(KEY_A, {"rows": [1]}, {"spec": "toy"})
    store.put(KEY_A, {"rows": [1, 2]}, {"spec": "toy"})
    entries = store.entries()
    assert len(entries) == 1
    assert entries[0]["rows"] == 2


def test_store_find_filters(tmp_path):
    store = ExperimentStore(tmp_path)
    store.put(KEY_A, {"rows": [1]}, {
        "spec": "toy", "params": {"delta2": 8.0},
        "seed": {"entropy": 0, "spawn_key": [0]},
    })
    store.put(KEY_B, {"rows": [1]}, {
        "spec": "other", "params": {"delta2": 1.0},
        "seed": {"entropy": 3, "spawn_key": [0]},
    })
    assert {e["key"] for e in store.find(spec="toy")} == {KEY_A}
    assert {e["key"] for e in store.find(seed=3)} == {KEY_B}
    # string/float spelling tolerance, as the CLI passes filters
    assert {e["key"] for e in store.find(params={"delta2": "8"})} == {KEY_A}
    assert {e["key"] for e in store.find(params={"delta2": 8})} == {KEY_A}
    assert store.find(spec="toy", seed=3) == []
    assert {e["key"] for e in store.find(key_prefix="bb")} == {KEY_B}


def test_store_verify_detects_tamper_missing_and_orphans(tmp_path):
    store = ExperimentStore(tmp_path)
    store.put(KEY_A, {"rows": [1]}, {})
    assert store.verify()["ok"] == 1

    # tamper with the blob -> checksum mismatch
    path = store.blob_path(KEY_A)
    path.write_text(path.read_text().replace('"rows": [1]', '"rows": [9]'))
    report = store.verify()
    assert report["mismatched"] == [KEY_A]

    # delete it -> missing
    path.unlink()
    report = store.verify()
    assert report["missing"] == [KEY_A]

    # a blob with no index entry -> orphan
    orphan = store.blob_path(KEY_B)
    orphan.parent.mkdir(parents=True, exist_ok=True)
    orphan.write_text("{}")
    assert len(store.verify()["orphans"]) == 1


def test_store_gc_compacts_and_deletes_orphans(tmp_path):
    # Records put without a code fingerprint (meta {}) survive gc.
    store = ExperimentStore(tmp_path)
    store.put(KEY_A, {"rows": [1]}, {})
    store.put(KEY_A, {"rows": [1, 2]}, {})  # duplicate index line
    orphan = store.blob_path(KEY_B)
    orphan.parent.mkdir(parents=True, exist_ok=True)
    orphan.write_text("{}")
    # index entry whose blob vanished
    store.put(KEY_B.replace("bb", "cc"), {"rows": []}, {})
    store.blob_path(KEY_B.replace("bb", "cc")).unlink()

    stats = store.gc()
    assert stats["kept"] == 1
    assert stats["dropped_entries"] == 2
    assert stats["deleted_blobs"] == 1
    assert not orphan.exists()
    assert store.verify()["ok"] == 1
    assert store.verify()["orphans"] == []


# -- store resolution ----------------------------------------------------


def test_resolve_store_dir_precedence(tmp_path):
    env = {ENV_STORE: str(tmp_path / "env-store")}
    assert resolve_store_dir(None, environ={}) is None
    assert resolve_store_dir(None, environ=env) == tmp_path / "env-store"
    assert resolve_store_dir(
        tmp_path / "flag", environ=env
    ) == tmp_path / "flag"
    assert resolve_store_dir(tmp_path / "flag", no_store=True,
                             environ=env) is None
    assert resolve_store_dir(None, no_store=True, environ=env) is None
    # with neither flag nor env, the experiment's <out>/store
    out = tmp_path / "out"
    assert resolve_store_dir(None, out=out, environ={}) == out / "store"
    assert resolve_store_dir(None, out=out, environ=env) \
        == tmp_path / "env-store"
    assert resolve_store_dir(tmp_path / "flag", out=out,
                             environ=env) == tmp_path / "flag"
    assert resolve_store_dir(None, no_store=True, out=out,
                             environ={}) is None


# -- sweep-engine integration (toy spec, serial) -------------------------

_CALLS: list = []


def _toy_cell(params, seed):
    _CALLS.append(params["x"])
    return [{"x": params["x"], "draw": int(seed.generate_state(1)[0])}]


def _toy_spec():
    return ExperimentSpec(
        name="toy-store",
        help="synthetic spec for store tests",
        params=(ParamSpec("x", type=int, default=(1, 2, 3), sweep=True),),
        run_cell=_toy_cell,
        report=lambda rows, params, out: f"{len(rows)} rows",
    )


def test_sweep_store_roundtrip_bit_identical(tmp_path):
    spec, params = _toy_spec(), _toy_spec().resolve({})
    store = tmp_path / "store"
    _CALLS.clear()
    cold = run_sweep(spec, params, seed=3, jobs=1, store=store)
    assert _CALLS == [1, 2, 3]
    assert cold.store_hits == 0

    _CALLS.clear()
    warm = run_sweep(spec, params, seed=3, jobs=1, store=store)
    assert _CALLS == []  # nothing recomputed
    assert warm.store_hits == 3
    assert all(c.store_hit for c in warm.cells)
    assert warm.pids == ()  # zero workers dispatched
    assert json.dumps(cold.rows) == json.dumps(warm.rows)  # byte-identical
    assert warm.store_path == store


def test_sweep_store_miss_on_changed_seed(tmp_path):
    spec, params = _toy_spec(), _toy_spec().resolve({})
    run_sweep(spec, params, seed=3, jobs=1, store=tmp_path)
    _CALLS.clear()
    other = run_sweep(spec, params, seed=4, jobs=1, store=tmp_path)
    assert _CALLS == [1, 2, 3]
    assert other.store_hits == 0


def test_sweep_store_miss_on_changed_param(tmp_path):
    spec = _toy_spec()
    run_sweep(spec, spec.resolve({}), seed=3, jobs=1,
              store=tmp_path)
    _CALLS.clear()
    shifted = run_sweep(spec, spec.resolve({"x": (2, 3, 4)}), seed=3,
                        jobs=1, store=tmp_path)
    # every cell's spawn key or value differs -> nothing reusable
    assert shifted.store_hits == 0
    assert _CALLS == [2, 3, 4]


def test_sweep_store_invalidated_by_code_fingerprint(tmp_path, monkeypatch):
    spec, params = _toy_spec(), _toy_spec().resolve({})
    monkeypatch.setenv(ENV_FINGERPRINT, "v1")
    run_sweep(spec, params, seed=3, jobs=1, store=tmp_path)
    monkeypatch.setenv(ENV_FINGERPRINT, "v2")
    _CALLS.clear()
    rerun = run_sweep(spec, params, seed=3, jobs=1, store=tmp_path)
    assert rerun.store_hits == 0
    assert _CALLS == [1, 2, 3]
    # and back to v1: everything hits again
    monkeypatch.setenv(ENV_FINGERPRINT, "v1")
    _CALLS.clear()
    back = run_sweep(spec, params, seed=3, jobs=1, store=tmp_path)
    assert back.store_hits == 3
    assert _CALLS == []


def test_gc_drops_results_of_other_code(tmp_path, monkeypatch):
    """Cells stored under an older code fingerprint can never be served
    again: gc deletes them and keeps the current code's."""
    spec, params = _toy_spec(), _toy_spec().resolve({})
    for version in ("v1", "v2", "v3"):
        monkeypatch.setenv(ENV_FINGERPRINT, version)
        run_sweep(spec, params, seed=3, jobs=1, store=tmp_path)
    store = ExperimentStore(tmp_path)
    stats = store.gc()
    assert stats["kept"] == 3
    assert stats["dropped_entries"] == 6
    assert stats["deleted_blobs"] == 6
    assert [r["code"] for r in store.entries()] == ["v3"] * 3
    assert store.verify()["orphans"] == []
    _CALLS.clear()
    warm = run_sweep(spec, params, seed=3, jobs=1, store=tmp_path)
    assert warm.store_hits == 3 and _CALLS == []


def test_put_after_torn_index_tail_keeps_its_own_line(tmp_path):
    """A write after a crash mid-append is indexed, so ``gc`` keeps it."""
    store = ExperimentStore(tmp_path)
    store.put(KEY_A, {"rows": [1]}, {})
    text = store.index_path.read_text()
    store.index_path.write_text(text[: len(text) // 2])
    store.put(KEY_B, {"rows": [2]}, {})
    assert [e["key"] for e in store.entries()] == [KEY_B]
    assert store.verify()["corrupt_index_lines"] == 1
    store.gc()
    assert store.get(KEY_B)["result"]["rows"] == [2]


# -- crash-recovered results ---------------------------------------------

#: Whether ``_recovering_cell`` stamps its rows as crash-recovered.
_RECOVERED: list = [True]


def _recovering_cell(params, seed):
    _CALLS.append(params["x"])
    return [{"x": params["x"], "recovered": _RECOVERED[0]}]


def _recovering_spec():
    return ExperimentSpec(
        name="toy-recovered",
        help="synthetic spec whose rows may carry the recovered flag",
        params=(ParamSpec("x", type=int, default=(1, 2), sweep=True),),
        run_cell=_recovering_cell,
        report=lambda rows, params, out: f"{len(rows)} rows",
    )


@pytest.fixture
def counter():
    """Parent-side telemetry counters around the test body, by name."""
    telemetry.reset_metrics()
    telemetry.enable()
    yield lambda name: telemetry.metrics_snapshot()["counters"].get(name, 0)
    telemetry.disable()
    telemetry.reset_metrics()


def test_recovered_blob_is_stamped_and_never_served(tmp_path):
    spec = _recovering_spec()
    params = spec.resolve({})
    store = ExperimentStore(tmp_path)
    _RECOVERED[0] = True
    run_sweep(spec, params, seed=0, jobs=1, store=store)
    blobs = [store.get(entry["key"]) for entry in store.entries()]
    assert len(blobs) == 2
    assert all(blob["result"]["recovered"] is True for blob in blobs)

    _CALLS.clear()
    rerun = run_sweep(spec, params, seed=0, jobs=1, store=store)
    assert rerun.store_hits == 0
    assert _CALLS == [1, 2]


def test_recovered_run_never_overwrites_a_clean_blob(tmp_path, counter):
    spec = _recovering_spec()
    params = spec.resolve({})
    store = ExperimentStore(tmp_path)
    _RECOVERED[0] = False
    run_sweep(spec, params, seed=0, jobs=1, store=store)  # clean, untraced
    clean = {e["key"]: store.blob_path(e["key"]).read_bytes()
             for e in store.entries()}
    assert len(clean) == 2

    # A traced run cannot use the untraced blobs, so it recomputes; its
    # rows come back crash-recovered and must not shadow the clean ones.
    _RECOVERED[0] = True
    _CALLS.clear()
    rerun = run_sweep(spec, params, seed=0, jobs=1, store=store,
                      decision_path=tmp_path / "trace.jsonl")
    assert rerun.store_hits == 0 and _CALLS == [1, 2]
    assert counter("sweep.store.recovered_skips") == 2
    assert {key: store.blob_path(key).read_bytes()
            for key in clean} == clean


def test_traced_run_does_not_reuse_untraced_blob(tmp_path):
    """A blob without decision records cannot serve --trace-decisions."""
    spec = spec_registry.get("static")
    params = spec.resolve({"delta2": (1.0,), "periods": 3, "levels": 3})
    store = tmp_path / "store"
    cold = run_sweep(spec, params, seed=0, jobs=1, store=store)
    assert cold.store_hits == 0

    traced = run_sweep(
        spec, params, seed=0, jobs=1, store=store,
        decision_path=tmp_path / "trace.jsonl",
    )
    assert traced.store_hits == 0  # recomputed to capture the trace
    assert json.dumps(traced.rows) == json.dumps(cold.rows)

    # the write-through refreshed the blobs with decisions: now a hit
    warm = run_sweep(
        spec, params, seed=0, jobs=1, store=store,
        decision_path=tmp_path / "trace2.jsonl",
    )
    assert warm.store_hits == len(warm.cells)
    records = [
        json.loads(line)
        for line in (tmp_path / "trace2.jsonl").read_text().splitlines()
    ]
    assert records and all(r.get("store_hit") for r in records)
    assert json.dumps(warm.rows) == json.dumps(cold.rows)


def test_quarantined_cells_are_not_stored(tmp_path):
    def _bomb(params, seed):
        raise RuntimeError("boom")

    spec = ExperimentSpec(
        name="toy-bomb", help="always fails",
        params=(ParamSpec("x", type=int, default=(1,), sweep=True),),
        run_cell=_bomb, report=lambda rows, params, out: "",
    )
    result = run_sweep(spec, spec.resolve({}), seed=0, jobs=1,
                       store=tmp_path, max_retries=0, retry_backoff_s=0.0)
    assert len(result.quarantined) == 1
    assert ExperimentStore(tmp_path).entries() == []


# -- registered-spec integration: --jobs N and the CLI -------------------


def _static_tiny():
    spec = spec_registry.get("static")
    return spec, spec.resolve({"delta2": (1.0, 8.0), "periods": 3,
                               "levels": 3})


def test_store_warm_rerun_matches_cold_at_any_jobs(tmp_path):
    """Cache-hit sweep output is bit-identical at --jobs 1 and --jobs N."""
    spec, params = _static_tiny()
    store = tmp_path / "store"
    cold = run_sweep(spec, params, seed=7, jobs=2, store=store)
    assert cold.store_hits == 0
    assert len(cold.pids) >= 1

    warm_serial = run_sweep(spec, params, seed=7, jobs=1,
                            store=store)
    warm_pool = run_sweep(spec, params, seed=7, jobs=2,
                          store=store)
    for warm in (warm_serial, warm_pool):
        assert warm.store_hits == len(warm.cells)
        assert warm.pids == ()  # zero workers dispatched
        assert json.dumps(warm.rows) == json.dumps(cold.rows)


def test_cli_store_roundtrip(tmp_path, capsys):
    store = tmp_path / "store"
    argv = [
        "run", "static", "--sweep", "delta2=1", "--set", "periods=3",
        "--set", "levels=3", "--store", str(store),
    ]
    assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
    out = capsys.readouterr().out
    assert "store hits: 3/3" in out

    assert main(["results", "list", "--store", str(store)]) == 0
    assert "static" in capsys.readouterr().out
    assert main(["results", "verify", "--store", str(store)]) == 0
    capsys.readouterr()
    key = ExperimentStore(store).entries()[0]["key"]
    assert main(["results", "show", key[:12], "--store", str(store)]) == 0
    assert "static" in capsys.readouterr().out
    assert main(["results", "gc", "--store", str(store)]) == 0


#: Six static cells (three policies x two prices), three periods each.
_STATIC_ARGV = [
    "run", "static", "--sweep", "delta2=1,8", "--set", "periods=3",
    "--set", "levels=3",
]


def test_cli_traced_rerun_after_untraced_run_writes_every_record(
        tmp_path, capsys, monkeypatch):
    """The default ``<out>/store`` never serves an untraced blob to a
    ``--trace-decisions`` run: every cell-period gets its record."""
    monkeypatch.delenv(ENV_STORE, raising=False)
    out = tmp_path / "out"
    assert main(_STATIC_ARGV + ["--out", str(out)]) == 0
    assert (out / "store" / "index.jsonl").exists()
    assert main(_STATIC_ARGV + ["--out", str(out), "--trace-decisions"]) == 0
    assert "(18 records;" in capsys.readouterr().out

    fresh = tmp_path / "fresh"
    assert main(_STATIC_ARGV + ["--out", str(fresh), "--trace-decisions",
                                "--no-store"]) == 0

    def unstamped(path):
        return [{k: v for k, v in json.loads(line).items() if k != "store_hit"}
                for line in path.read_text().splitlines()]

    rerun = unstamped(out / "static_decisions.jsonl")
    assert len(rerun) == 18
    assert rerun == unstamped(fresh / "static_decisions.jsonl")


def test_cli_warm_pool_rerun_counts_store_hits(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.delenv(ENV_STORE, raising=False)
    argv = _STATIC_ARGV + ["--out", str(tmp_path), "--jobs", "2"]
    assert main(argv) == 0
    cold_csv = (tmp_path / "static.csv").read_bytes()
    assert "ran 6 cells on" in capsys.readouterr().out
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "store hits: 6/6" in out
    assert "ran 0 cells on 0 process(es)" in out
    assert (tmp_path / "static.csv").read_bytes() == cold_csv


def test_cli_no_store_overrides_env(tmp_path, capsys, monkeypatch):
    store = tmp_path / "store"
    monkeypatch.setenv(ENV_STORE, str(store))
    argv = [
        "run", "static", "--sweep", "delta2=1", "--set", "periods=3",
        "--set", "levels=3",
    ]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert os.path.isdir(store)  # env-resolved store was populated
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "b"), "--no-store"]) == 0
    assert "store hits" not in capsys.readouterr().out


def test_cli_results_without_store_errors(monkeypatch):
    monkeypatch.delenv(ENV_STORE, raising=False)
    with pytest.raises(SystemExit, match="no store configured"):
        main(["results", "list"])


def test_cli_verify_exit_codes_gate_ci(tmp_path, capsys):
    """``repro results verify`` must fail loudly on broken blobs.

    CI gates on the exit code and greps the one-line ``verify:``
    summary, so both are regression-tested for the missing-blob and
    corrupt-blob cases.
    """
    store = ExperimentStore(tmp_path / "store")
    store.put(KEY_A, {"rows": [1]}, {})
    argv = ["results", "verify", "--store", str(store.root)]

    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "verify: 1 entr(ies), ok 1" in out

    # corrupt the blob in place -> checksum mismatch, exit 1
    path = store.blob_path(KEY_A)
    path.write_text(path.read_text().replace('"rows": [1]', '"rows": [9]'))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "mismatched 1" in captured.out
    assert "FAILED" in captured.err

    # delete it -> missing, exit 1
    path.unlink()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "missing 1" in captured.out
    assert "FAILED" in captured.err
