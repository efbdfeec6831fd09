"""Decision-trace subsystem: runtime state, tracer, diagnose, CLI.

Covers the contract chain end to end: sink/scope semantics of the one
record stream (:mod:`repro.telemetry.runtime`) as decision traces use
it, the :class:`DriftMonitor`, the per-round record schema assembled
by :class:`DecisionTracer` (including the
bit-identical-KPIs guarantee the whole design hangs on), per-cell
collection and merging in the sweep engine, the ``repro report``
anomaly detector/dashboard, and the CLI wiring.
"""

import json

import numpy as np
import pytest

from repro import cli
from repro.core import EdgeBOL
from repro.experiments import parallel
from repro.experiments import spec as spec_registry
from repro.experiments.runner import run_agent
from repro.obs import diagnose
from repro.obs.decision import DecisionTracer, make_tracer
from repro.obs.drift import DriftMonitor
from repro.telemetry import runtime as telemetry
from repro.telemetry.export import InMemorySink, JsonlSink, read_records
from repro.testbed.config import CostWeights, ServiceConstraints, TestbedConfig
from repro.testbed.scenarios import static_scenario

N_PERIODS = 10


@pytest.fixture(autouse=True)
def _no_sink():
    """Every test starts and ends with no telemetry sink attached."""
    assert not telemetry.has_sinks()
    yield
    assert not telemetry.has_sinks()


def make_env_agent(seed=0, n_levels=4, oracle=None):
    testbed = TestbedConfig(n_levels=n_levels)
    env = static_scenario(
        mean_snr_db=35.0, rng=np.random.default_rng(seed), config=testbed
    )
    agent = EdgeBOL(
        testbed.control_grid(), ServiceConstraints(0.4, 0.5),
        CostWeights(1.0, 8.0),
    )
    return env, agent


def traced_run(seed=0, periods=N_PERIODS, oracle_cost=120.0):
    """One short traced run; returns (records, run_log)."""
    env, agent = make_env_agent(seed)
    with telemetry.attach(InMemorySink()) as sink:
        log = run_agent(env, agent, periods, oracle_cost=oracle_cost)
    return sink.records(), log


# -- runtime state -------------------------------------------------------


class TestRuntime:
    def test_emit_is_noop_without_sink(self):
        assert not telemetry.has_sinks()
        telemetry.emit_record({"type": "decision", "t": 0})  # no sink: no-op

    def test_install_rejects_non_sink(self):
        with pytest.raises(TypeError, match="emit"):
            telemetry.add_sink(object())
        assert not telemetry.has_sinks()

    def test_attach_detaches_on_exit(self):
        outer, inner = InMemorySink(), InMemorySink()
        with telemetry.attach(outer):
            telemetry.emit_record({"type": "decision", "k": 1})
            with telemetry.attach(inner):
                telemetry.emit_record({"type": "decision", "k": 2})
            telemetry.emit_record({"type": "decision", "k": 3})
        assert not telemetry.has_sinks()
        assert [r["k"] for r in outer.records()] == [1, 2, 3]
        assert [r["k"] for r in inner.records()] == [2]

    def test_jsonl_sink_writes_decision_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        sink = JsonlSink(path)
        with telemetry.attach(sink):
            telemetry.emit_record({"type": "decision", "t": 0})
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["type"] == "decision"
        assert record["t"] == 0

    def test_scope_labels_records(self):
        with telemetry.attach(InMemorySink()) as sink:
            telemetry.emit_record({"type": "decision", "t": 0})
            with telemetry.scope("cell-7"):
                telemetry.emit_record({"type": "decision", "t": 1})
            telemetry.emit_record({"type": "decision", "t": 2})
        records = sink.records()
        assert "cell" not in records[0]
        assert records[1]["cell"] == "cell-7"
        assert list(records[1]) == ["type", "cell", "t"]
        assert "cell" not in records[2]

    def test_emit_mirrors_into_telemetry_trace(self, tmp_path):
        """Decision lines interleave with spans in one telemetry file."""
        trace = tmp_path / "trace.jsonl"
        with telemetry.record(trace):
            with telemetry.span("experiment.period"):
                telemetry.emit_record({"type": "decision", "t": 0})
        types = [json.loads(line)["type"]
                 for line in trace.read_text().splitlines()]
        assert types == ["decision", "span", "metrics"]

    def test_make_tracer_requires_sink_and_capable_agent(self):
        _, agent = make_env_agent()
        assert make_tracer(agent) is None  # no sink attached
        with telemetry.attach(InMemorySink()):
            assert make_tracer(object()) is None  # no attach_tracer
            tracer = make_tracer(agent, oracle_cost=50.0)
            assert isinstance(tracer, DecisionTracer)
            assert tracer.oracle_cost == 50.0


# -- drift monitor -------------------------------------------------------


class TestDriftMonitor:
    def test_warmup_never_flags(self):
        monitor = DriftMonitor(window=10, min_periods=4)
        for _ in range(3):
            result = monitor.update([0.5, 0.5])
            assert result["flag"] is False
            assert np.isnan(result["score"])
            assert result["dim"] is None

    def test_stable_stream_not_flagged(self):
        rng = np.random.default_rng(0)
        monitor = DriftMonitor(window=20, z_threshold=4.0, min_periods=5)
        flags = [
            monitor.update(0.5 + 0.05 * rng.standard_normal(3))["flag"]
            for _ in range(60)
        ]
        assert sum(flags) == 0
        assert monitor.episodes == 0

    def test_jump_is_flagged_on_offending_dimension(self):
        monitor = DriftMonitor(window=10, z_threshold=4.0, min_periods=4)
        rng = np.random.default_rng(1)
        for _ in range(10):
            monitor.update([0.2 + 0.02 * rng.standard_normal(), 0.8])
        result = monitor.update([0.95, 0.8])  # dim 0 jumps
        assert result["flag"] is True
        assert result["dim"] == 0
        assert result["score"] > 4.0

    def test_episode_counts_runs_not_periods(self):
        monitor = DriftMonitor(window=30, z_threshold=4.0, min_periods=4)
        for _ in range(30):
            monitor.update([0.2])
        # Two consecutive outliers: the second still clears the
        # threshold (one contaminant barely inflates a 30-wide window),
        # but the sustained excursion counts as ONE episode.
        assert monitor.update([0.9])["flag"]
        assert monitor.update([0.9])["flag"]
        assert monitor.episodes == 1
        # Window absorbed the outliers; a long calm stretch re-arms it.
        for _ in range(30):
            monitor.update([0.2])
        assert monitor.update([0.9])["flag"]
        assert monitor.episodes == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            DriftMonitor(window=1)
        with pytest.raises(ValueError, match="z_threshold"):
            DriftMonitor(z_threshold=0.0)
        with pytest.raises(ValueError, match="min_periods"):
            DriftMonitor(min_periods=1)
        monitor = DriftMonitor()
        with pytest.raises(ValueError, match="non-empty"):
            monitor.update([])
        monitor.update([0.1, 0.2])
        with pytest.raises(ValueError, match="dimension changed"):
            monitor.update([0.1])


# -- decision tracer -----------------------------------------------------


class TestDecisionTracer:
    def test_one_record_per_period_with_full_schema(self):
        records, log = traced_run()
        assert len(records) == N_PERIODS
        for t, record in enumerate(records):
            assert record["type"] == "decision"
            assert record["t"] == t
            assert record["degraded"] is False
            assert record["safe_set"]["grid"] == 4**4
            assert 1 <= record["safe_set"]["size"] <= 4**4
            assert 0.0 < record["safe_set"]["fraction"] <= 1.0
            # margins of the chosen control exist every healthy period
            assert isinstance(record["margins"]["delay_slack_s"], float)
            assert isinstance(record["margins"]["map_slack"], float)
            acq = record["acquisition"]
            assert acq["price_of_safety"] >= 0.0
            assert acq["chosen_lcb"] == pytest.approx(
                acq["best_lcb"] + acq["price_of_safety"]
            )
            assert set(record["calibration"]) == set(record["gp"])
            for snap in record["calibration"].values():
                assert snap["z"] == 2.0
                assert snap["expected"] == pytest.approx(0.9544997, rel=1e-5)
            # gp state is captured at decision time, before the round's
            # observation lands, so counts trail t by design
            for head_stats in record["gp"].values():
                assert head_stats["n"] >= 0
                assert head_stats["noise_variance"] > 0.0
            assert set(record["drift"]) == {"flag", "score", "dim"}
            assert record["outcome"]["cost"] == pytest.approx(log.cost[t])
            assert record["regret"]["instant"] >= 0.0
            assert len(record["control"]) == 4

    def test_calibration_accumulates_one_step_ahead(self):
        records, _ = traced_run()
        final = records[-1]["calibration"]
        # First record was scored before any coverage existed beyond its
        # own round; by the end every clean round has contributed.
        assert all(snap["n"] >= N_PERIODS - 2 for snap in final.values())
        ns = [records[t]["calibration"]["cost"]["n"]
              for t in range(N_PERIODS)]
        assert ns == sorted(ns)  # monotone: a streaming tally

    def test_cumulative_regret_is_monotone(self):
        records, _ = traced_run(oracle_cost=120.0)
        cum = [r["regret"]["cumulative"] for r in records]
        assert all(b >= a for a, b in zip(cum, cum[1:]))
        assert cum[-1] == pytest.approx(
            sum(r["regret"]["instant"] for r in records)
        )

    def test_no_oracle_means_no_regret_block(self):
        env, agent = make_env_agent()
        with telemetry.attach(InMemorySink()) as sink:
            run_agent(env, agent, 3)
        assert all(r["regret"] is None for r in sink.records())

    def test_traced_run_is_bit_identical_to_untraced(self):
        """The acceptance criterion: tracing never perturbs the run."""
        env_a, agent_a = make_env_agent(seed=7)
        untraced = run_agent(env_a, agent_a, N_PERIODS)
        records, traced = traced_run(seed=7)
        assert traced.cost == untraced.cost
        assert traced.delay_s == untraced.delay_s
        assert traced.map_score == untraced.map_score
        assert traced.resolution == untraced.resolution
        assert traced.airtime == untraced.airtime
        assert traced.gpu_speed == untraced.gpu_speed
        assert traced.mcs_fraction == untraced.mcs_fraction
        assert len(records) == N_PERIODS

    def test_detach_stops_emission(self):
        env, agent = make_env_agent()
        with telemetry.attach(InMemorySink()) as sink:
            run_agent(env, agent, 2)
        assert len(sink.records()) == 2
        with telemetry.attach(sink):
            # run_agent detached the tracer on exit: a bare loop with no
            # tracer attached emits nothing.
            context = env.observe_context()
            policy = agent.select(context)
            agent.observe(context, policy, env.step(policy))
        assert len(sink.records()) == 2

    def test_runlog_carries_summary(self):
        records, log = traced_run()
        assert log.decisions is not None
        assert log.decisions["periods"] == N_PERIODS
        assert log.decisions["records"] == N_PERIODS
        assert set(log.decisions["coverage"]) == set(
            records[-1]["calibration"]
        )
        assert log.decisions["cumulative_regret"] == pytest.approx(
            records[-1]["regret"]["cumulative"]
        )

    def test_degraded_hook_emits_minimal_record(self):
        env, agent = make_env_agent()
        with telemetry.attach(InMemorySink()) as sink:
            tracer = make_tracer(agent)
            tracer.on_degraded(env.observe_context())
            from repro.testbed.config import ControlPolicy
            policy = ControlPolicy.max_resources()
            observation = env.step(policy)
            tracer.on_observe(env.observe_context(), policy, observation,
                              cost=123.0, quarantine_reason=None)
        (record,) = sink.records()
        assert record["degraded"] is True
        assert record["safe_set"]["size"] == 1
        assert record["margins"] == {"delay_slack_s": None, "map_slack": None}
        assert record["acquisition"] is None
        assert tracer.summary()["degraded_rounds"] == 1
        # Degraded rounds must not pollute the calibration tallies.
        assert all(cal.n == 0 for cal in tracer.calibration.values())

    def test_observe_without_select_still_emits(self):
        """A direct observe() (no select) yields a minimal record."""
        from repro.testbed.config import ControlPolicy

        env, agent = make_env_agent()
        with telemetry.attach(InMemorySink()) as sink:
            tracer = make_tracer(agent)
            agent.attach_tracer(tracer)
            policy = ControlPolicy.max_resources()
            context = env.observe_context()
            agent.observe(context, policy, env.step(policy))
            agent.attach_tracer(None)
        (record,) = sink.records()
        assert record["chosen_index"] is None
        assert record["safe_set"] is None
        assert record["outcome"]["cost"] is not None


# -- sweep integration ---------------------------------------------------


@pytest.fixture
def regret_spec():
    spec = spec_registry.get("regret")
    params = spec.resolve({"delta2": (1.0, 8.0), "periods": 3, "levels": 3})
    return spec, params  # 2 cells, 3 periods each


class TestSweepDecisions:
    def test_decision_path_merges_cells_in_order(self, regret_spec, tmp_path):
        spec, params = regret_spec
        path = tmp_path / "decisions.jsonl"
        result = parallel.run_sweep(
            spec, params, seed=3, jobs=1, decision_path=path
        )
        cells = [c.cell_id for c in result.cells]
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == len(cells) * 3
        assert [r["cell"] for r in records] == [
            cell for cell in cells for _ in range(3)
        ]
        assert [r["t"] for r in records] == [0, 1, 2] * len(cells)
        # Regret cells know the oracle, so traces carry the regret block.
        assert all(r["regret"]["instant"] >= 0.0 for r in records)

    def test_pool_matches_serial(self, regret_spec, tmp_path):
        spec, params = regret_spec
        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        parallel.run_sweep(spec, params, seed=3, jobs=1,
                           decision_path=serial)
        parallel.run_sweep(spec, params, seed=3, jobs=2,
                           decision_path=pooled)
        assert serial.read_text() == pooled.read_text()

    def test_resume_preserves_decisions(self, regret_spec, tmp_path):
        spec, params = regret_spec
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        store = tmp_path / "store"
        parallel.run_sweep(spec, params, seed=3, jobs=1, store=store,
                           decision_path=first)
        result = parallel.run_sweep(spec, params, seed=3, jobs=1,
                                    store=store, decision_path=second)
        assert result.store_hits == len(result.cells)
        served = [json.loads(line) for line in second.read_text().splitlines()]
        assert served == [
            {**json.loads(line), "store_hit": True}
            for line in first.read_text().splitlines()
        ]

    def test_attached_sink_gets_each_decision_once(self, regret_spec):
        """Without a path, an attached sink (``--telemetry``) receives
        the merged decisions exactly once, serial or pooled."""
        spec, params = regret_spec
        streams = []
        for jobs in (1, 2):
            with telemetry.attach(InMemorySink()) as sink:
                result = parallel.run_sweep(spec, params, seed=3, jobs=jobs)
            streams.append(sink.of_type("decision"))
        cells = [c.cell_id for c in result.cells]
        assert streams[0] == streams[1]
        assert [(r["cell"], r["t"]) for r in streams[0]] == [
            (cell, t) for cell in cells for t in range(3)
        ]

    def test_untraced_sweep_writes_nothing(self, regret_spec, tmp_path):
        spec, params = regret_spec
        result = parallel.run_sweep(spec, params, seed=3, jobs=1)
        assert all(c.decisions is None for c in result.cells)


class TestCustomLoopExperiments:
    """Experiments with hand-rolled loops must trace too."""

    def test_tariff_traces_decoupled_agent(self):
        """Tariff runs the decoupled-power GP path under tracing."""
        from repro.experiments.tariff import TariffSetting, run_tariff_tracking

        setting = TariffSetting(n_periods=6, n_levels=3)
        with telemetry.attach(InMemorySink()) as sink:
            log = run_tariff_tracking(decoupled=True, setting=setting, seed=0)
        assert len(sink.records()) == 6
        record = sink.records()[-1]
        # Decoupled agents carry the per-power heads end to end.
        assert {"server_power", "bs_power"} <= set(record["calibration"])
        assert record["acquisition"]["price_of_safety"] >= 0.0
        assert log.decisions["periods"] == 6

    def test_tariff_kpis_bit_identical_under_tracing(self):
        from repro.experiments.tariff import TariffSetting, run_tariff_tracking

        setting = TariffSetting(n_periods=6, n_levels=3)
        untraced = run_tariff_tracking(decoupled=True, setting=setting, seed=1)
        with telemetry.attach(InMemorySink()):
            traced = run_tariff_tracking(
                decoupled=True, setting=setting, seed=1
            )
        assert traced.cost == untraced.cost
        assert traced.resolution == untraced.resolution

    def test_multiservice_labels_each_slice(self):
        from repro.experiments.multiservice import (
            MultiServiceSetting,
            run_per_slice_edgebol,
        )

        setting = MultiServiceSetting(n_periods=4, n_levels=3)
        with telemetry.attach(InMemorySink()) as sink:
            ar_log, sv_log = run_per_slice_edgebol(setting=setting, seed=0)
        assert len(sink.records()) == 2 * 4
        labels = {r["agent"] for r in sink.records()}
        assert labels == {"ar", "surveillance"}
        assert ar_log.decisions["periods"] == 4
        assert sv_log.decisions["periods"] == 4
        for label in labels:
            ts = [r["t"] for r in sink.records() if r["agent"] == label]
            assert ts == [0, 1, 2, 3]


# -- diagnose ------------------------------------------------------------


def synthetic_records(n=30):
    """A hand-built trace exercising every anomaly detector."""
    records = []
    for t in range(n):
        records.append({
            "type": "decision",
            "t": t,
            "degraded": 10 <= t < 13,
            "quarantined": "stale" if t == 5 else None,
            "safe_set": {"size": 4 + t, "grid": 256,
                         "fraction": (4 + t) / 256},
            "margins": {
                # six consecutive negative delay margins from t=20
                "delay_slack_s": -0.05 if 20 <= t < 26 else 0.1,
                "map_slack": 0.02,
            },
            "acquisition": {"chosen_lcb": 50.0, "best_lcb": 45.0,
                            "best_index": 0, "price_of_safety": 5.0},
            "calibration": {
                "cost": {"n": t + 1, "z": 2.0, "coverage": 0.70,
                         "expected": 0.954, "error_mean": 0.0,
                         "error_std": 1.0},
            },
            "gp": {"cost": {"n": t + 1, "noise_variance": 1.0,
                            "output_scale": 100.0}},
            "drift": {"flag": t in (15, 16), "score": 5.0 if t in (15, 16)
                      else 0.5, "dim": 0 if t in (15, 16) else None},
            "outcome": {"cost": 60.0, "delay_s": 0.45 if t == 7 else 0.2,
                        "map_score": 0.8, "d_max_s": 0.4, "rho_min": 0.5,
                        "delay_violation": t == 7, "map_violation": False},
            "regret": {"instant": 1.0, "cumulative": float(t + 1)},
            "robustness": {"quarantined": 1, "degraded_periods": 3},
        })
    return records


class TestDiagnose:
    def test_load_skips_blank_and_foreign_lines(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"type": "span", "name": "x"}\n'
            "\n"
            '{"type": "decision", "t": 0}\n'
            '{"type": "metric", "name": "y"}\n'
            '{"type": "decision", "t": 1}\n'
        )
        assert cli.main(["report", str(path)]) == 0
        # The dashboard's summary row counts the two decision records.
        assert any(line.startswith("2 ") and "|" in line
                   for line in capsys.readouterr().out.splitlines())
        assert cli.main(["report", "--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == {"decision": 2, "metric": 1, "span": 1}

    def test_report_renders_records_with_missing_fields(self, tmp_path,
                                                        capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"type": "span"}\n'
            '{"type": "span", "id": 1, "parent": 9, "name": "a"}\n'
            '{"type": "span", "id": 2, "parent": 1}\n'
            '{"type": "metrics"}\n'
            '{"type": "decision"}\n'
            '{"type": "kpi"}\n'
        )
        assert cli.main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 spans in 1 traces" in out
        assert "Anomaly flags: none" in out
        assert "fleet: 0 cells" in out

    @pytest.mark.parametrize("lines", [
        ['{"type": "span", "id": 1, "name": "a", "duration_s": "slow"}'],
        ['{"type": "span", "id": 1, "parent": 2, "name": "a"}',
         '{"type": "span", "id": 2, "parent": 1, "name": "b"}'],
    ], ids=["string-duration", "parent-cycle"])
    def test_report_names_file_of_unrenderable_record(self, tmp_path,
                                                      lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(SystemExit,
                           match=r"repro report: .*trace\.jsonl: record"):
            cli.main(["report", str(path)])

    def test_load_names_bad_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "decision", "t": 0}\nnot json\n')
        with pytest.raises(ValueError, match=r"trace\.jsonl:2"):
            read_records(path)

    def test_detects_every_anomaly_kind(self):
        flags = diagnose.detect_anomalies(synthetic_records())
        kinds = {f["kind"] for f in flags}
        assert kinds == {
            "coverage_below_nominal", "persistent_negative_margin",
            "drift_episode", "degraded_stretch",
        }
        margin = next(f for f in flags
                      if f["kind"] == "persistent_negative_margin")
        assert margin["constraint"] == "delay"
        assert (margin["start_t"], margin["end_t"]) == (20, 25)
        assert margin["length"] == 6
        drift = next(f for f in flags if f["kind"] == "drift_episode")
        assert drift["peak_score"] == 5.0
        degraded = next(f for f in flags if f["kind"] == "degraded_stretch")
        assert (degraded["start_t"], degraded["end_t"]) == (10, 12)

    def test_short_negative_runs_not_flagged(self):
        records = synthetic_records()
        for record in records:
            t = record["t"]
            record["margins"]["delay_slack_s"] = (
                -0.05 if 20 <= t < 23 else 0.1  # run of 3 < threshold 5
            )
        kinds = {f["kind"] for f in diagnose.detect_anomalies(records)}
        assert "persistent_negative_margin" not in kinds

    def test_coverage_needs_enough_samples(self):
        records = synthetic_records(n=10)  # final n=10 < 20
        kinds = {f["kind"] for f in diagnose.detect_anomalies(records)}
        assert "coverage_below_nominal" not in kinds

    def test_dashboard_renders_all_sections(self):
        records = synthetic_records()
        text = diagnose.render_dashboard(records)
        assert "Safe-set fraction" in text
        assert "Running z-score coverage" in text
        assert "delay slack" in text
        assert "Event timeline" in text
        assert "Cumulative regret" in text
        assert "coverage_below_nominal" in text
        assert "legend: R restart  C breaker  D degraded" in text

    def test_dashboard_on_empty_trace(self):
        assert "empty" in diagnose.render_dashboard([])

    def test_dashboard_on_real_trace(self):
        """A genuine traced run renders without error and flags nothing
        catastrophic."""
        records, _ = traced_run()
        text = diagnose.render_dashboard(records)
        assert "Safe-set fraction" in text
        assert "Cumulative regret" in text

    def test_interleaved_series_are_flagged_one_by_one(self):
        """Two cells' records interleaved period by period raise each
        cell's own flags, named by its cell and agent; a cell whose
        records are clean raises none."""
        alone = diagnose.detect_anomalies(synthetic_records())
        flagged = [dict(r, cell="s0", agent="cell000")
                   for r in synthetic_records()]
        clean = [dict(r, cell="s0", agent="cell001", degraded=False,
                      quarantined=None, drift={"flag": False},
                      calibration={}, margins={})
                 for r in synthetic_records()]
        records = [r for pair in zip(flagged, clean) for r in pair]
        flags = diagnose.detect_anomalies(records)
        assert flags == [dict(f, cell="s0", agent="cell000") for f in alone]

    def test_fleet_trace_flags_and_timeline_stay_within_a_cell(
            self, tmp_path):
        """On an interleaved 8-cell, 12-period fleet trace no flag spans
        cells, and the timeline draws one 12-period line per cell."""
        assert cli.main([
            "run", "fleet", "--sweep", "cells=8", "--set", "periods=12",
            "--out", str(tmp_path), "--no-store", "--trace-decisions",
        ]) == 0
        records = read_records(tmp_path / "fleet_decisions.jsonl")
        assert len(records) == 96
        agents = [r["agent"] for r in records[:8]]
        assert len(set(agents)) == 8  # interleaved: one period per cell
        flags = diagnose.detect_anomalies(records)
        for flag in flags:
            assert flag["agent"] in agents and flag["cell"] == "cells=8"
            if "length" in flag:
                assert flag["end_t"] - flag["start_t"] + 1 == flag["length"]
                assert flag["length"] <= 12
        text = diagnose.render_dashboard(records, anomalies=flags)
        timeline = text[text.index("Event timeline"):].splitlines()
        rows = [line for line in timeline if line.startswith("t=")]
        assert len(rows) == 8
        assert all(len(line.split()[-1]) == 12 for line in rows)
        headers = [line for line in timeline if line.startswith("cell=")]
        assert headers == [f"cell=cells=8 agent={agent}" for agent in agents]

    def test_diagnose_path_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        sink = JsonlSink(path)
        with telemetry.attach(sink):
            for record in synthetic_records():
                telemetry.emit_record(record)
        sink.close()
        assert cli.main(["report", str(path)]) == 0
        assert "Anomaly flags:" in capsys.readouterr().out
        assert cli.main(["report", "--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["anomalies"] == diagnose.detect_anomalies(
            read_records(path)
        )


# -- CLI -----------------------------------------------------------------


class TestCli:
    def write_trace(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        with path.open("w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return path

    def test_diagnose_renders_dashboard(self, tmp_path, capsys):
        path = self.write_trace(tmp_path, synthetic_records())
        assert cli.main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Event timeline" in out

    def test_diagnose_json_output(self, tmp_path, capsys):
        path = self.write_trace(tmp_path, synthetic_records())
        assert cli.main(["report", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == {"decision": 30}
        assert "fleet" not in payload  # no KPI records
        kinds = {f["kind"] for f in payload["anomalies"]}
        assert "coverage_below_nominal" in kinds

    def test_diagnose_fail_on_anomaly(self, tmp_path, capsys):
        bad = self.write_trace(tmp_path, synthetic_records())
        assert cli.main(["report", str(bad), "--fail-on-anomaly"]) == 1
        assert "anomaly flag(s)" in capsys.readouterr().err
        clean = tmp_path / "clean.jsonl"
        records, _ = traced_run(periods=3)
        clean.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        assert cli.main(["report", str(clean), "--fail-on-anomaly"]) == 0

    def test_diagnose_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="repro report: .*absent"):
            cli.main(["report", str(tmp_path / "absent.jsonl")])

    def test_report_without_decisions_has_no_anomalies(self, tmp_path,
                                                       capsys):
        path = self.write_trace(tmp_path, [{"type": "span", "id": 1,
                                            "name": "a", "duration_s": 0.1}])
        assert cli.main(["report", "--json", "--fail-on-anomaly",
                         str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"records": {"span": 1}, "anomalies": []}

    def test_trace_decisions_end_to_end(self, tmp_path, capsys):
        """`repro run regret --trace-decisions` then `repro report`."""
        status = cli.main([
            "run", "regret", "--sweep", "delta2=1.0",
            "--set", "periods=3", "--set", "levels=3",
            "--out", str(tmp_path), "--trace-decisions",
        ])
        assert status == 0
        out = capsys.readouterr().out
        default = tmp_path / "regret_decisions.jsonl"
        assert default.exists()
        assert "wrote decision trace" in out
        records = read_records(default)
        assert [r["type"] for r in records] == ["decision"] * 3
        for record in records:
            assert record["safe_set"]["fraction"] > 0.0
            assert record["calibration"]
            assert record["margins"]
            assert record["regret"] is not None
        assert cli.main(["report", str(default)]) == 0

    def test_trace_decisions_explicit_path(self, tmp_path, capsys):
        explicit = tmp_path / "custom.jsonl"
        status = cli.main([
            "run", "regret", "--sweep", "delta2=1.0",
            "--set", "periods=2", "--set", "levels=3",
            "--out", str(tmp_path), "--trace-decisions", str(explicit),
        ])
        assert status == 0
        capsys.readouterr()
        assert explicit.exists()
        assert len(read_records(explicit)) == 2

    def test_resolve_decision_path(self, tmp_path):
        spec = spec_registry.get("regret")
        assert cli.resolve_decision_path(None, spec, tmp_path) is None
        assert cli.resolve_decision_path(
            cli._DEFAULT_DECISIONS, spec, tmp_path
        ) == tmp_path / "regret_decisions.jsonl"
        explicit = tmp_path / "x.jsonl"
        assert cli.resolve_decision_path(explicit, spec, tmp_path) == explicit
