"""Fleet observability: metric store, SLO/energy ledger, causal tracing."""

import json
from contextlib import nullcontext

import pytest

from repro.experiments.fleet import run_fleet_cell_sim
from repro.fleetobs import (
    FleetLedger,
    MetricStore,
    critical_path_report,
    fixed_max_baseline_w,
    render_status,
    status_payload,
)
from repro import cli
from repro.telemetry import runtime as telemetry
from repro.telemetry.export import read_records
from repro.testbed.config import TestbedConfig


def kpi(cell, t, **over):
    """A minimal ``type: "kpi"`` record with sane defaults."""
    record = {
        "type": "kpi", "cell": cell, "t": t, "cost": 10.0, "delay_s": 0.2,
        "map_score": 0.7, "server_power_w": 100.0, "bs_power_w": 8.0,
        "d_max_s": 0.5, "rho_min": 0.5, "delay_violation": 0,
        "map_violation": 0, "baseline_power_w": 300.0, "degraded": False,
    }
    record.update(over)
    return record


class TestMetricStoreIngest:
    def test_kpi_series_extracted(self):
        store = MetricStore()
        assert store.ingest(kpi("cell000", 0, cost=5.0))
        assert store.ingest(kpi("cell000", 1, cost=7.0))
        assert store.series("cell000", "cost") == [(0, 5.0), (1, 7.0)]
        assert "bs_power_w" in store.series_names("cell000")

    def test_duplicate_records_dropped(self):
        store = MetricStore()
        assert store.ingest(kpi("cell000", 0))
        assert not store.ingest(kpi("cell000", 0, cost=99.0))
        assert store.duplicates == 1
        assert store.series("cell000", "cost") == [(0, 10.0)]

    def test_replayed_file_is_noop(self, tmp_path):
        store = MetricStore()
        for t in range(5):
            store.ingest(kpi("cell000", t))
        path = store.dump_jsonl(tmp_path / "metrics.jsonl")
        before = store.summary()
        assert not any(store.ingest(r) for r in read_records(path))
        after = store.summary()
        assert after["ingested"] == before["ingested"]
        assert after["duplicates"] == before["duplicates"] + 5

    def test_dump_roundtrips_into_fresh_store(self, tmp_path):
        store = MetricStore()
        for t in range(4):
            store.ingest(kpi("cell000", t, cost=float(t)))
        store.ingest({"type": "alert", "rule": "delay", "severity": "warn",
                      "cell": "cell000", "t": 2, "message": "m", "value": 1.0})
        path = store.dump_jsonl(tmp_path / "metrics.jsonl")
        fresh = MetricStore()
        assert sum(fresh.ingest(r) for r in read_records(path)) == 5
        assert fresh.series("cell000", "cost") == store.series(
            "cell000", "cost"
        )
        assert len(fresh.alerts()) == 1

    def test_malformed_jsonl_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"kpi","cell":"a","t":0}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: "):
            read_records(path)

    def test_decision_records_feed_learner_series_only(self):
        store = MetricStore()
        store.ingest({
            "type": "decision", "cell": "cell000", "t": 3,
            "safe_set": {"fraction": 0.25},
            "margins": {"delay_slack_s": 0.1, "map_slack": 0.05},
            "regret": {"cumulative": 2.5},
            "outcome": {"cost": 11.0},
        })
        assert store.series("cell000", "safe_fraction") == [(3, 0.25)]
        assert store.series("cell000", "regret") == [(3, 2.5)]
        # outcome cost comes only from KPI records — never double-counted
        assert store.series("cell000", "cost") == []

    def test_sweep_label_does_not_merge_fleet_cells(self):
        """A sweep cell's ``cell`` label on decision records must not
        collapse the fleet's cells (their ids are in ``agent``)."""
        store = MetricStore()
        for agent in ("cell000", "cell001"):
            assert store.ingest({
                "type": "decision", "cell": "cells=2", "agent": agent,
                "t": 0, "safe_set": {"fraction": 0.5},
            })
        assert store.duplicates == 0
        assert store.cells() == ["cell000", "cell001"]

    def test_supervision_events_and_spans_filed(self):
        store = MetricStore()
        store.ingest({"type": "decision", "event": "recovery",
                      "agent": "cell001", "t": 5})
        store.ingest({"type": "span", "trace": 1, "id": 1, "parent": None,
                      "depth": 0, "name": "fleet.round", "start_s": 0.0,
                      "duration_s": 0.1, "attrs": {}})
        assert len(store.events()) == 1
        assert len(store.spans()) == 1
        assert store.by_type["event"] == 1

    def test_non_finite_and_missing_values_skipped(self):
        store = MetricStore()
        store.ingest(kpi("cell000", 0, cost=float("nan"),
                         baseline_power_w=None))
        assert store.series("cell000", "cost") == []
        assert store.series("cell000", "baseline_power_w") == []
        assert store.series("cell000", "delay_s") == [(0, 0.2)]

    def test_bool_violations_become_floats(self):
        store = MetricStore()
        store.ingest(kpi("cell000", 0, delay_violation=True))
        assert store.series("cell000", "delay_violation") == [(0, 1.0)]


class TestMetricStoreQueries:
    def _store(self):
        store = MetricStore(rollup_every=5)
        for c, base in (("cell000", 1.0), ("cell001", 3.0)):
            for t in range(20):
                store.ingest(kpi(c, t, cost=base + t * 0.1))
        return store

    def test_range_query(self):
        store = self._store()
        points = store.series("cell000", "cost", t_min=5, t_max=7)
        assert [t for t, _ in points] == [5, 6, 7]

    def test_rollups_cover_buckets(self):
        store = self._store()
        rollups = store.rollups("cell000", "cost")
        assert len(rollups) == 4
        assert rollups[0]["t_start"] == 0 and rollups[0]["t_end"] == 4
        assert rollups[0]["count"] == 5
        assert rollups[0]["min"] == pytest.approx(1.0)
        assert rollups[0]["max"] == pytest.approx(1.4)

    def test_raw_ring_bounded_rollups_survive(self):
        store = MetricStore(raw_capacity=8, rollup_every=5)
        for t in range(40):
            store.ingest(kpi("cell000", t))
        assert len(store.series("cell000", "cost")) == 8
        assert len(store.rollups("cell000", "cost")) == 8

    def test_aggregate_across_cells(self):
        store = self._store()
        agg = store.aggregate("cost")
        assert agg["count"] == 40
        assert agg["min"] == pytest.approx(1.0)
        assert agg["max"] == pytest.approx(4.9)

    def test_top_k_deterministic(self):
        store = self._store()
        top = store.top_k("cost", k=1, agg="mean")
        assert top[0][0] == "cell001"
        bottom = store.top_k("cost", k=2, agg="mean", reverse=False)
        assert [cell for cell, _ in bottom] == ["cell000", "cell001"]

    def test_top_k_unknown_aggregate_rejected(self):
        with pytest.raises(ValueError, match="aggregate"):
            self._store().top_k("cost", agg="median")

    def test_metrics_snapshot_shape(self):
        snapshot = self._store().metrics_snapshot()
        assert snapshot["counters"]["fleetobs.ingested"] == 40
        assert snapshot["gauges"]["fleetobs.cells"] == 2.0


class TestFleetLedger:
    def test_baseline_matches_config_ratings(self):
        config = TestbedConfig()
        baseline = fixed_max_baseline_w(config)
        assert baseline > (
            config.host_idle_power_w + config.gpu_max_power_cap_w
        )

    def test_energy_and_burn_accounting(self):
        store = MetricStore()
        for t in range(10):
            store.ingest(kpi(
                "cell000", t, server_power_w=100.0, bs_power_w=10.0,
                baseline_power_w=300.0, delay_violation=int(t < 2),
            ))
        report = FleetLedger(store, delay_budget=0.1).cell_report("cell000")
        assert report["periods"] == 10
        assert report["delay_violations"] == 2
        # 2/10 observed over a 0.1 budget -> burning 2x the allowance
        assert report["delay_burn"] == pytest.approx(2.0)
        assert report["energy_saved_j"] == pytest.approx(10 * 190.0)
        assert report["savings_fraction"] == pytest.approx(1 - 110.0 / 300.0)

    def test_recent_burn_uses_window(self):
        store = MetricStore()
        for t in range(30):
            store.ingest(kpi("cell000", t, delay_violation=int(t >= 25)))
        ledger = FleetLedger(store, delay_budget=0.1, window=10)
        report = ledger.cell_report("cell000")
        assert report["delay_burn_recent"] == pytest.approx(5.0)
        assert report["delay_burn"] == pytest.approx(30 / 30 * 5 / 30 / 0.1)

    def test_fleet_rollup_names_worst_cell(self):
        store = MetricStore()
        for t in range(10):
            store.ingest(kpi("cell000", t, delay_violation=0))
            store.ingest(kpi("cell001", t, delay_violation=1))
        fleet = FleetLedger(store).report()["fleet"]
        assert fleet["worst_delay_burn_cell"] == "cell001"
        assert fleet["n_cells"] == 2
        assert fleet["energy_saved_j"] is not None

    def test_validation(self):
        store = MetricStore()
        with pytest.raises(ValueError, match="budget"):
            FleetLedger(store, delay_budget=0.0)
        with pytest.raises(ValueError, match="window"):
            FleetLedger(store, window=0)

    def test_missing_baseline_yields_none(self):
        store = MetricStore()
        store.ingest(kpi("cell000", 0, baseline_power_w=None))
        report = FleetLedger(store).cell_report("cell000")
        assert report["energy_saved_j"] is None
        assert report["savings_fraction"] is None
        assert report["mean_power_w"] is not None


class TestCriticalPath:
    def _span(self, trace, sid, parent, name, duration, topic=None):
        attrs = {"topic": topic} if topic else {}
        return {"type": "span", "trace": trace, "id": sid, "parent": parent,
                "depth": 0, "name": name, "start_s": 0.0,
                "duration_s": duration, "attrs": attrs}

    def test_report_over_synthetic_rounds(self):
        records = []
        for r in range(3):
            base = r * 10
            records += [
                self._span(r, base + 1, None, "fleet.round", 1.0),
                self._span(r, base + 2, base + 1, "edgebol.select", 0.6),
                self._span(r, base + 3, base + 1, "bus.deliver", 0.2,
                           topic="cell000.e2.indication"),
                self._span(r, base + 4, base + 2, "engine.posterior", 0.5),
            ]
        report = critical_path_report(records)
        assert report["rounds"] == 3
        assert report["round_mean_s"] == pytest.approx(1.0)
        hops = {row["hop"]: row for row in report["hops"]}
        # per-cell topic prefix normalised away
        assert "bus.deliver:e2.indication" in hops
        assert hops["edgebol.select"]["count"] == 3
        path = [step["hop"] for step in report["critical_path"]]
        assert path == ["edgebol.select", "engine.posterior"]
        assert report["critical_path_share"] == pytest.approx(1.0)

    def test_empty_and_non_round_spans_ignored(self):
        report = critical_path_report([
            self._span(1, 1, None, "edgebol.select", 0.1)
        ])
        assert report["rounds"] == 0
        assert report["round_mean_s"] is None
        assert report["hops"] == []


class TestFleetRunIntegration:
    PERIODS = 12
    CELLS = 3

    def _run(self, metrics=None, **kw):
        with (telemetry.attach(metrics) if metrics is not None
              else nullcontext()):
            return run_fleet_cell_sim(
                n_cells=self.CELLS, n_periods=self.PERIODS, seed=7,
                levels=3, **kw,
            )

    def _rows(self, result):
        return json.dumps([
            (cell_id, log.as_rows())
            for cell_id, log in sorted(result.logs.items())
        ])

    def test_metrics_run_bit_identical_to_plain_run(self):
        plain = self._run()
        store = MetricStore()
        observed = self._run(metrics=store, trace_rounds_every=4)
        assert self._rows(plain) == self._rows(observed)
        assert plain.loop_steps == observed.loop_steps
        assert plain.alert_counts == observed.alert_counts

    def test_store_captures_every_cell_period(self):
        store = MetricStore()
        self._run(metrics=store, trace_rounds_every=4)
        assert store.cells() == [f"cell{c:03d}" for c in range(self.CELLS)]
        for cell in store.cells():
            assert len(store.series(cell, "cost")) == self.PERIODS
            assert len(store.series(cell, "baseline_power_w")) == self.PERIODS

    def test_round_spans_stitch_through_bus(self):
        store = MetricStore()
        self._run(metrics=store, trace_rounds_every=4)
        spans = store.spans()
        by_id = {s["id"]: s for s in spans}
        roots = [s for s in spans if s["name"] == "fleet.round"]
        # periods 0, 4, 8 traced for each of the 3 cells
        assert len(roots) == 9
        delivers = [s for s in spans if s["name"] == "bus.deliver"]
        assert delivers
        for deliver in delivers:
            node = deliver
            while node.get("parent") in by_id:
                node = by_id[node["parent"]]
            assert node["name"] == "fleet.round"
        report = critical_path_report(spans)
        assert report["rounds"] == 9
        assert any("bus.deliver" in row["hop"] for row in report["hops"])

    def test_tracing_leaves_no_global_telemetry_state(self):
        store = MetricStore()
        self._run(metrics=store, trace_rounds_every=4)
        assert not telemetry.enabled()

    def test_ledger_reports_energy_saved_on_real_run(self):
        store = MetricStore()
        self._run(metrics=store, trace_rounds_every=4)
        fleet = FleetLedger(store).report()["fleet"]
        assert fleet["n_cells"] == self.CELLS
        assert fleet["energy_saved_j"] > 0
        assert 0.0 < fleet["mean_savings_fraction"] < 1.0


class TestStatusDashboard:
    def _store(self):
        store = MetricStore()
        for t in range(15):
            store.ingest(kpi("cell000", t, delay_violation=int(t % 5 == 0)))
            store.ingest(kpi("cell001", t))
        store.ingest({"type": "alert", "rule": "delay_violation",
                      "severity": "warn", "cell": "cell000", "t": 5,
                      "message": "m", "value": 1.0})
        store.ingest({"type": "decision", "event": "recovery",
                      "agent": "cell000", "t": 7})
        store.ingest({"type": "span", "trace": 1, "id": 1, "parent": None,
                      "depth": 0, "name": "fleet.round", "start_s": 0.0,
                      "duration_s": 0.5, "attrs": {}})
        store.ingest({"type": "span", "trace": 1, "id": 2, "parent": 1,
                      "depth": 1, "name": "edgebol.select", "start_s": 0.0,
                      "duration_s": 0.4, "attrs": {}})
        return store

    def test_payload_sections(self):
        payload = status_payload(self._store())
        assert payload["summary"]["ingested"] == 34
        assert payload["alerts"]["total"] == 1
        assert payload["alerts"]["by_rule"] == {"delay_violation": 1}
        assert payload["events"] == 1
        assert payload["critical_path"]["rounds"] == 1
        assert payload["top_cost"][0][0] in ("cell000", "cell001")

    def test_payload_is_json_serialisable(self):
        json.dumps(status_payload(self._store()))

    def test_render_mentions_energy_and_burn(self):
        text = render_status(self._store())
        assert "energy saved" in text
        assert "burn" in text
        assert "cell000" in text and "cell001" in text
        assert "edgebol.select" in text
        # cell000 violates 3/15 over a 0.1 budget -> burn 2, flagged
        assert "2!" in text

    def test_render_empty_store(self):
        text = render_status(MetricStore())
        assert "no per-cell KPI series" in text

    def test_report_renders_fleet_view_of_dump(self, tmp_path, capsys):
        store = self._store()
        path = store.dump_jsonl(tmp_path / "metrics.jsonl")
        assert cli.main(["report", str(path)]) == 0
        assert render_status(store) in capsys.readouterr().out
        assert cli.main(["report", "--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fleet"] == json.loads(
            json.dumps(status_payload(store))
        )
        assert payload["records"]["kpi"] == 30


class TestDiagnoseDirectory:
    def _write_trace(self, path, degraded_from=None):
        records = []
        for t in range(12):
            records.append({
                "type": "decision", "t": t, "agent": "cell000",
                "degraded": degraded_from is not None and t >= degraded_from,
                "margins": {"delay_slack_s": 0.1, "map_slack": 0.1},
                "outcome": {"cost": 1.0},
            })
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )

    def test_flags_annotated_with_source(self, tmp_path, capsys):
        self._write_trace(tmp_path / "cell000.jsonl", degraded_from=6)
        self._write_trace(tmp_path / "cell001.jsonl")
        assert cli.main(["report", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "cell000.jsonl: decision=12" in text
        assert "cell001.jsonl: decision=12" in text
        assert text.index("cell000.jsonl") < text.index("cell001.jsonl")
        assert cli.main(["report", "--json", "--fail-on-anomaly",
                         str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == {"decision": 24}
        flags = payload["anomalies"]
        assert len(flags) == 1
        assert flags[0]["kind"] == "degraded_stretch"
        assert flags[0]["source"] == "cell000.jsonl"

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="no .*jsonl"):
            cli.main(["report", str(tmp_path)])
