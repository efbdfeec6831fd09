"""Tests for the telemetry subsystem: spans, metrics, export, report."""

import json
import threading

import numpy as np
import pytest

from repro import cli
from repro.oran.alerts import AlertRule
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    NULL_SPAN,
    Span,
    read_records,
)
from repro.telemetry import runtime as telemetry
from repro.telemetry import report


def _cell(seed, levels=3):
    """One small static-scenario ``(env, EdgeBOL)`` pair."""
    from repro import (
        CostWeights, EdgeBOL, ServiceConstraints, TestbedConfig,
        static_scenario,
    )

    config = TestbedConfig(n_levels=levels)
    env = static_scenario(mean_snr_db=35.0, rng=seed, config=config)
    agent = EdgeBOL(config.control_grid(), ServiceConstraints(0.4, 0.5),
                    CostWeights(1.0, 1.0))
    return env, agent


#: Fires once per cell (then throttled): every fleet run raises alerts.
_ALWAYS = AlertRule(name="always", predicate=lambda sample: True,
                    message=lambda sample: "always", min_gap=1000)


@pytest.fixture(autouse=True)
def clean_runtime():
    """Every test starts and ends with telemetry off and metrics clear."""
    telemetry.disable()
    telemetry.reset_metrics()
    yield
    telemetry.disable()
    telemetry.reset_metrics()


class TestDisabledMode:
    def test_span_returns_null_span(self):
        assert telemetry.span("x") is NULL_SPAN

    def test_null_span_is_falsy_noop(self):
        with telemetry.span("x") as sp:
            assert not sp
            sp.set("key", "value")  # discarded, no error

    def test_metric_helpers_are_noops(self):
        telemetry.inc("c")
        telemetry.observe("h", 0.5)
        telemetry.set_gauge("g", 1.0)
        snap = telemetry.metrics_snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_disabled_by_default(self):
        assert not telemetry.enabled()
        assert not telemetry.has_sinks()

    def test_no_record_is_built_without_a_sink(self, monkeypatch):
        """The untraced hot path: no tracer, no KPI/alert/event record
        and not one stream call, on either plane or a supervised fleet
        replaying a crash."""
        from repro import faults
        from repro.experiments.runner import run_agent
        from repro.faults import FaultPlan, FaultSpec
        from repro.obs.decision import DecisionTracer
        from repro.oran.runtime import FleetRuntime

        def forbidden(*args, **kwargs):
            raise AssertionError("record work with no sink attached")

        monkeypatch.setattr(DecisionTracer, "__init__", forbidden)
        monkeypatch.setattr(FleetRuntime, "_kpi_record", forbidden)
        monkeypatch.setattr(telemetry, "emit_record", forbidden)
        assert telemetry.span("x") is NULL_SPAN
        for plane in ("direct", "async"):
            env, agent = _cell(0)
            run_agent(env, agent, 3, plane=plane)
        plan = FaultPlan(specs=(
            FaultSpec(kind="cell", mode="crash", target="cell001",
                      at=(3,), max_events=1),
        ))
        with faults.use(plan):
            result = FleetRuntime(
                [_cell(1), _cell(2)], supervise=True, snapshot_every=2,
                alert_rules=(_ALWAYS,),
            ).run(5)
        assert result.replayed > 0 and result.alert_counts["raised"] == 2


class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        sink = InMemorySink()
        telemetry.enable(sink)
        with telemetry.span("parent") as outer:
            with telemetry.span("child") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.span_id
                assert inner.depth == 1
        telemetry.remove_sink(sink)
        names = [r["name"] for r in sink.spans]
        assert names == ["child", "parent"]  # children emitted first

    def test_root_span_is_its_own_trace(self):
        telemetry.enable()
        with telemetry.span("root") as sp:
            assert sp.trace_id == sp.span_id
            assert sp.parent_id is None
            assert sp.depth == 0

    def test_attrs_via_kwargs_and_set(self):
        telemetry.enable()
        with telemetry.span("op", static=1) as sp:
            sp.set("dynamic", 2)
        assert sp.attrs == {"static": 1, "dynamic": 2}

    def test_duration_positive_and_error_attr(self):
        sink = InMemorySink()
        telemetry.enable(sink)
        with pytest.raises(RuntimeError):
            with telemetry.span("fails"):
                raise RuntimeError("boom")
        telemetry.remove_sink(sink)
        (record,) = sink.spans
        assert record["attrs"]["error"] == "RuntimeError"
        assert record["duration_s"] >= 0.0

    def test_current_span_tracks_stack(self):
        telemetry.enable()
        assert telemetry.current_span() is None
        with telemetry.span("a") as a:
            assert telemetry.current_span() is a
            with telemetry.span("b") as b:
                assert telemetry.current_span() is b
            assert telemetry.current_span() is a
        assert telemetry.current_span() is None

    def test_span_requires_name(self):
        with pytest.raises(ValueError):
            Span("")


class TestMetrics:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge("g")
        assert np.isnan(g.value)
        g.set(2.5)
        assert g.value == 2.5

    def test_histogram_buckets_and_summary(self):
        h = Histogram("h", upper_bounds=(1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 99.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["counts"] == [2, 1, 1]  # <=1, <=2, overflow
        assert snap["count"] == 4
        assert snap["min"] == 0.5 and snap["max"] == 99.0
        assert snap["sum"] == pytest.approx(102.0)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", upper_bounds=())
        with pytest.raises(ValueError):
            Histogram("h", upper_bounds=(2.0, 1.0))

    def test_registry_create_on_first_use(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        reg.counter("a").inc()
        reg.gauge("b").set(1.0)
        reg.histogram("c").observe(0.1)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 1}
        assert snap["gauges"] == {"b": 1.0}
        assert snap["histograms"]["c"]["count"] == 1
        reg.reset()
        assert reg.snapshot()["counters"] == {}

    def test_runtime_helpers_when_enabled(self):
        telemetry.enable()
        telemetry.inc("runs", 2)
        telemetry.observe("lat_s", 0.01)
        telemetry.set_gauge("size", 7)
        snap = telemetry.metrics_snapshot()
        assert snap["counters"]["runs"] == 2
        assert snap["histograms"]["lat_s"]["count"] == 1
        assert snap["gauges"]["size"] == 7.0


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry.record(path):
            with telemetry.span("outer"):
                with telemetry.span("inner") as sp:
                    sp.set("k", 1)
            telemetry.inc("events")
        records = read_records(path)
        spans = [r for r in records if r["type"] == "span"]
        metrics = [r for r in records if r["type"] == "metrics"]
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert spans[0]["attrs"] == {"k": 1}
        assert metrics[-1]["counters"] == {"events": 1}
        # Every line is valid standalone JSON.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_record_restores_prior_state(self):
        assert not telemetry.enabled()
        with telemetry.record(None):
            assert telemetry.enabled()
        assert not telemetry.enabled()

    def test_record_in_memory_sink(self):
        with telemetry.record(None) as sink:
            with telemetry.span("op"):
                pass
        assert isinstance(sink, InMemorySink)
        assert [s["name"] for s in sink.spans] == ["op"]
        assert sink.metrics  # final snapshot appended

    def test_record_reset_flag(self):
        telemetry.enable()
        telemetry.inc("stale")
        with telemetry.record(None) as sink:
            telemetry.inc("fresh")
        assert "stale" not in sink.metrics[-1]["counters"]
        assert sink.metrics[-1]["counters"]["fresh"] == 1

    def test_jsonl_sink_serialises_nonfinite_attrs(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit({"type": "span", "id": 1, "parent": None, "trace": 1,
                   "depth": 0, "name": "x", "start_s": 0.0,
                   "duration_s": 0.1, "attrs": {"bad": float("nan")}})
        sink.close()
        assert read_records(path)[0]["attrs"]["bad"] == "nan"

    def test_read_jsonl_tolerates_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('\n{"type": "span", "id": 1, "name": "a"}\n\n  \n')
        assert read_records(path) == [{"type": "span", "id": 1, "name": "a"}]


class TestRecordStream:
    def test_in_memory_sink_keeps_arrival_order(self):
        with telemetry.record() as sink:
            with telemetry.span("a"):
                pass
            telemetry.emit_metrics()
            with telemetry.span("b"):
                pass
            telemetry.emit_record({"type": "decision", "t": 0})
        assert [r.get("name", r["type"]) for r in sink.records()] == [
            "a", "metrics", "b", "decision", "metrics",
        ]
        assert [r["name"] for r in sink.spans] == ["a", "b"]
        assert len(sink.metrics) == 2

    def test_records_flow_without_spans(self):
        """Records need a sink, not enabled(); spans need both."""
        with telemetry.attach(InMemorySink()) as sink:
            with telemetry.span("untimed"):
                telemetry.emit_record({"type": "kpi", "t": 0})
        assert [r["type"] for r in sink.records()] == ["kpi"]

    def test_all_six_record_types_arrive_in_emission_order(self, tmp_path):
        """One supervised fleet under a crash plan feeds spans, KPI,
        decision, alert, supervision-event and metrics records to every
        attached sink in one order."""
        from repro import faults
        from repro.faults import FaultPlan, FaultSpec
        from repro.oran.runtime import FleetRuntime

        plan = FaultPlan(specs=(
            FaultSpec(kind="cell", mode="crash", target="cell001",
                      at=(3,), max_events=1),
        ))
        jsonl = JsonlSink(tmp_path / "stream.jsonl")
        with faults.use(plan), telemetry.record() as sink:
            with telemetry.attach(jsonl):
                FleetRuntime(
                    [_cell(1), _cell(2)], supervise=True, snapshot_every=2,
                    alert_rules=(_ALWAYS,),
                ).run(6)
        jsonl.close()
        records = sink.records()
        kinds = ["event" if "event" in r else r["type"] for r in records]
        assert set(kinds) == {
            "span", "metrics", "decision", "kpi", "alert", "event",
        }
        assert kinds[-1] == "metrics"  # the final snapshot
        lines = [json.loads(line)
                 for line in jsonl.path.read_text().splitlines()]
        assert [r.get("id", r["type"]) for r in lines] == [
            r.get("id", r["type"]) for r in records[:-1]
        ]
        for cell in ("cell000", "cell001"):
            # Per period: the decision (agent.observe), then its KPI.
            flow = [(r["type"], r["t"]) for r in records
                    if r["type"] in ("decision", "kpi") and "event" not in r
                    and cell in (r.get("agent"), r.get("cell"))]
            assert flow == [(kind, t) for t in range(6)
                            for kind in ("decision", "kpi")]

    def test_scope_stamps_only_label_less_records(self):
        with telemetry.attach(InMemorySink()) as sink:
            with telemetry.scope("sweep-cell-3"):
                telemetry.emit_record({"type": "kpi", "cell": "cell007"})
                telemetry.emit_record({"type": "decision", "t": 0})
        own, stamped = sink.records()
        assert own["cell"] == "cell007"
        assert stamped == {"type": "decision", "cell": "sweep-cell-3",
                           "t": 0}

    def test_suppress_drops_records_and_keeps_spans(self):
        with telemetry.record() as sink:
            with telemetry.suppress():
                with telemetry.span("replay"):
                    telemetry.emit_record({"type": "decision", "t": 0})
                telemetry.emit_record({"type": "kpi", "t": 0})
            telemetry.emit_record({"type": "kpi", "t": 1})
        kinds = [(r["type"], r.get("t")) for r in sink.records()]
        assert kinds[:2] == [("span", None), ("kpi", 1)]
        assert sink.spans[0]["name"] == "replay"

    def test_capture_isolates_and_restores_sinks(self):
        with telemetry.attach(InMemorySink()) as outer:
            with telemetry.capture() as inner:
                telemetry.emit_record({"type": "kpi", "t": 0})
            telemetry.emit_record({"type": "kpi", "t": 1})
        assert [r["t"] for r in inner.records()] == [0]
        assert [r["t"] for r in outer.records()] == [1]
        assert not telemetry.has_sinks()


class TestReport:
    def _trace(self):
        with telemetry.record(None) as sink:
            for _ in range(3):
                with telemetry.span("select"):
                    with telemetry.span("posterior"):
                        pass
            telemetry.inc("adds", 5)
        return sink

    def test_span_tree_aggregates_by_path(self):
        sink = self._trace()
        text = report.render_span_tree(sink.spans)
        assert "select" in text
        assert "  posterior" in text  # indented child
        assert text.count("select") == 1  # aggregated to one row

    def test_render_report_includes_metrics(self):
        sink = self._trace()
        text = report.render_report(sink.spans, sink.metrics)
        assert "adds" in text and "5" in text

    def test_empty_trace_renders(self):
        assert "no spans" in report.render_span_tree([])
        assert "no snapshot" in report.render_metrics(None)

    def test_render_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry.record(path):
            with telemetry.span("op"):
                pass
        records = read_records(path)
        text = report.render_report(
            [r for r in records if r["type"] == "span"],
            [r for r in records if r["type"] == "metrics"],
        )
        assert "op" in text

    def test_selftest(self):
        """A synthetic in-memory trace renders nested rows and metrics:
        the span -> sink -> report pipeline end to end."""
        with telemetry.record(None) as sink:
            for period in range(3):
                with telemetry.span("selftest.period", t=period):
                    with telemetry.span("selftest.select"):
                        with telemetry.span("selftest.posterior"):
                            pass
                    telemetry.inc("selftest.solves")
        text = report.render_report(sink.spans, sink.metrics)
        assert "    selftest.posterior" in text  # depth 2
        assert "selftest.solves" in text


class TestCli:
    def test_report_shows_nested_engine_posterior(self, tmp_path, capsys):
        """A tiny traced run renders its span tree: the selection's
        posterior sweep is a nested row, not a root."""
        trace = tmp_path / "t.jsonl"
        assert cli.main([
            "run", "static", "--sweep", "delta2=1", "--set", "periods=2",
            "--set", "levels=3", "--out", str(tmp_path), "--no-store",
            "--telemetry", str(trace),
        ]) == 0
        capsys.readouterr()
        assert cli.main(["report", str(trace)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert any(row.startswith("  ") and row.strip().startswith(
            "engine.posterior ") for row in rows)

    def test_report_requires_path(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["report"])
        assert exc.value.code == 2
        assert "path" in capsys.readouterr().err

    def test_report_renders_file(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        with telemetry.record(path):
            with telemetry.span("cli.op"):
                pass
        assert cli.main(["report", str(path)]) == 0
        assert "cli.op" in capsys.readouterr().out

    @pytest.mark.parametrize("text, where", [
        ('{"type": "span", "id": 1, "name": "a"}\n{"type": "sp', ":2: "),
        ('\n[1, 2]\n', ":2: "),
        (b'{"type": "span"}\n\xff\n', ":2: "),
        (None, ": "),
    ], ids=["torn-last-line", "non-object", "not-utf8", "missing-file"])
    def test_report_rejects_unreadable_file(self, tmp_path, text, where):
        """A damaged or missing file ends in one line naming it (and the
        bad line), not a traceback."""
        path = tmp_path / "trace.jsonl"
        if text is not None:
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", str(path)])
        assert str(exc.value).startswith(f"repro report: {path}{where}")


class TestRunnerIntegration:
    def test_static_run_emits_required_span_edges(self, tmp_path):
        from repro import (
            CostWeights, EdgeBOL, ServiceConstraints, TestbedConfig,
            static_scenario,
        )
        from repro.experiments.runner import run_agent

        config = TestbedConfig(n_levels=3)
        env = static_scenario(mean_snr_db=35.0, rng=0, config=config)
        agent = EdgeBOL(
            config.control_grid(),
            ServiceConstraints(d_max_s=0.4, rho_min=0.5),
            CostWeights(delta1=1.0, delta2=1.0),
        )
        path = tmp_path / "run.jsonl"
        with telemetry.record(path):
            log = run_agent(env, agent, n_periods=4)

        records = read_records(path)
        spans = [r for r in records if r["type"] == "span"]
        metrics = [r for r in records if r["type"] == "metrics"]
        by_id = {s["id"]: s for s in spans}

        def edges():
            for s in spans:
                parent = by_id.get(s.get("parent"))
                if parent is not None:
                    yield (parent["name"], s["name"])

        edge_set = set(edges())
        assert ("edgebol.select", "engine.posterior") in edge_set
        assert ("env.step", "queueing.solve") in edge_set
        assert ("experiment.run", "experiment.period") in edge_set

        # The run log absorbed the metrics snapshot.
        assert log.telemetry is not None
        assert log.telemetry["counters"]["core.gp.add"] > 0
        assert metrics[-1]["counters"]["ran.mac.allocations"] == 4

        # And the report renders it without error.
        assert "engine.posterior" in report.render_report(spans, metrics)

    def test_run_without_telemetry_stores_nothing(self):
        from repro import (
            CostWeights, EdgeBOL, ServiceConstraints, TestbedConfig,
            static_scenario,
        )
        from repro.experiments.runner import run_agent

        config = TestbedConfig(n_levels=3)
        env = static_scenario(mean_snr_db=35.0, rng=0, config=config)
        agent = EdgeBOL(
            config.control_grid(),
            ServiceConstraints(d_max_s=0.4, rho_min=0.5),
            CostWeights(delta1=1.0, delta2=1.0),
        )
        log = run_agent(env, agent, n_periods=2)
        assert log.telemetry is None


class TestConcurrency:
    def test_thread_local_span_stacks_are_independent(self):
        telemetry.enable()
        seen = {}

        def worker(name):
            with telemetry.span(name) as sp:
                seen[name] = (sp.parent_id, sp.depth)

        with telemetry.span("main.root"):
            t = threading.Thread(target=worker, args=("worker.root",))
            t.start()
            t.join()
        # The worker thread's span must NOT parent under main's span.
        assert seen["worker.root"] == (None, 0)
