"""Telemetry export: Prometheus exposition and buffered JSONL sink."""

import pytest

from repro.telemetry.export import (
    JsonlSink,
    prometheus_exposition,
    read_records,
)


def snapshot(**over):
    """A metrics snapshot in the runtime's shape, with overridable parts."""
    base = {
        "counters": {"oran.bus.delivered": 240, "fleet.decisions": 48},
        "gauges": {"fleet.cells": 4.0},
        "histograms": {
            "core.gp.add_s": {
                "buckets": [0.001, 0.01, 0.1],
                "counts": [3, 2, 1, 1],
                "count": 7,
                "sum": 0.5,
                "min": 0.0001,
                "max": 0.2,
                "mean": 0.5 / 7,
            },
        },
    }
    base.update(over)
    return base


class TestPrometheusExposition:
    def test_counters_get_total_suffix_and_type_line(self):
        text = prometheus_exposition(snapshot())
        assert "# TYPE repro_oran_bus_delivered_total counter" in text
        assert "repro_oran_bus_delivered_total 240" in text
        assert "repro_fleet_decisions_total 48" in text

    def test_gauges_rendered(self):
        text = prometheus_exposition(snapshot())
        assert "# TYPE repro_fleet_cells gauge" in text
        assert "repro_fleet_cells 4" in text

    def test_histogram_buckets_cumulative_with_inf(self):
        lines = prometheus_exposition(snapshot()).splitlines()
        buckets = [l for l in lines if "core_gp_add_s_bucket" in l]
        assert buckets == [
            'repro_core_gp_add_s_bucket{le="0.001"} 3',
            'repro_core_gp_add_s_bucket{le="0.01"} 5',
            'repro_core_gp_add_s_bucket{le="0.1"} 6',
            'repro_core_gp_add_s_bucket{le="+Inf"} 7',
        ]
        assert "repro_core_gp_add_s_sum 0.5" in lines
        assert "repro_core_gp_add_s_count 7" in lines

    def test_ordering_is_deterministic_and_sorted(self):
        text = prometheus_exposition(snapshot())
        assert text == prometheus_exposition(snapshot())
        samples = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        # counters sorted, then gauges, then histograms
        assert samples[0].startswith("repro_fleet_decisions_total")
        assert samples[1].startswith("repro_oran_bus_delivered_total")
        assert samples[2].startswith("repro_fleet_cells")
        assert samples[3].startswith("repro_core_gp_add_s_bucket")

    def test_labels_attached_and_escaped(self):
        text = prometheus_exposition(
            {"counters": {"x": 1}, "gauges": {}, "histograms": {}},
            labels={"run": 'we"ird\\label\nname'},
        )
        assert 'repro_x_total{run="we\\"ird\\\\label\\nname"} 1' in text

    def test_labels_merge_with_histogram_le(self):
        text = prometheus_exposition(snapshot(), labels={"cell": "c0"})
        assert 'repro_core_gp_add_s_bucket{cell="c0",le="0.001"} 3' in text
        assert 'repro_core_gp_add_s_sum{cell="c0"} 0.5' in text

    def test_name_sanitisation(self):
        text = prometheus_exposition(
            {"counters": {"a.b-c/d": 1}, "gauges": {}, "histograms": {}}
        )
        assert "repro_a_b_c_d_total 1" in text

    def test_custom_prefix_and_empty_snapshot(self):
        text = prometheus_exposition(
            {"counters": {"x": 1}, "gauges": {}, "histograms": {}},
            prefix="edgebol",
        )
        assert "edgebol_x_total 1" in text
        assert prometheus_exposition(
            {"counters": {}, "gauges": {}, "histograms": {}}
        ) == ""

    def test_output_ends_with_newline(self):
        assert prometheus_exposition(snapshot()).endswith("\n")


class TestJsonlSinkBuffering:
    def _record(self, i):
        return {"type": "span", "trace": 1, "id": i, "parent": None,
                "depth": 0, "name": "x", "start_s": 0.0, "duration_s": 0.1,
                "attrs": {}}

    def test_default_is_buffered(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        assert sink.flush_every > 1

    def test_close_flushes_partial_batch(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, flush_every=64)
        for i in range(5):
            sink.emit(self._record(i))
        sink.close()
        spans = read_records(path)
        assert len(spans) == 5

    def test_batch_boundary_flushes_to_disk(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, flush_every=4)
        for i in range(4):
            sink.emit(self._record(i))
        # batch full: the four lines are visible without closing
        with path.open() as handle:
            assert len(handle.readlines()) == 4
        sink.close()

    def test_flush_every_one_matches_legacy_per_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, flush_every=1)
        sink.emit(self._record(0))
        with path.open() as handle:
            assert len(handle.readlines()) == 1
        sink.close()

    def test_record_count_tracks_emits(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl", flush_every=8)
        for i in range(20):
            sink.emit(self._record(i))
        assert sink.n_records == 20
        sink.close()

    def test_invalid_flush_every_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            JsonlSink(tmp_path / "t.jsonl", flush_every=0)

    def test_close_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl", flush_every=4)
        sink.emit(self._record(0))
        sink.close()
        sink.close()
        spans = read_records(sink.path)
        assert len(spans) == 1
