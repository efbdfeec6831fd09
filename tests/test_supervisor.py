"""Fleet supervision, crash-recovery and resilience-accounting tests.

The determinism gate lives here: a supervised fleet run under a chaos
plan (crashes, stalls, corrupt snapshots, mailbox floods) must produce
per-cell RunLogs and alert streams **bit-identical** to a fault-free
run at the same seed — warm restores replay, they do not re-randomise.
See ``docs/ROBUSTNESS.md`` ("Fleet resilience").
"""

import gc
import json
import warnings

import pytest

from repro import faults, obs
from repro.core import EdgeBOL, state
from repro.experiments.fleet import run_fleet_cell_sim, run_fleet_spec_cell
from repro.faults import FaultPlan, FaultSpec
from repro.obs import diagnose
from repro.oran.alerts import AlertRouter, AlertRule, default_rules
from repro.oran.load import FleetLoadModel
from repro.oran.runtime import FleetRuntime
from repro.oran.supervisor import FleetSupervisor, SupervisorPolicy
from repro.testbed.config import CostWeights, ServiceConstraints, TestbedConfig
from repro.testbed.scenarios import static_scenario
from repro.utils.rng import seed_tree

SEED = 42


def make_runtime(n_cells, seed=SEED, levels=4, **kwargs):
    """A fleet wired exactly like ``run_fleet_cell_sim`` builds one."""
    testbed = TestbedConfig(n_levels=levels)
    grid = testbed.control_grid()
    rngs = seed_tree(seed, n_cells + 1)
    cells = [
        (
            static_scenario(n_users=1, rng=rngs[i], config=testbed),
            EdgeBOL(grid, ServiceConstraints(), CostWeights(1.0, 1.0)),
        )
        for i in range(n_cells)
    ]
    load = FleetLoadModel(n_cells, profile="diurnal", seed=rngs[n_cells])
    return FleetRuntime(cells, load_model=load, **kwargs)


def series(result):
    """The full bit-comparable trajectory of every cell."""
    return {
        cell_id: (log.cost, log.delay_s, log.bs_power_w, log.snr_db,
                  log.safe_set_size)
        for cell_id, log in result.logs.items()
    }


def run_chaos(plan, n_cells=3, n_periods=10, snapshot_every=4, **kwargs):
    with faults.use(plan):
        return run_fleet_cell_sim(
            n_cells=n_cells, n_periods=n_periods, seed=SEED, levels=4,
            supervise=True, snapshot_every=snapshot_every, **kwargs,
        )


@pytest.fixture(scope="module")
def clean_run():
    """Fault-free supervised baseline every chaos run must reproduce."""
    return run_fleet_cell_sim(
        n_cells=3, n_periods=10, seed=SEED, levels=4,
        supervise=True, snapshot_every=4,
    )


class TestCrashRecovery:
    def test_warm_restore_replays_bit_identically(self, clean_run):
        plan = FaultPlan(specs=(
            FaultSpec(kind="cell", mode="crash", target="cell001",
                      at=(6,), max_events=1),
        ))
        chaos = run_chaos(plan)
        assert series(chaos) == series(clean_run)
        assert chaos.alerts == clean_run.alerts
        stats = chaos.recovery["cell001"]
        assert stats["crashes"] == 1 and stats["restarts"] == 1
        assert stats["recovered"] and stats["quarantined"] is None
        assert chaos.replayed > 0 and chaos.supervised
        assert chaos.partial_cells == {}
        assert chaos.decisions == clean_run.decisions

    def test_unsupervised_crash_leaves_partial_accounting(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="cell", mode="crash", target="cell000",
                      at=(5,), max_events=1),
        ))
        with faults.use(plan):
            result = run_fleet_cell_sim(
                n_cells=2, n_periods=10, seed=SEED, levels=4,
                supervise=False,
            )
        partial = result.partial_cells["cell000"]
        assert partial == {"rows": 5, "missed": 5, "reason": "crash"}
        assert len(result.logs["cell000"]) == 5
        assert len(result.logs["cell001"]) == 10
        assert not result.recovery["cell000"]["recovered"]

    def test_faults_keep_firing_when_supervision_is_off(self):
        """The chaos schedule is plan-driven, not supervision-driven."""
        plan = FaultPlan(specs=(
            FaultSpec(kind="cell", mode="crash", target="cell000",
                      at=(3,), max_events=1),
        ))
        with faults.use(plan):
            off = run_fleet_cell_sim(n_cells=1, n_periods=6, seed=SEED,
                                     levels=4, supervise=False)
        assert off.recovery["cell000"]["crashes"] == 1


class TestStallDetection:
    def test_stall_is_detected_and_recovered(self, clean_run):
        plan = FaultPlan(specs=(
            FaultSpec(kind="loop", mode="stall", target="cell002",
                      at=(3,), max_events=1),
        ))
        sink = obs.ListSink()
        with obs.use(sink):
            chaos = run_chaos(plan)
        assert series(chaos) == series(clean_run)
        stats = chaos.recovery["cell002"]
        assert stats["stalls"] == 1 and stats["recovered"]
        events = [(r["event"], r["t"]) for r in sink.records
                  if r.get("agent") == "cell002" and "event" in r]
        # Last heartbeat lands at t=2; 5 - 2 > stall_timeout 2.
        assert ("cell_stall", 5) in events
        assert any(name == "recovery" for name, _ in events)

    def test_stall_at_last_period_is_recovered_in_finish(self, clean_run):
        """No lost rows even when the detector never gets to fire."""
        plan = FaultPlan(specs=(
            FaultSpec(kind="loop", mode="stall", target="cell000",
                      at=(9,), max_events=1),
        ))
        chaos = run_chaos(plan)
        assert series(chaos) == series(clean_run)
        assert chaos.partial_cells == {}
        stats = chaos.recovery["cell000"]
        assert stats["stalls"] == 1 and stats["restarts"] == 1


class TestSnapshotCorruption:
    def test_corrupt_checkpoint_falls_back_to_older(self, clean_run):
        plan = FaultPlan(specs=(
            # Checkpoint opportunities of cell001: 0 = the t=0 anchor,
            # 1 = horizon 4, 2 = horizon 8.  Corrupting opportunity 1
            # forces the t=6 crash back onto the anchor.
            FaultSpec(kind="snapshot", mode="corrupt", target="cell001",
                      at=(1,), max_events=1),
            FaultSpec(kind="cell", mode="crash", target="cell001",
                      at=(6,), max_events=1),
        ))
        chaos = run_chaos(plan)
        assert series(chaos) == series(clean_run)
        stats = chaos.recovery["cell001"]
        assert stats["snapshot_corrupt"] == 1
        assert stats["recovered"] and stats["quarantined"] is None

    @pytest.mark.parametrize("stale_format", [
        "edgebol-snapshot-v1",
        "edgebol-snapshot-v2",  # the layout that still carried `cross`
        "edgebol-snapshot-v3",  # the layout that still carried `alpha`
        "edgebol-snapshot-v4",  # the layout that still carried `v`
        "edgebol-snapshot-v5",  # the layout that still carried the
                                # rebuild's factor order
    ])
    def test_stale_format_falls_back_to_older(self, clean_run, monkeypatch,
                                              stale_format):
        # A blob with a valid checksum but another layout's format tag
        # must not be restored: it counts as corrupt, like a bad digest.
        encode = state.encode_snapshot

        def stale_at_horizon_4(payload):
            if payload["cell"] == "cell001" and payload["t"] == 4:
                payload = {**payload, "format": stale_format}
            return encode(payload)

        monkeypatch.setattr(state, "encode_snapshot", stale_at_horizon_4)
        plan = FaultPlan(specs=(
            FaultSpec(kind="cell", mode="crash", target="cell001",
                      at=(6,), max_events=1),
        ))
        chaos = run_chaos(plan)
        assert series(chaos) == series(clean_run)
        stats = chaos.recovery["cell001"]
        assert stats["snapshot_corrupt"] == 1
        assert stats["recovered"] and stats["quarantined"] is None

    def test_all_snapshots_corrupt_quarantines(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="snapshot", mode="corrupt", target="cell000",
                      probability=1.0),
            FaultSpec(kind="cell", mode="crash", target="cell000",
                      at=(5,), max_events=1),
        ))
        chaos = run_chaos(plan, n_cells=2)
        stats = chaos.recovery["cell000"]
        assert stats["quarantined"] is not None
        assert "snapshot" in stats["quarantined"]
        partial = chaos.partial_cells["cell000"]
        assert partial["rows"] + partial["missed"] == 10


class TestCircuitBreaker:
    def test_flood_trips_breaker_without_losing_rows(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="mailbox", mode="overflow", target="cell001",
                      at=(2,), magnitude=96.0, max_events=1),
        ))
        first = run_chaos(plan)
        stats = first.recovery["cell001"]
        assert stats["breaker_trips"] == 1
        assert stats["shed_periods"] > 0
        assert all(len(log) == 10 for log in first.logs.values())
        assert first.partial_cells == {}
        second = run_chaos(plan)
        assert series(first) == series(second)  # chaos replays bit-identically


class TestQuarantine:
    def test_repeated_crashes_escalate_to_quarantine(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="cell", mode="crash", target="cell000",
                      at=(2, 3, 4), max_events=3),
        ))
        policy = SupervisorPolicy(snapshot_every=2, max_restarts=2,
                                  restart_window=50)
        with faults.use(plan):
            runtime = make_runtime(2, supervise=True,
                                   supervisor_policy=policy)
            result = runtime.run(8)
        stats = result.recovery["cell000"]
        assert stats["quarantined"] is not None
        assert stats["crashes"] == 3 and stats["restarts"] == 2
        partial = result.partial_cells["cell000"]
        assert partial["reason"] == stats["quarantined"]
        assert partial["rows"] + partial["missed"] == 8
        assert len(result.logs["cell001"]) == 8  # the healthy cell is untouched

    def test_row_invariant_is_asserted(self):
        runtime = make_runtime(1, supervise=True)
        result = runtime.run(4)
        assert len(result.logs["cell000"]) == 4
        # Sabotage the accounting: a short log with no partial entry
        # must be caught, not silently reported.
        runtime.cells[0].log.cost.pop()
        with pytest.raises(RuntimeError, match="accounting"):
            runtime.run(0)


class TestConstruction:
    def test_supervised_fleets_require_batch_size_1(self):
        with pytest.raises(ValueError, match="batch_size"):
            make_runtime(2, supervise=True, batch_size=2)

    def test_snapshot_every_and_policy_are_exclusive(self):
        with pytest.raises(ValueError, match="snapshot_every"):
            make_runtime(1, supervise=True, snapshot_every=4,
                         supervisor_policy=SupervisorPolicy())

    def test_rejected_fleets_leave_no_unawaited_coroutines(self):
        """Arguments are checked before any bus task is scheduled, so a
        rejected fleet leaves no never-started coroutine for the GC."""
        invalid = [
            {"supervise": True, "batch_size": 2},
            {"supervise": True, "snapshot_every": 4,
             "supervisor_policy": SupervisorPolicy()},
            {"trace_rounds_every": 0},
            {"snapshot_every": 0},
            {"indication_policy": "bogus"},
            {"indication_capacity": 0},
            {"alert_rules": list(default_rules()) * 2},
        ]
        gc.collect()  # earlier tests' garbage is not this test's
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for kwargs in invalid:
                with pytest.raises(ValueError):
                    make_runtime(2, **kwargs)
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not leaked, [str(w.message) for w in leaked]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(snapshot_every=0)
        with pytest.raises(ValueError):
            SupervisorPolicy(backoff_factor=0.5)

    def test_fleet_spec_params_default_to_unsupervised(self):
        rows = run_fleet_spec_cell(
            {"cells": 1, "periods": 3, "levels": 4, "users": 1,
             "load": "diurnal", "policy": "block", "batch": 1},
            seed=SEED,
        )
        assert len(rows) == 1
        assert rows[0]["recovered"] is False and rows[0]["partial"] is False


class TestCommittedChaosPlan:
    """Mirror of the CI fleet-chaos gate, against the committed plan."""

    def test_committed_plan_recovers_every_cell(self):
        with open("examples/faults/fleet_chaos_plan.json") as handle:
            plan = FaultPlan.from_dict(json.load(handle))
        runs = [
            run_chaos(plan, n_cells=8, n_periods=12, snapshot_every=3)
            for _ in range(2)
        ]
        first, second = runs
        assert series(first) == series(second)  # bit-identical rerun
        assert first.partial_cells == {}  # zero lost rows
        assert all(len(log) == 12 for log in first.logs.values())
        recovered = {c for c, s in first.recovery.items() if s["recovered"]}
        assert recovered == {"cell002", "cell005", "cell006"}
        assert first.recovery["cell002"]["snapshot_corrupt"] == 1
        assert first.recovery["cell001"]["breaker_trips"] == 1


class TestAlertContinuity:
    """AlertRouter sustain/min_gap state must survive a cell restart."""

    @staticmethod
    def _rule():
        return AlertRule(
            name="bad", predicate=lambda s: s["bad"],
            message=lambda s: "bad cell", sustain=2, min_gap=3,
        )

    @staticmethod
    def _stream(router, flags, process_mask):
        """Feed samples where ``process_mask`` allows; alert fingerprints."""
        raised = []
        for t, bad in enumerate(flags):
            if not process_mask[t]:
                continue
            for alert in router.process({"cell": "cell000", "t": t,
                                         "bad": bad}):
                raised.append((alert.rule, alert.cell, alert.t))
        return raised

    def test_replay_does_not_double_fire(self):
        try:
            from hypothesis import given, settings
            from hypothesis import strategies as st
        except ImportError:  # pragma: no cover - hypothesis is in the image
            pytest.skip("hypothesis unavailable")

        @settings(max_examples=200, deadline=None)
        @given(
            flags=st.lists(st.booleans(), min_size=2, max_size=40),
            data=st.data(),
        )
        def check(flags, data):
            n = len(flags)
            crash_t = data.draw(st.integers(0, n - 1), label="crash_t")
            uninterrupted = self._stream(
                AlertRouter((self._rule(),)), flags, [True] * n
            )
            # The supervised pipeline: periods before the crash were
            # processed live; the warm restore replays them with alert
            # processing suppressed; catch-up and onwards process again.
            router = AlertRouter((self._rule(),))
            live = [t < crash_t for t in range(n)]
            catchup = [t >= crash_t for t in range(n)]
            restarted = (
                self._stream(router, flags, live)
                + self._stream(router, flags, catchup)
            )
            assert restarted == uninterrupted

        check()

    def test_sustain_window_spans_a_restart(self):
        """A pending streak at crash time still fires exactly once."""
        flags = [False, True, True, False]
        uninterrupted = self._stream(
            AlertRouter((self._rule(),)), flags, [True] * 4
        )
        router = AlertRouter((self._rule(),))
        restarted = (
            self._stream(router, flags, [True, True, False, False])
            + self._stream(router, flags, [False, False, True, True])
        )
        assert restarted == uninterrupted == [("bad", "cell000", 2)]


class TestSupervisorUnit:
    def test_checkpoint_ring_keeps_anchor_plus_newest(self):
        runtime = make_runtime(
            1, supervise=True,
            supervisor_policy=SupervisorPolicy(snapshot_every=2,
                                               snapshot_ring=2),
        )
        runtime.run(12)
        books = runtime.supervisor._books[0]
        horizons = [t for t, _ in books.snapshots]
        assert horizons == [0, 10, 12]  # anchor + newest snapshot_ring
        for _, blob in books.snapshots:
            payload = state.decode_snapshot(blob)
            assert payload["format"] == state.SNAPSHOT_FORMAT

    def test_heartbeat_tracks_progress(self):
        runtime = make_runtime(1, supervise=True)
        runtime.run(3)
        assert runtime.supervisor._books[0].last_progress == 2

    def test_supervisor_exports(self):
        import repro.oran as oran
        assert oran.FleetSupervisor is FleetSupervisor
        assert oran.SupervisorPolicy is SupervisorPolicy


class TestDiagnoseSupervisionEvents:
    @staticmethod
    def _events():
        base = [
            {"event": "cell_crash", "t": 4, "agent": "cell001"},
            {"event": "recovery", "t": 4, "agent": "cell001",
             "snapshot_t": 4, "replayed": 0, "caught_up": 1, "restarts": 1},
            {"event": "breaker_open", "t": 6, "agent": "cell001",
             "overload": 30},
            {"event": "breaker_close", "t": 9, "agent": "cell001"},
        ]
        storm = []
        for k in range(5):
            storm.append({"event": "recovery", "t": 10 + k,
                          "agent": "cell003", "restarts": k + 1})
        return base + storm

    def test_split_events_partitions_records(self):
        records = [{"type": "decision", "t": 0}] + self._events()
        periods, events = diagnose.split_events(records)
        assert len(periods) == 1 and len(events) == len(self._events())

    def test_recovery_storm_is_flagged(self):
        flags = diagnose.detect_anomalies(self._events())
        storms = [f for f in flags if f["kind"] == "recovery_storm"]
        assert len(storms) == 1
        assert storms[0]["agent"] == "cell003"
        assert storms[0]["restarts"] >= 4

    def test_single_recovery_is_not_a_storm(self):
        flags = diagnose.detect_anomalies(self._events()[:2])
        assert not [f for f in flags if f["kind"] == "recovery_storm"]

    def test_dashboard_marks_restarts_and_breaker(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with path.open("w") as handle:
            for t in range(12):
                handle.write(json.dumps({
                    "type": "decision", "t": t, "agent": "cell001",
                    "outcome": {"cost": 50.0, "delay_violation": False,
                                "map_violation": False},
                }) + "\n")
            for event in self._events():
                # obs.emit stamps every sink record ``type: "decision"``,
                # events included — mirror the on-disk shape exactly.
                handle.write(json.dumps({"type": "decision", **event}) + "\n")
        text, anomalies = diagnose.diagnose_path(path)
        assert "Supervision events" in text
        assert "recovery=" in text and "breaker_open=" in text
        assert any(f["kind"] == "recovery_storm" for f in anomalies)
        timeline = [line for line in text.splitlines()
                    if line.startswith("t=")]
        assert len(timeline) == 1
        # t=4: crash+recovery -> R; t=6 breaker_open, t=9 close -> C.
        assert timeline[0].endswith("....R.C..C..")

    def test_events_only_trace_still_renders(self):
        text = diagnose.render_dashboard(self._events())
        assert "supervision events only" in text
        assert '"event": "cell_crash"' in text
