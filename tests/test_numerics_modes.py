"""Integration tests for the numerics modes (dense and sparse).

The dense default is the bit-identity reference, so these tests pin the
claims the sparse observation budget makes:

* **eviction is replay-stable** — a run that crosses
  ``max_observations + eviction_block`` produces bit-identical
  trajectories whether the engine cache is warm or cold at eviction
  time, and a sparse budget large enough never to trigger produces
  exactly the dense trajectory;
* **the mode is observable** — agents expose ``numerics_mode``,
  decision records carry it, ``repro report`` stamps it on anomaly
  flags, and the CLI flags export the selection to the environment.
"""

import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import EdgeBOL, EdgeBOLConfig
from repro.core.numerics import ENV_BUDGET, ENV_SPARSE, NumericsConfig
from repro.obs.decision import make_tracer
from repro.obs.diagnose import detect_anomalies, render_dashboard
from repro.telemetry import runtime as telemetry
from repro.telemetry.export import InMemorySink
from repro.testbed.config import CostWeights, ServiceConstraints, TestbedConfig
from repro.testbed.scenarios import static_scenario

ENV_VARS = (ENV_SPARSE, ENV_BUDGET)


@pytest.fixture
def clean_numerics_env():
    """Snapshot and restore the numerics environment variables."""
    saved = {var: os.environ.pop(var, None) for var in ENV_VARS}
    yield
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


def run_trajectory(agent_config=None, reset_at=None, n_periods=28):
    """One seeded static run; returns (per-period rows, agent, events).

    ``reset_at`` drops the engine cache cold immediately before that
    period's selection.  ``events`` records the period at which each
    GP's first eviction landed (-1 when it never did).
    """
    testbed = TestbedConfig(n_levels=5)
    env = static_scenario(mean_snr_db=35.0, rng=0, config=testbed)
    agent = EdgeBOL(
        testbed.control_grid(),
        ServiceConstraints(0.4, 0.5),
        CostWeights(1.0, 1.0),
        config=agent_config,
    )
    rows = []
    first_eviction = -1
    for t in range(n_periods):
        if reset_at is not None and t == reset_at:
            agent.engine.reset_cache()
        context = env.observe_context()
        policy = agent.select(context)
        observation = env.step(policy)
        cost = agent.observe(context, policy, observation)
        if first_eviction < 0 and agent.gps[0].evictions > 0:
            first_eviction = t
        rows.append((
            float(cost),
            tuple(float(v) for v in policy.to_array()),
            int(agent.last_safe_set_size),
            float(observation.delay_s),
            float(observation.map_score),
        ))
    return rows, agent, first_eviction


class TestEvictionReplayStability:
    @pytest.mark.parametrize("config,n_periods", [
        # Dense default path: oldest-block drop at
        # max_observations + eviction_block (GP default block of 100).
        (EdgeBOLConfig(max_observations=8), 115),
        # Sparse policy path: inducing-subset eviction at budget + block.
        (EdgeBOLConfig(numerics=NumericsConfig(
            sparse=True, sparse_budget=10, sparse_block=5)), 28),
    ], ids=["dense-default", "sparse-policy"])
    def test_rows_identical_warm_or_cold_cache_at_eviction(
            self, config, n_periods):
        """The satellite bit-identity check for the eviction path.

        The engine cache never feeds back into GP state, so the
        trajectory must be byte-for-byte the same whether the cache is
        warm or freshly reset when the budget-crossing eviction lands.
        """
        warm, agent, evict_t = run_trajectory(config, n_periods=n_periods)
        assert evict_t > 0, "run never crossed the eviction threshold"
        assert agent.gps[0].evictions >= 1
        cold, _, _ = run_trajectory(config, reset_at=evict_t,
                                    n_periods=n_periods)
        assert warm == cold

    def test_big_budget_sparse_matches_dense_exactly(self):
        """A sparse budget that never triggers is the dense run, bit-
        for-bit: same RunLog rows, zero evictions."""
        dense_rows, _, _ = run_trajectory(EdgeBOLConfig())
        sparse_rows, agent, _ = run_trajectory(EdgeBOLConfig(
            numerics=NumericsConfig(sparse=True, sparse_budget=512),
        ))
        assert agent.numerics_mode == "sparse"
        assert all(gp.evictions == 0 for gp in agent.gps)
        assert sparse_rows == dense_rows

    def test_small_budget_sparse_run_stays_bounded_and_safe(self):
        numerics = NumericsConfig(sparse=True, sparse_budget=8,
                                  sparse_block=4)
        rows, agent, _ = run_trajectory(
            EdgeBOLConfig(numerics=numerics), n_periods=30
        )
        assert all(gp.evictions >= 1 for gp in agent.gps)
        assert all(
            gp.n_observations <= numerics.sparse_budget + numerics.sparse_block
            for gp in agent.gps
        )
        assert all(np.isfinite(row[0]) for row in rows)
        # The learner still functions: the safe set grew beyond {S0}.
        assert rows[-1][2] > 1

    def test_explicit_max_observations_beats_sparse_budget(self):
        config = EdgeBOLConfig(
            max_observations=6,
            numerics=NumericsConfig(sparse=True, sparse_budget=512,
                                    sparse_block=4),
        )
        _, agent, _ = run_trajectory(config, n_periods=20)
        assert all(gp.n_observations <= 6 + 4 for gp in agent.gps)


class TestModeObservability:
    def test_decision_records_carry_numerics_mode(self):
        testbed = TestbedConfig(n_levels=4)
        env = static_scenario(mean_snr_db=35.0, rng=0, config=testbed)
        agent = EdgeBOL(
            testbed.control_grid(), ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0),
            config=EdgeBOLConfig(
                numerics=NumericsConfig(sparse=True, sparse_budget=64),
            ),
        )
        with telemetry.attach(InMemorySink()) as sink:
            tracer = make_tracer(agent)
            agent.attach_tracer(tracer)
            for _ in range(4):
                context = env.observe_context()
                policy = agent.select(context)
                agent.observe(context, policy, env.step(policy))
        assert len(sink.records()) == 4
        assert all(r["numerics_mode"] == "sparse" for r in sink.records())

    def test_anomaly_flags_stamped_with_mode(self):
        records = [
            {
                "t": t,
                "numerics_mode": "sparse",
                "degraded": True,
                "outcome": {"cost": 100.0},
                "safe_set": {"fraction": 0.1, "grid": 625},
            }
            for t in range(3)
        ]
        flags = detect_anomalies(records)
        assert flags
        assert all(flag["numerics_mode"] == "sparse" for flag in flags)
        dashboard = render_dashboard(records, anomalies=flags)
        assert "sparse" in dashboard

    def test_flags_without_mode_stay_schema_compatible(self):
        records = [{"t": t, "degraded": True} for t in range(3)]
        flags = detect_anomalies(records)
        assert flags
        assert all("numerics_mode" not in flag for flag in flags)


class TestCliNumericsFlags:
    def test_parser_accepts_flags(self):
        parser = build_parser()
        args = parser.parse_args([
            "dynamic", "--periods", "5", "--numerics", "sparse",
            "--gp-budget", "32",
        ])
        assert args.numerics == "sparse"
        assert args.gp_budget == 32

    def test_parser_rejects_unknown_mode(self):
        # Retired numerics modes and the retired --backend flag are
        # rejected like any unknown input.
        for argv in (
            ["--numerics", "warp"],
            ["--numerics", "batched"],
            ["--numerics", "sparse-batched"],
            ["--backend", "numpy"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["dynamic", *argv])

    def test_flags_export_env_and_run(self, clean_numerics_env, tmp_path,
                                      capsys):
        code = main([
            "dynamic", "--periods", "5", "--levels", "3",
            "--out", str(tmp_path), "--numerics", "sparse",
            "--gp-budget", "24",
        ])
        assert code == 0
        assert os.environ[ENV_SPARSE] == "1"
        assert os.environ[ENV_BUDGET] == "24"
        assert "numerics mode: sparse" in capsys.readouterr().out
        assert (tmp_path / "dynamic.csv").exists()

    def test_no_flags_leave_environment_alone(self, clean_numerics_env,
                                              tmp_path):
        code = main([
            "dynamic", "--periods", "3", "--levels", "3",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert ENV_SPARSE not in os.environ
