"""Tests for the multi-service substrate and per-slice EdgeBOL."""

import numpy as np
import pytest

from repro.experiments.multiservice import (
    MultiServiceSetting,
    run_per_slice_edgebol,
    summary,
)
from repro.ran.channel import constant_trace
from repro.testbed.config import ControlPolicy, TestbedConfig
from repro.testbed.multiservice import MultiServiceEnvironment, SliceSpec


def make_env(n_a=1, n_b=1, config=None):
    return MultiServiceEnvironment(
        slices=[
            SliceSpec(name="a", channels=tuple(
                constant_trace(33.0) for _ in range(n_a)
            )),
            SliceSpec(name="b", channels=tuple(
                constant_trace(25.0) for _ in range(n_b)
            )),
        ],
        config=config or TestbedConfig(n_levels=5),
        rng=0,
    )


class TestMultiServiceEnvironment:
    def test_contexts_per_slice(self):
        env = make_env(n_a=1, n_b=2)
        contexts = env.observe_contexts()
        assert len(contexts) == 2
        assert contexts[0].n_users == 1
        assert contexts[1].n_users == 2

    def test_step_returns_observation_per_slice(self):
        env = make_env()
        observations = env.step([
            ControlPolicy(1.0, 0.5, 1.0, 1.0),
            ControlPolicy(1.0, 0.4, 1.0, 1.0),
        ])
        assert len(observations) == 2
        for obs in observations:
            assert np.isfinite(obs.delay_s)
            assert obs.total_rate_hz > 0

    def test_airtime_admission_control(self):
        """Oversubscribed budgets are scaled back proportionally."""
        env = make_env()
        airtimes = env._normalised_airtimes([
            ControlPolicy(1.0, 1.0, 1.0, 1.0),
            ControlPolicy(1.0, 1.0, 1.0, 1.0),
        ])
        assert sum(airtimes) == pytest.approx(1.0)

    def test_under_subscription_untouched(self):
        env = make_env()
        airtimes = env._normalised_airtimes([
            ControlPolicy(1.0, 0.3, 1.0, 1.0),
            ControlPolicy(1.0, 0.4, 1.0, 1.0),
        ])
        assert airtimes == [0.3, 0.4]

    def test_gpu_contention_raises_delay(self):
        """A busy second slice slows the first slice's GPU responses."""
        quiet = make_env(n_a=1, n_b=1)
        alone = quiet.step([
            ControlPolicy(1.0, 0.5, 1.0, 1.0),
            ControlPolicy(0.25, 0.1, 1.0, 1.0),   # barely loads the GPU
        ])[0]
        busy = make_env(n_a=1, n_b=3).step([
            ControlPolicy(1.0, 0.5, 1.0, 1.0),
            ControlPolicy(0.25, 0.5, 1.0, 1.0),   # floods the GPU
        ])[0]
        assert busy.gpu_delay_s > alone.gpu_delay_s

    def test_policy_count_validated(self):
        env = make_env()
        with pytest.raises(ValueError):
            env.step([ControlPolicy(1.0, 0.5, 1.0, 1.0)])

    def test_empty_slices_rejected(self):
        with pytest.raises(ValueError):
            MultiServiceEnvironment(slices=[])

    def test_unserved_slice_reports_inf(self):
        env = make_env()
        observations = env.step([
            ControlPolicy(1.0, 0.0, 1.0, 1.0),
            ControlPolicy(1.0, 0.5, 1.0, 1.0),
        ])
        assert observations[0].delay_s == float("inf")


class TestPerSliceEdgeBOL:
    def test_both_slices_learn_and_stay_feasible(self):
        setting = MultiServiceSetting(n_periods=60, n_levels=5)
        ar_log, sv_log = run_per_slice_edgebol(setting, seed=0)
        rows = summary(ar_log, sv_log)
        for row in rows:
            assert row["delay_violation_rate"] < 0.25
            assert row["map_violation_rate"] < 0.15
        # The lax surveillance slice finds a cheaper operating point.
        sv = rows[1]
        assert sv["final_cost"] < sv["initial_cost"] * 1.05

