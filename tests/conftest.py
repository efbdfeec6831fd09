"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.core import posterior
from repro.oran.bus import AsyncMessageBus
from repro.testbed.config import (
    ControlPolicy,
    CostWeights,
    ServiceConstraints,
    TestbedConfig,
)
from repro.testbed.scenarios import static_scenario


@pytest.fixture
def testbed_config() -> TestbedConfig:
    """Default calibrated deployment."""
    return TestbedConfig()


@pytest.fixture
def coarse_config() -> TestbedConfig:
    """Coarse control grid for fast learning tests (5^4 = 625 points)."""
    return TestbedConfig(n_levels=5)


@pytest.fixture
def static_env(testbed_config):
    """Good-channel single-user environment, seeded."""
    return static_scenario(mean_snr_db=35.0, rng=0, config=testbed_config)


@pytest.fixture
def max_policy() -> ControlPolicy:
    return ControlPolicy.max_resources()


@pytest.fixture
def medium_constraints() -> ServiceConstraints:
    return ServiceConstraints(d_max_s=0.4, rho_min=0.5)


@pytest.fixture
def unit_weights() -> CostWeights:
    return CostWeights(delta1=1.0, delta2=1.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def new_bus():
    """Make :class:`AsyncMessageBus` instances, closed at teardown."""
    buses = []

    def make(**kwargs) -> AsyncMessageBus:
        bus = AsyncMessageBus(**kwargs)
        buses.append(bus)
        return bus

    yield make
    for bus in buses:
        bus.close()


@pytest.fixture
def lane_jobs(monkeypatch):
    """Posterior sweeps may take two lanes, at the module's thresholds.

    The process counts as having two CPUs.  Yields the list of jobs
    handed to the worker lane (each a list of ``(index, task)`` pairs);
    the worker thread is stopped at teardown.
    """
    monkeypatch.setattr(posterior, "_cpus", lambda: 2)
    jobs = []
    submit = posterior._Worker.submit

    def recorded(self, tasks, results):
        jobs.append(tasks)
        return submit(self, tasks, results)

    monkeypatch.setattr(posterior._Worker, "submit", recorded)
    yield jobs
    if posterior._worker is not None:
        posterior._worker.stop()
        posterior._worker = None


@pytest.fixture
def two_lanes(monkeypatch, lane_jobs):
    """Every posterior sweep with new rows runs on two lanes, whatever
    its size; yields :func:`lane_jobs`' list of worker jobs."""
    monkeypatch.setattr(posterior, "_LANE_ELEMENTS", 0)
    return lane_jobs
