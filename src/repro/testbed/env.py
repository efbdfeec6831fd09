"""The contextual-bandit environment (the whole Fig. 8 prototype).

Per orchestration period (seconds-level, the non-RT RIC timescale):

1. the agent observes the context ``c_t`` (user count + CQI statistics),
2. the agent applies a joint control ``x_t`` (Policies 1-4),
3. the environment solves the closed-loop steady state and returns the
   four noisy performance indicators: service delay, mAP, server power,
   BS power,
4. the wireless channels evolve to the next period.

The environment also exposes a noise-free :meth:`evaluate` used by the
offline exhaustive-search oracle of the paper's evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.faults import make_injector
from repro.service.detection import SyntheticDetector
from repro.service.images import SyntheticCocoDataset
from repro.service.pipeline import ServiceModel, UserEquipment
from repro.service.profiles import expected_map, map_observation_std
from repro.telemetry import runtime as telemetry
from repro.testbed.config import ControlPolicy, TestbedConfig
from repro.testbed.context import Context
from repro.testbed.powermeter import ObservationNoise, PowerMeter
from repro.utils.rng import ensure_rng, spawn_rngs


@dataclass(frozen=True)
class TestbedObservation:
    """One period's KPIs (Performance Indicators 1-4 plus extras).

    ``delay_s`` is the worst-user service delay and ``map_score`` the
    worst-user mAP, matching the constraint definitions of problem (2).

    Attributes
    ----------
    delay_s:
        Worst-user capture-to-response service delay, seconds (PI 1,
        the left side of the ``d(c, x) <= d_max`` constraint in
        problem 2).
    map_score:
        Worst-user detection accuracy, mAP in [0, 1] (PI 2, the
        ``rho(c, x) >= rho_min`` constraint in problem 2).
    server_power_w:
        Edge-server power draw, watts (PI 3, the ``p_s`` term of the
        eq. 1 cost).
    bs_power_w:
        Base-station baseband power draw, watts (PI 4, the ``p_b``
        term of the eq. 1 cost).
    gpu_delay_s:
        Worst-user GPU residence time (queueing + inference), seconds.
    gpu_utilization:
        GPU busy fraction in [0, 1].
    total_rate_hz:
        Aggregate served frame rate, frames/second.
    mean_mcs:
        Mean transport MCS index actually used across users
        (dimensionless, 0..24).
    offered_load_bps:
        Uplink load offered to the BS, bits/second.
    per_user_delay_s:
        Per-user service delays, seconds (``inf`` for starved users).
    per_user_rate_hz:
        Per-user served frame rates, frames/second.
    """

    #: Not a pytest test class, despite the ``Test`` prefix.
    __test__ = False

    delay_s: float
    map_score: float
    server_power_w: float
    bs_power_w: float
    gpu_delay_s: float
    gpu_utilization: float
    total_rate_hz: float
    mean_mcs: float
    offered_load_bps: float
    per_user_delay_s: tuple[float, ...]
    per_user_rate_hz: tuple[float, ...]


class EdgeAIEnvironment:
    """Simulated EdgeBOL testbed.

    Parameters
    ----------
    channels:
        One channel process per user; anything with a ``step() -> float``
        method returning an SNR in dB (see :mod:`repro.ran.channel`).
    config:
        Deployment calibration.
    rng:
        Seed or generator for all measurement noise.
    map_mode:
        ``"profile"`` (default) observes mAP as the closed-form expected
        value plus calibrated batch noise — fast, used for long learning
        runs.  ``"detector"`` runs the full synthetic-detector pipeline
        on a fresh batch of COCO-like frames each period.
    """

    def __init__(
        self,
        channels: Sequence,
        config: TestbedConfig | None = None,
        rng=None,
        map_mode: str = "profile",
    ) -> None:
        if not channels:
            raise ValueError("at least one user channel is required")
        if map_mode not in ("profile", "detector"):
            raise ValueError(f"map_mode must be 'profile' or 'detector', got {map_mode!r}")
        self.config = config if config is not None else TestbedConfig()
        if len(channels) > self.config.max_users:
            raise ValueError(
                f"{len(channels)} channels exceed config.max_users="
                f"{self.config.max_users}"
            )
        self.channels = list(channels)
        self.map_mode = map_mode

        noise_rng, meter_rng, detector_rng, dataset_rng = spawn_rngs(ensure_rng(rng), 4)
        cfg = self.config
        self._service = ServiceModel.from_config(cfg)
        self._vbs = self._service.vbs
        self._server = self._service.server
        self._noise = ObservationNoise(
            delay_noise_rel=cfg.delay_noise_rel,
            map_noise_std=map_observation_std(cfg.images_per_measurement),
            rng=noise_rng,
        )
        self._meter = PowerMeter(noise_rel=cfg.power_noise_rel, rng=meter_rng)
        self._detector = SyntheticDetector(rng=detector_rng)
        self._dataset = SyntheticCocoDataset(rng=dataset_rng)
        # Sensor fault injection (docs/ROBUSTNESS.md): None unless a
        # fault plan with `sensor` specs is installed; faulted readings
        # replace the *noisy* KPI samples the agent would have seen.
        self._sensor_faults = make_injector("sensor")
        self._current_snrs = [float(ch.step()) for ch in self.channels]

    @property
    def n_users(self) -> int:
        return len(self.channels)

    @property
    def current_snrs_db(self) -> list[float]:
        """SNRs in effect for the upcoming period."""
        return list(self._current_snrs)

    @property
    def service_model(self) -> ServiceModel:
        """The underlying deterministic service model."""
        return self._service

    def set_load_multiplier(self, multiplier: float) -> None:
        """Scale the slice's offered load for subsequent periods.

        The fleet load harness (:mod:`repro.oran.load`) drives this
        per period to emulate diurnal traces, flash crowds and
        correlated cell load; the multiplier applies inside the BS
        power model exactly like ``TestbedConfig.load_multiplier``.
        """
        if multiplier <= 0:
            raise ValueError(
                f"load multiplier must be positive, got {multiplier}"
            )
        self._service.load_multiplier = float(multiplier)

    def observe_context(self) -> Context:
        """Context the agent sees at the start of the period."""
        return Context.from_snrs(self._current_snrs)

    def evaluate(
        self,
        policy: ControlPolicy,
        snrs_db: Sequence[float] | None = None,
        noisy: bool = False,
    ) -> TestbedObservation:
        """KPIs for a control at given (default: current) channel states.

        With ``noisy=False`` this is the oracle view: deterministic
        steady-state metrics and the expected mAP.
        """
        snrs = list(self._current_snrs if snrs_db is None else snrs_db)
        users = [UserEquipment(snr_db=s) for s in snrs]
        state = self._service.steady_state(
            resolution=policy.resolution,
            radio_policy=policy.radio_policy(),
            gpu_speed=policy.gpu_speed,
            users=users,
        )
        true_map = self._true_map(policy.resolution, noisy=noisy)

        delay = state.max_delay_s
        server_power = state.server.server_power_w
        bs_power = state.bs_power_w
        map_score = true_map
        if noisy:
            delay = self._noise.noisy_delay(delay)
            server_power = self._meter.read(server_power)
            bs_power = self._meter.read(bs_power)
            if self.map_mode == "profile":
                map_score = self._noise.noisy_map(true_map)
            if self._sensor_faults is not None:
                corrupt = self._sensor_faults.corrupt_reading
                server_power = corrupt("server_power", server_power)
                bs_power = corrupt("bs_power", bs_power)
                delay = corrupt("delay", delay)
                map_score = corrupt("map", map_score)
        gpu_delays = state.per_user_gpu_delay_s
        finite_gpu = gpu_delays[np.isfinite(gpu_delays)]
        gpu_delay = float(finite_gpu.max()) if finite_gpu.size else float("inf")
        return TestbedObservation(
            delay_s=float(delay),
            map_score=float(map_score),
            server_power_w=float(server_power),
            bs_power_w=float(bs_power),
            gpu_delay_s=gpu_delay,
            gpu_utilization=state.server.gpu_utilization,
            total_rate_hz=state.total_rate_hz,
            mean_mcs=state.mean_mcs,
            offered_load_bps=state.offered_load_bps,
            per_user_delay_s=tuple(float(d) for d in state.per_user_delay_s),
            per_user_rate_hz=tuple(float(r) for r in state.per_user_rate_hz),
        )

    def _true_map(self, resolution: float, noisy: bool) -> float:
        """mAP for the period, per the configured measurement mode."""
        if noisy and self.map_mode == "detector":
            batch = self._dataset.sample_batch(self.config.images_per_measurement)
            return float(self._detector.measure_map(batch, resolution))
        return expected_map(resolution)

    def step(self, policy: ControlPolicy) -> TestbedObservation:
        """Apply ``policy`` for one period, then advance the channels.

        Returns the noisy KPI vector the agent learns from (seconds,
        mAP, watts — see :class:`TestbedObservation`); recorded as the
        ``env.step`` telemetry span with the solver spans
        (``queueing.solve``) nested beneath it.
        """
        with telemetry.span("env.step") as sp:
            observation = self.evaluate(policy, noisy=True)
            self._current_snrs = [float(ch.step()) for ch in self.channels]
            if sp:
                sp.set("users", len(self.channels))
                sp.set("delay_s", observation.delay_s)
                sp.set("server_power_w", observation.server_power_w)
            return observation
