"""Testbed calibration constants and the joint control space.

Every free parameter of the simulated prototype lives here so a single
object describes one "hardware deployment".  The defaults are calibrated
against the measurement ranges reported in Section 3 of the paper
(DESIGN.md documents each fit); constructing a :class:`TestbedConfig`
with different values models a different deployment (e.g. a more
efficient GPU or a wider radio channel), which the paper explicitly
motivates as the reason learning is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.ran.mac import RadioPolicy
from repro.ran.phy import mcs_from_fraction
from repro.utils.grids import cartesian_grid, linear_levels
from repro.utils.validation import check_fraction, check_non_negative, check_positive


@dataclass(frozen=True)
class ControlPolicy:
    """The joint control vector x = (eta, a, gamma, m), normalised.

    All four coordinates live in [0, 1]:

    * ``resolution``  -- Policy 1, mean image resolution (1.0 = 640x480).
    * ``airtime``     -- Policy 2, uplink duty-cycle budget.
    * ``gpu_speed``   -- Policy 3, normalised GPU power-limit level.
    * ``mcs_fraction``-- Policy 4, normalised maximum-MCS level.
    """

    resolution: float
    airtime: float
    gpu_speed: float
    mcs_fraction: float

    def __post_init__(self) -> None:
        check_fraction(self.resolution, "resolution")
        check_fraction(self.airtime, "airtime")
        check_fraction(self.gpu_speed, "gpu_speed")
        check_fraction(self.mcs_fraction, "mcs_fraction")

    def to_array(self) -> np.ndarray:
        """Control as a 4-vector (resolution, airtime, gpu, mcs)."""
        return np.array(
            [self.resolution, self.airtime, self.gpu_speed, self.mcs_fraction]
        )

    @classmethod
    def from_array(cls, values) -> "ControlPolicy":
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size != 4:
            raise ValueError(f"control vector must have 4 entries, got {arr.size}")
        return cls(
            resolution=float(arr[0]),
            airtime=float(arr[1]),
            gpu_speed=float(arr[2]),
            mcs_fraction=float(arr[3]),
        )

    def radio_policy(self) -> RadioPolicy:
        """Physical radio policies for the MAC scheduler."""
        return RadioPolicy(
            airtime=self.airtime, max_mcs=mcs_from_fraction(self.mcs_fraction)
        )

    @classmethod
    def max_resources(cls) -> "ControlPolicy":
        """The always-safe corner S0: every knob at maximum.

        Highest mAP (full resolution), lowest delay achievable with
        full resolution, and consequently the highest power draw.
        """
        return cls(resolution=1.0, airtime=1.0, gpu_speed=1.0, mcs_fraction=1.0)


@dataclass(frozen=True)
class CostWeights:
    """Monetary weights of eq. (1): ``u = delta1 * p_s + delta2 * p_b``."""

    delta1: float = 1.0
    delta2: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative(self.delta1, "delta1")
        check_non_negative(self.delta2, "delta2")

    def cost(self, server_power_w: float, bs_power_w: float) -> float:
        """Evaluate the cost function on a pair of power readings."""
        return float(self.delta1 * server_power_w + self.delta2 * bs_power_w)


@dataclass(frozen=True)
class ServiceConstraints:
    """The service-level constraints of problem (2).

    ``d_max_s`` upper-bounds the worst-user service delay; ``rho_min``
    lower-bounds the worst-user mAP.
    """

    d_max_s: float = 0.4
    rho_min: float = 0.5

    def __post_init__(self) -> None:
        check_positive(self.d_max_s, "d_max_s")
        check_fraction(self.rho_min, "rho_min")

    def satisfied(self, delay_s: float, map_score: float) -> bool:
        """Whether a KPI pair meets both constraints."""
        return delay_s <= self.d_max_s and map_score >= self.rho_min


@dataclass(frozen=True)
class TestbedConfig:
    """One simulated deployment of the Fig. 8 prototype.

    Attributes mirror hardware properties; see DESIGN.md for the
    calibration of each default against the paper's measurements.
    """

    #: Not a pytest test class, despite the ``Test`` prefix.
    __test__ = False

    # Radio
    bandwidth_mhz: float = 20.0
    #: End-to-end fraction of the nominal PHY rate a single closed-loop
    #: UE achieves through the real stack (grants, HARQ, segmentation).
    #: Calibrated so full-airtime top-MCS goodput is ~15 Mb/s.
    mac_efficiency: float = 0.21
    bs_idle_power_w: float = 4.2
    bs_base_busy_power_w: float = 6.0
    bs_mcs_busy_power_w: float = 0.16
    bs_grant_utilization: float = 0.5

    # Edge server / GPU
    gpu_min_power_cap_w: float = 100.0
    gpu_max_power_cap_w: float = 280.0
    gpu_idle_power_w: float = 18.0
    gpu_speed_exponent: float = 0.6
    gpu_base_inference_time_s: float = 0.090
    gpu_resolution_ease_s: float = 0.06
    gpu_busy_draw_fraction: float = 0.72
    host_idle_power_w: float = 48.0
    host_per_request_j: float = 1.2

    # Service / workload
    images_per_measurement: int = 150
    load_multiplier: float = 1.0

    # Control space discretisation (the paper uses 11 levels per axis).
    n_levels: int = 11
    min_resolution: float = 0.25
    min_airtime: float = 0.1

    # Observation noise (relative for delay/power, absolute for mAP).
    delay_noise_rel: float = 0.05
    power_noise_rel: float = 0.02

    # Context space normalisation bounds.
    max_users: int = 8

    def __post_init__(self) -> None:
        check_positive(self.bandwidth_mhz, "bandwidth_mhz")
        if not 0 < self.mac_efficiency <= 1:
            raise ValueError("mac_efficiency must be in (0, 1]")
        if self.n_levels < 2:
            raise ValueError("n_levels must be >= 2")
        check_fraction(self.min_resolution, "min_resolution")
        check_fraction(self.min_airtime, "min_airtime")
        if self.images_per_measurement < 1:
            raise ValueError("images_per_measurement must be >= 1")
        check_positive(self.load_multiplier, "load_multiplier")
        check_non_negative(self.delay_noise_rel, "delay_noise_rel")
        check_non_negative(self.power_noise_rel, "power_noise_rel")
        if self.max_users < 1:
            raise ValueError("max_users must be >= 1")

    def with_load_multiplier(self, multiplier: float) -> "TestbedConfig":
        """Copy of this deployment with emulated background load."""
        return replace(self, load_multiplier=multiplier)

    def control_grid(self) -> np.ndarray:
        """The discretised control space X as an (|X|, 4) array.

        Axis order matches :meth:`ControlPolicy.to_array`.  With the
        default 11 levels per axis, |X| = 14641 as in the paper.
        """
        return default_control_grid(
            n_levels=self.n_levels,
            min_resolution=self.min_resolution,
            min_airtime=self.min_airtime,
        )


def default_control_grid(
    n_levels: int = 11,
    min_resolution: float = 0.25,
    min_airtime: float = 0.1,
) -> np.ndarray:
    """Build the (resolution, airtime, gpu_speed, mcs) control grid.

    Resolution and airtime axes start at their physical minima (the
    paper sweeps resolutions from 25%); GPU speed and MCS cover [0, 1].
    """
    resolution_axis = linear_levels(n_levels, min_resolution, 1.0)
    airtime_axis = linear_levels(n_levels, min_airtime, 1.0)
    gpu_axis = linear_levels(n_levels, 0.0, 1.0)
    mcs_axis = linear_levels(n_levels, 0.0, 1.0)
    return cartesian_grid(resolution_axis, airtime_axis, gpu_axis, mcs_axis)
