"""Radio access network substrate.

Models the srsRAN-based virtualized LTE base station of the EdgeBOL
testbed: SNR -> CQI -> MCS link adaptation, a round-robin MAC scheduler
that honours the airtime and maximum-MCS policies (Policies 2 and 4 of
the paper), and a baseband power model reproducing the regimes measured
in Figs. 5-6.
"""

from repro.ran.channel import GaussMarkovChannel, SnrTrace, constant_trace
from repro.ran.mac import RadioPolicy, RoundRobinScheduler, UserAllocation
from repro.ran.phy import (
    MAX_MCS,
    cqi_to_max_mcs,
    mcs_efficiency,
    mcs_from_fraction,
    snr_to_cqi,
    uplink_capacity_bps,
)
from repro.ran.power import BSPowerModel
from repro.ran.traffic import DiurnalTraffic, OnOffTraffic, PoissonTraffic
from repro.ran.vbs import UplinkGrantResult, VirtualizedBS

__all__ = [
    "GaussMarkovChannel",
    "SnrTrace",
    "constant_trace",
    "RadioPolicy",
    "RoundRobinScheduler",
    "UserAllocation",
    "MAX_MCS",
    "cqi_to_max_mcs",
    "mcs_efficiency",
    "mcs_from_fraction",
    "snr_to_cqi",
    "uplink_capacity_bps",
    "BSPowerModel",
    "DiurnalTraffic",
    "OnOffTraffic",
    "PoissonTraffic",
    "UplinkGrantResult",
    "VirtualizedBS",
]
