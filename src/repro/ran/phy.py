"""LTE physical-layer abstraction.

Implements the link-adaptation tables the MAC scheduler relies on:

* ``snr_to_cqi``    -- wideband SNR to Channel Quality Indicator (1..15),
  using the common affine approximation of the 10% BLER thresholds.
* ``cqi_to_max_mcs`` -- highest MCS whose spectral efficiency does not
  exceed the CQI's (3GPP TS 36.213 Table 7.2.3-1 efficiencies).
* ``mcs_efficiency`` -- spectral efficiency in bits per resource element
  for MCS 0..28 (QPSK/16QAM/64QAM ladder).
* ``uplink_capacity_bps`` -- achievable PUSCH rate for a bandwidth,
  airtime share and MCS, including a MAC-efficiency factor that folds in
  grant, HARQ and DMRS overheads of the real srsRAN stack.

The testbed in the paper is SISO LTE at 20 MHz (100 PRB).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_fraction, check_positive

#: Highest MCS index supported (3GPP 36.213, 64QAM uplink enabled).
MAX_MCS = 28

#: Spectral efficiency (bits per resource element) per CQI, 3GPP TS
#: 36.213 Table 7.2.3-1.  Index 0 corresponds to CQI 1.
_CQI_EFFICIENCY = np.array(
    [
        0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.9141,
        2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547,
    ]
)

#: Modulation order Qm per MCS index (QPSK=2, 16QAM=4, 64QAM=6), PUSCH
#: ladder with 64QAM enabled.
_MCS_QM = np.array([2] * 11 + [4] * 10 + [6] * 8)

#: Approximate effective code rate per MCS index.  Chosen so that
#: ``Qm * rate`` spans the CQI efficiency range monotonically, matching
#: the 36.213 transport-block tables to within a few percent.
_MCS_RATE = np.array(
    [
        0.076, 0.097, 0.117, 0.153, 0.188, 0.234, 0.293, 0.369,
        0.424, 0.478, 0.588, 0.369, 0.424, 0.478, 0.540, 0.602,
        0.643, 0.683, 0.755, 0.826, 0.878, 0.588, 0.628, 0.671,
        0.711, 0.754, 0.803, 0.853, 0.926,
    ]
)

if len(_MCS_QM) != MAX_MCS + 1 or len(_MCS_RATE) != MAX_MCS + 1:  # pragma: no cover
    raise AssertionError("MCS tables must cover indices 0..MAX_MCS")

#: Spectral efficiency (bits/RE) per MCS index.
_MCS_EFFICIENCY = _MCS_QM * _MCS_RATE

#: Data resource elements per PRB pair per subframe after DMRS/control
#: overhead (12 subcarriers x 14 symbols = 168 REs, ~20% overhead).
_DATA_RE_PER_PRB = 134.0

#: PRBs per MHz of LTE bandwidth (100 PRB at 20 MHz).
_PRB_PER_MHZ = 5.0

#: Subframes per second.
_SUBFRAMES_PER_S = 1000.0


def snr_to_cqi(snr_db: float) -> int:
    """Map wideband uplink SNR (dB) to a CQI index in 1..15.

    Uses the widely adopted affine fit of the 10%-BLER SINR thresholds
    (e.g. the mapping used by ns-3 and srsRAN's default reporting):
    ``CQI ~= 0.5 * SNR + 4.5``, clipped to the valid range.
    """
    cqi = int(np.floor(0.5 * float(snr_db) + 4.5))
    return int(np.clip(cqi, 1, 15))


def cqi_to_max_mcs(cqi: int) -> int:
    """Highest MCS whose spectral efficiency fits within the CQI's.

    This is the standard inner-loop link-adaptation rule: transmit with
    the largest MCS that the reported channel quality supports.
    """
    if not 1 <= cqi <= 15:
        raise ValueError(f"CQI must be in 1..15, got {cqi}")
    target = _CQI_EFFICIENCY[cqi - 1]
    eligible = np.nonzero(_MCS_EFFICIENCY <= target + 1e-12)[0]
    if eligible.size == 0:
        return 0
    return int(eligible[-1])


def mcs_efficiency(mcs: int) -> float:
    """Spectral efficiency (bits per resource element) of ``mcs``."""
    if not 0 <= mcs <= MAX_MCS:
        raise ValueError(f"MCS must be in 0..{MAX_MCS}, got {mcs}")
    return float(_MCS_EFFICIENCY[mcs])


def mcs_from_fraction(fraction: float) -> int:
    """Map a normalised policy level in [0, 1] to an MCS cap.

    The EdgeBOL control space is normalised; level 0 maps to MCS 0 and
    level 1 to :data:`MAX_MCS`.
    """
    check_fraction(fraction, "mcs fraction")
    return int(round(fraction * MAX_MCS))


def uplink_capacity_bps(
    mcs: int,
    airtime: float,
    bandwidth_mhz: float = 20.0,
    mac_efficiency: float = 1.0,
) -> float:
    """Achievable uplink rate (bits/s) for an MCS and airtime share.

    Parameters
    ----------
    mcs:
        Transport MCS actually used (already CQI-limited).
    airtime:
        Fraction of subframes granted to the slice (Policy 2).
    bandwidth_mhz:
        LTE channel bandwidth; the testbed uses 20 MHz.
    mac_efficiency:
        Multiplicative factor in (0, 1] folding in grant latency, HARQ
        retransmissions and segmentation overhead of a real stack.
    """
    if not 0 <= mcs <= MAX_MCS:
        raise ValueError(f"MCS must be in 0..{MAX_MCS}, got {mcs}")
    check_fraction(airtime, "airtime")
    check_positive(bandwidth_mhz, "bandwidth_mhz")
    if not 0 < mac_efficiency <= 1:
        raise ValueError(f"mac_efficiency must be in (0, 1], got {mac_efficiency}")
    n_prb = _PRB_PER_MHZ * bandwidth_mhz
    bits_per_subframe = _MCS_EFFICIENCY[mcs] * _DATA_RE_PER_PRB * n_prb
    return float(bits_per_subframe * _SUBFRAMES_PER_S * airtime * mac_efficiency)


def effective_mcs(policy_mcs: int, snr_db: float) -> int:
    """MCS actually used: the policy cap limited by channel quality.

    Implements the paper's Policy 4 semantics: the MAC may select any MCS
    up to the policy bound, and link adaptation further restricts it to
    what the instantaneous channel supports.
    """
    if not 0 <= policy_mcs <= MAX_MCS:
        raise ValueError(f"policy_mcs must be in 0..{MAX_MCS}, got {policy_mcs}")
    channel_mcs = cqi_to_max_mcs(snr_to_cqi(snr_db))
    return min(policy_mcs, channel_mcs)
