"""Tests for repro.ran.phy (link-adaptation tables)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ran import phy


class TestSnrToCqi:
    def test_range_clipping(self):
        assert phy.snr_to_cqi(-100.0) == 1
        assert phy.snr_to_cqi(100.0) == 15

    def test_monotone(self):
        cqis = [phy.snr_to_cqi(snr) for snr in np.linspace(-10, 40, 101)]
        assert all(b >= a for a, b in zip(cqis, cqis[1:]))

    def test_good_channel_reaches_top_cqi(self):
        assert phy.snr_to_cqi(35.0) == 15

    def test_known_midpoint(self):
        # CQI ~= 0.5 * SNR + 4.5 -> SNR 10 dB gives CQI 9.
        assert phy.snr_to_cqi(10.0) == 9


class TestCqiToMcs:
    def test_bounds(self):
        with pytest.raises(ValueError):
            phy.cqi_to_max_mcs(0)
        with pytest.raises(ValueError):
            phy.cqi_to_max_mcs(16)

    def test_monotone_in_cqi(self):
        mcs = [phy.cqi_to_max_mcs(c) for c in range(1, 16)]
        assert all(b >= a for a, b in zip(mcs, mcs[1:]))

    def test_efficiency_never_exceeds_cqi(self):
        for cqi in range(1, 16):
            mcs = phy.cqi_to_max_mcs(cqi)
            cqi_eff = phy._CQI_EFFICIENCY[cqi - 1]
            assert phy.mcs_efficiency(mcs) <= cqi_eff + 1e-9


class TestMcsTables:
    def test_efficiency_monotone(self):
        effs = [phy.mcs_efficiency(m) for m in range(phy.MAX_MCS + 1)]
        assert all(b > a for a, b in zip(effs, effs[1:]))

    def test_efficiency_span(self):
        assert phy.mcs_efficiency(0) == pytest.approx(0.152, abs=0.01)
        assert phy.mcs_efficiency(phy.MAX_MCS) == pytest.approx(5.55, abs=0.05)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            phy.mcs_efficiency(-1)
        with pytest.raises(ValueError):
            phy.mcs_efficiency(phy.MAX_MCS + 1)


class TestMcsFromFraction:
    def test_endpoints(self):
        assert phy.mcs_from_fraction(0.0) == 0
        assert phy.mcs_from_fraction(1.0) == phy.MAX_MCS

    def test_invalid(self):
        with pytest.raises(ValueError):
            phy.mcs_from_fraction(1.5)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_property_in_range(self, fraction):
        mcs = phy.mcs_from_fraction(fraction)
        assert 0 <= mcs <= phy.MAX_MCS


class TestUplinkCapacity:
    def test_scales_linearly_with_airtime(self):
        full = phy.uplink_capacity_bps(20, 1.0)
        half = phy.uplink_capacity_bps(20, 0.5)
        assert half == pytest.approx(full / 2)

    def test_scales_with_bandwidth(self):
        r20 = phy.uplink_capacity_bps(20, 1.0, bandwidth_mhz=20.0)
        r10 = phy.uplink_capacity_bps(20, 1.0, bandwidth_mhz=10.0)
        assert r20 == pytest.approx(2 * r10)

    def test_nominal_peak_rate_about_75mbps(self):
        # 64QAM r~0.93 at 100 PRB: ~74 Mb/s nominal on 20 MHz.
        peak = phy.uplink_capacity_bps(phy.MAX_MCS, 1.0)
        assert 6.5e7 < peak < 8.5e7

    def test_mac_efficiency_scales(self):
        nominal = phy.uplink_capacity_bps(10, 1.0)
        effective = phy.uplink_capacity_bps(10, 1.0, mac_efficiency=0.2)
        assert effective == pytest.approx(0.2 * nominal)

    def test_zero_airtime_zero_rate(self):
        assert phy.uplink_capacity_bps(10, 0.0) == 0.0

    def test_invalid_mac_efficiency(self):
        with pytest.raises(ValueError):
            phy.uplink_capacity_bps(10, 1.0, mac_efficiency=0.0)


class TestEffectiveMcs:
    def test_policy_caps(self):
        assert phy.effective_mcs(5, snr_db=35.0) == 5

    def test_channel_caps(self):
        low_snr_mcs = phy.effective_mcs(phy.MAX_MCS, snr_db=5.0)
        assert low_snr_mcs < phy.MAX_MCS

    def test_good_channel_allows_policy(self):
        assert phy.effective_mcs(27, snr_db=35.0) == 27

    @given(
        st.integers(0, phy.MAX_MCS),
        st.floats(min_value=-10, max_value=45, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_never_exceeds_policy(self, policy_mcs, snr):
        assert phy.effective_mcs(policy_mcs, snr) <= policy_mcs
