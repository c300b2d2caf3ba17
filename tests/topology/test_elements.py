"""Tests for data-plane elements (base stations, links, compute units)."""

import copy
import pickle
from dataclasses import replace

import pytest

from repro.topology.elements import (
    BaseStation,
    PRBS_PER_MHZ,
    ComputeUnit,
    ComputeUnitKind,
    LinkTechnology,
    TransportLink,
)


class TestBaseStation:
    def test_capacity_mbps_ideal_lte(self):
        bs = BaseStation(name="bs", capacity_mhz=20.0)
        # 20 MHz at 7.5 Mb/s per MHz reproduces the paper's 150 Mb/s cell.
        assert bs.capacity_mbps == pytest.approx(150.0)

    def test_capacity_prbs(self):
        bs = BaseStation(name="bs", capacity_mhz=20.0)
        assert bs.capacity_prbs == pytest.approx(100.0)

    def test_mhz_for_bitrate_matches_eta(self):
        bs = BaseStation(name="bs", capacity_mhz=20.0)
        # eta_b = 20 / 150 MHz per Mb/s.
        assert bs.mhz_for_bitrate(150.0) == pytest.approx(20.0)
        assert bs.mhz_for_bitrate(1.0) == pytest.approx(20.0 / 150.0)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            BaseStation(name="bs", capacity_mhz=0.0)

    def test_rejects_negative_bitrate(self):
        bs = BaseStation(name="bs", capacity_mhz=20.0)
        with pytest.raises(ValueError):
            bs.mhz_for_bitrate(-1.0)


class TestBaseStationRadioModel:
    """The base station is the only radio model: eta_b of constraint (4)
    comes from its spectral efficiency, PRBs from the LTE numerology."""

    def test_prbs_per_mhz_is_the_lte_numerology(self):
        assert PRBS_PER_MHZ == 5.0
        bs = BaseStation(name="bs", capacity_mhz=20.0)
        assert bs.capacity_prbs == 20.0 * PRBS_PER_MHZ

    @pytest.mark.parametrize("efficiency", [3.75, 5.0, 7.5])
    def test_full_capacity_needs_the_whole_carrier(self, efficiency):
        bs = BaseStation(
            name="bs", capacity_mhz=20.0, spectral_efficiency_mbps_per_mhz=efficiency
        )
        assert bs.capacity_mbps == pytest.approx(20.0 * efficiency)
        assert bs.mhz_for_bitrate(bs.capacity_mbps) == pytest.approx(bs.capacity_mhz)

    def test_lower_spectral_efficiency_needs_more_spectrum(self):
        ideal = BaseStation(name="bs", capacity_mhz=20.0)
        degraded = BaseStation(
            name="bs", capacity_mhz=20.0, spectral_efficiency_mbps_per_mhz=3.75
        )
        # Half the efficiency: the carrier holds half the traffic and every
        # Mb/s needs twice the spectrum.
        assert degraded.capacity_mbps == pytest.approx(ideal.capacity_mbps / 2)
        assert degraded.mhz_for_bitrate(75.0) == pytest.approx(20.0)
        assert degraded.mhz_for_bitrate(75.0) == pytest.approx(2 * ideal.mhz_for_bitrate(75.0))
        # The carrier size in PRBs does not depend on the channel.
        assert degraded.capacity_prbs == ideal.capacity_prbs

    def test_zero_bitrate_needs_no_spectrum(self):
        assert BaseStation(name="bs", capacity_mhz=20.0).mhz_for_bitrate(0.0) == 0.0

    @pytest.mark.parametrize("efficiency", [0.0, -7.5])
    def test_rejects_non_positive_spectral_efficiency(self, efficiency):
        with pytest.raises(ValueError, match="spectral_efficiency_mbps_per_mhz"):
            BaseStation(
                name="bs", capacity_mhz=20.0, spectral_efficiency_mbps_per_mhz=efficiency
            )


class TestComputeUnit:
    def test_defaults(self):
        cu = ComputeUnit(name="edge", capacity_cpus=16.0)
        assert cu.kind is ComputeUnitKind.EDGE
        assert cu.access_latency_ms == 0.0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ComputeUnit(name="edge", capacity_cpus=0.0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            ComputeUnit(name="core", capacity_cpus=10.0, access_latency_ms=-1.0)


class TestTransportLink:
    def test_key_is_canonical(self):
        link = TransportLink(endpoint_a="b", endpoint_b="a", capacity_mbps=100.0)
        assert link.key == ("a", "b")

    def test_key_is_built_once_and_changes_no_value_semantics(self):
        def link():
            return TransportLink(
                endpoint_a="z", endpoint_b="a", capacity_mbps=100.0, overhead=1.05
            )

        untouched, read = link(), link()
        assert read.key is read.key == ("a", "z")  # one tuple, cached
        assert read == untouched and hash(read) == hash(untouched)
        assert repr(read) == repr(untouched)
        assert "key" not in repr(read)
        for original in (read, untouched):
            for revived in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
                assert revived == original and hash(revived) == hash(original)
                assert revived.key == ("a", "z")
        assert replace(read, endpoint_b="y").key == ("y", "z")  # no stale key

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            TransportLink(endpoint_a="a", endpoint_b="a", capacity_mbps=100.0)

    def test_overhead_below_one_rejected(self):
        with pytest.raises(ValueError):
            TransportLink(endpoint_a="a", endpoint_b="b", capacity_mbps=100.0, overhead=0.9)

    def test_propagation_delay_by_technology(self):
        assert LinkTechnology.FIBER.propagation_us_per_km == 4.0
        assert LinkTechnology.COPPER.propagation_us_per_km == 4.0
        assert LinkTechnology.WIRELESS.propagation_us_per_km == 5.0
