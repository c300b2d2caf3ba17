"""Tests for RAN-slicing (PRB share) enforcement."""

import pytest

from repro.radio.ran_sharing import RadioShare, RanSlicingEnforcer
from repro.topology.elements import PRBS_PER_MHZ, BaseStation


@pytest.fixture
def enforcer():
    # 20 MHz at 7.5 Mb/s/MHz: 100 PRBs carrying 150 Mb/s.
    return RanSlicingEnforcer(BaseStation(name="bs-0", capacity_mhz=20.0))


class TestGrants:
    def test_grant_converts_bitrate_to_prbs(self, enforcer):
        share = enforcer.grant_bitrate("slice-a", 75.0)
        assert share.prbs == pytest.approx(50.0)
        assert share.base_station == "bs-0"
        assert enforcer.allocated_prbs == pytest.approx(50.0)
        assert enforcer.free_prbs == pytest.approx(50.0)

    def test_grant_update_replaces_previous(self, enforcer):
        enforcer.grant_bitrate("slice-a", 75.0)
        enforcer.grant_bitrate("slice-a", 30.0)
        assert enforcer.allocated_prbs == pytest.approx(20.0)

    def test_over_capacity_rejected(self, enforcer):
        enforcer.grant_bitrate("slice-a", 100.0)
        with pytest.raises(ValueError, match="PRBs"):
            enforcer.grant_bitrate("slice-b", 100.0)

    def test_negative_bitrate_rejected(self, enforcer):
        with pytest.raises(ValueError, match="mbps"):
            enforcer.grant_bitrate("slice-a", -1.0)

    def test_update_can_use_own_headroom(self, enforcer):
        enforcer.grant_bitrate("slice-a", 140.0)
        # Updating the same slice to 150 Mb/s is fine (its own share is freed).
        enforcer.grant_bitrate("slice-a", 150.0)
        assert enforcer.free_prbs == pytest.approx(0.0)

    def test_revoke(self, enforcer):
        enforcer.grant_bitrate("slice-a", 75.0)
        enforcer.revoke("slice-a")
        assert enforcer.allocated_prbs == 0.0
        enforcer.revoke("slice-a")  # idempotent

    def test_shares_is_a_copy(self, enforcer):
        enforcer.grant_bitrate("slice-a", 75.0)
        enforcer.shares().clear()
        assert set(enforcer.shares()) == {"slice-a"}
        assert enforcer.allocated_prbs == pytest.approx(50.0)

    def test_negative_share_rejected(self):
        with pytest.raises(ValueError, match="prbs"):
            RadioShare(slice_name="slice-a", base_station="bs-0", prbs=-1.0)


class TestBaseStationIsTheRadioModel:
    """Capacity and conversions come from the base station being enforced."""

    def test_capacity_is_the_base_stations(self):
        station = BaseStation(name="bs-9", capacity_mhz=10.0)
        enforcer = RanSlicingEnforcer(station)
        assert enforcer.capacity_prbs == station.capacity_prbs == 10.0 * PRBS_PER_MHZ

    def test_conversion_follows_the_spectral_efficiency(self):
        station = BaseStation(
            name="bs-0", capacity_mhz=20.0, spectral_efficiency_mbps_per_mhz=5.0
        )
        enforcer = RanSlicingEnforcer(station)
        share = enforcer.grant_bitrate("slice-a", 50.0)
        assert share.prbs == pytest.approx(PRBS_PER_MHZ * station.mhz_for_bitrate(50.0))
        assert share.prbs == pytest.approx(50.0)
        assert enforcer.served_bitrate("slice-a", 80.0) == pytest.approx(50.0)
        # The whole carrier carries exactly the station's capacity_mbps.
        enforcer.grant_bitrate("slice-a", station.capacity_mbps)
        assert enforcer.free_prbs == pytest.approx(0.0)

    def test_bitrate_and_prbs_round_trip(self, enforcer):
        assert enforcer.bitrate_for_prbs(enforcer.prbs_for_bitrate(42.0)) == pytest.approx(42.0)


class TestServingTraffic:
    def test_served_clipped_to_share(self, enforcer):
        enforcer.grant_bitrate("slice-a", 50.0)
        assert enforcer.served_bitrate("slice-a", 30.0) == pytest.approx(30.0)
        assert enforcer.served_bitrate("slice-a", 80.0) == pytest.approx(50.0)

    def test_unknown_slice_serves_nothing(self, enforcer):
        assert enforcer.served_bitrate("ghost", 10.0) == 0.0

    def test_revoked_slice_serves_nothing(self, enforcer):
        enforcer.grant_bitrate("slice-a", 50.0)
        enforcer.revoke("slice-a")
        assert enforcer.served_bitrate("slice-a", 10.0) == 0.0

    def test_negative_offered_load_rejected(self, enforcer):
        enforcer.grant_bitrate("slice-a", 50.0)
        with pytest.raises(ValueError, match="offered_mbps"):
            enforcer.served_bitrate("slice-a", -1.0)

    def test_idle_slice_uses_no_prbs(self, enforcer):
        enforcer.grant_bitrate("slice-a", 50.0)
        assert enforcer.utilisation({}) == {"slice-a": 0.0}

    def test_utilisation_report(self, enforcer):
        enforcer.grant_bitrate("slice-a", 50.0)
        enforcer.grant_bitrate("slice-b", 25.0)
        usage = enforcer.utilisation({"slice-a": 50.0, "slice-b": 10.0})
        assert usage["slice-a"] == pytest.approx(enforcer.prbs_for_bitrate(50.0))
        assert usage["slice-b"] == pytest.approx(enforcer.prbs_for_bitrate(10.0))
        assert usage["slice-b"] == pytest.approx(10.0 / 7.5 * PRBS_PER_MHZ)
