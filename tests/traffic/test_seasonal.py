"""Tests for the diurnal profile and seasonal demand."""

import numpy as np
import pytest

from repro.traffic.seasonal import DEFAULT_DIURNAL_PROFILE, DiurnalProfile, SeasonalDemand


class TestDiurnalProfile:
    def test_needs_24_values(self):
        with pytest.raises(ValueError):
            DiurnalProfile(hourly_multipliers=(1.0,) * 23)

    def test_normalised_mean_is_one(self):
        profile = DiurnalProfile.normalised([2.0] * 12 + [4.0] * 12)
        assert np.mean(profile.hourly_multipliers) == pytest.approx(1.0)

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError):
            DiurnalProfile(hourly_multipliers=(-1.0,) + (1.0,) * 23)

    def test_multiplier_interpolates(self):
        profile = DiurnalProfile.normalised([1.0] * 12 + [3.0] * 12)
        at_boundary = profile.multiplier(11.5)
        assert profile.multiplier(11.0) < at_boundary < profile.multiplier(12.0)

    def test_multiplier_wraps_around(self):
        profile = DEFAULT_DIURNAL_PROFILE
        assert profile.multiplier(24.0) == pytest.approx(profile.multiplier(0.0))
        assert profile.multiplier(25.0) == pytest.approx(profile.multiplier(1.0))

    def test_default_profile_has_evening_peak(self):
        profile = DEFAULT_DIURNAL_PROFILE
        assert profile.multiplier(20.0) > profile.multiplier(4.0)


class TestSeasonalDemand:
    def test_mean_follows_profile(self):
        demand = SeasonalDemand(
            base_mean_mbps=10.0, relative_std=0.1, sla_mbps=50.0, epochs_per_day=24, seed=1
        )
        night = demand.mean_mbps(4)
        evening = demand.mean_mbps(20)
        assert evening > night

    def test_hour_of_epoch_wraps(self):
        demand = SeasonalDemand(10.0, 0.1, 50.0, epochs_per_day=24, start_hour=6.0)
        assert demand.hour_of_epoch(0) == pytest.approx(6.0)
        assert demand.hour_of_epoch(24) == pytest.approx(6.0)
        assert demand.hour_of_epoch(20) == pytest.approx(2.0)

    def test_epochs_per_day_scaling(self):
        demand = SeasonalDemand(10.0, 0.0, 50.0, epochs_per_day=12)
        # With 12 epochs per day, epoch 6 corresponds to noon.
        assert demand.hour_of_epoch(6) == pytest.approx(12.0)

    def test_std_is_relative_to_mean(self):
        demand = SeasonalDemand(10.0, 0.2, 50.0, epochs_per_day=24)
        epoch = 20
        assert demand.std_mbps(epoch) == pytest.approx(0.2 * demand.mean_mbps(epoch))

    def test_invalid_epochs_per_day(self):
        with pytest.raises(ValueError):
            SeasonalDemand(10.0, 0.1, 50.0, epochs_per_day=0)
