"""Property tests for the demand models (traffic/demand, traffic/seasonal).

Two claim families:

* **non-negativity / SLA conformance** -- every sampled load lies in
  ``[0, sla_mbps]`` for every model and epoch;
* **mean / sigma calibration** -- under a fixed seed, the empirical mean and
  standard deviation of a large sample match the configured parameters
  within statistical tolerance.  The calibration cases keep the Gaussian
  well inside ``[0, sla]`` (mean in the middle, small sigma) so clipping
  bias is negligible compared to the tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traffic.demand import DeterministicDemand, GaussianDemand, OnOffDemand
from repro.traffic.seasonal import (
    DEFAULT_DIURNAL_PROFILE,
    DiurnalProfile,
    SeasonalDemand,
)

_SLA = 100.0


class TestNonNegativityAndSlaConformance:
    @given(
        mean=st.floats(0.0, 120.0),
        std=st.floats(0.0, 60.0),
        seed=st.integers(0, 2**20),
        epoch=st.integers(0, 200),
    )
    @settings(max_examples=60)
    def test_gaussian_samples_stay_in_band(self, mean, std, seed, epoch):
        demand = GaussianDemand(mean_mbps=mean, std_mbps=std, sla_mbps=_SLA, seed=seed)
        samples = np.asarray(demand.sample_epoch(epoch, 24).samples_mbps)
        assert np.all(samples >= 0.0)
        assert np.all(samples <= _SLA)

    @given(
        base_mean=st.floats(0.0, 90.0),
        relative_std=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**20),
        epoch=st.integers(0, 72),
    )
    @settings(max_examples=60)
    def test_seasonal_samples_stay_in_band(self, base_mean, relative_std, seed, epoch):
        demand = SeasonalDemand(
            base_mean_mbps=base_mean,
            relative_std=relative_std,
            sla_mbps=_SLA,
            seed=seed,
        )
        samples = np.asarray(demand.sample_epoch(epoch, 16).samples_mbps)
        assert np.all(samples >= 0.0)
        assert np.all(samples <= _SLA)
        assert demand.mean_mbps(epoch) >= 0.0
        assert demand.std_mbps(epoch) == pytest.approx(
            relative_std * demand.mean_mbps(epoch)
        )

    @given(
        on=st.floats(0.0, 90.0),
        off=st.floats(0.0, 90.0),
        std=st.floats(0.0, 30.0),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=40)
    def test_onoff_means_come_from_the_two_regimes(self, on, off, std, seed):
        demand = OnOffDemand(
            on_mean_mbps=on,
            off_mean_mbps=off,
            std_mbps=std,
            sla_mbps=_SLA,
            seed=seed,
        )
        for epoch in range(30):
            assert demand.mean_mbps(epoch) in (on, off)
            samples = np.asarray(demand.sample_epoch(epoch, 8).samples_mbps)
            assert np.all(samples >= 0.0)
            assert np.all(samples <= _SLA)


class TestCalibration:
    @given(
        mean=st.floats(30.0, 70.0),
        relative_std=st.floats(0.02, 0.15),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=25, deadline=None)
    def test_gaussian_mean_and_sigma_match_configuration(self, mean, relative_std, seed):
        std = relative_std * mean
        demand = GaussianDemand(mean_mbps=mean, std_mbps=std, sla_mbps=_SLA, seed=seed)
        samples = np.concatenate(
            [demand.sample_epoch(epoch, 50).samples_mbps for epoch in range(40)]
        )
        n = samples.size
        # Mean estimator: tolerance of 5 standard errors; sigma estimator:
        # relative tolerance of ~5 / sqrt(2n).
        assert np.mean(samples) == pytest.approx(mean, abs=5 * std / np.sqrt(n))
        assert np.std(samples) == pytest.approx(std, rel=5.0 / np.sqrt(2 * n) + 0.01)

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=15, deadline=None)
    def test_seasonal_daily_mean_matches_base_mean(self, seed):
        base_mean = 50.0
        demand = SeasonalDemand(
            base_mean_mbps=base_mean,
            relative_std=0.0,  # isolate the profile from sampling noise
            sla_mbps=_SLA,
            seed=seed,
        )
        epoch_means = np.array([demand.mean_mbps(epoch) for epoch in range(24)])
        # The profile is normalised to an average multiplier of exactly 1.
        assert np.mean(epoch_means) == pytest.approx(base_mean, rel=1e-9)
        profile = np.asarray(DEFAULT_DIURNAL_PROFILE.hourly_multipliers)
        assert np.min(epoch_means) == pytest.approx(base_mean * profile.min())
        assert np.max(epoch_means) == pytest.approx(base_mean * profile.max())

    def test_deterministic_demand_has_zero_spread(self):
        demand = DeterministicDemand(mean_mbps=40.0, sla_mbps=_SLA, seed=3)
        samples = np.asarray(demand.sample_epoch(0, 32).samples_mbps)
        assert np.all(samples == 40.0)
        assert demand.std_mbps(0) == 0.0

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_fixed_seed_reproduces_the_trace(self, seed):
        def make():
            return GaussianDemand(mean_mbps=50.0, std_mbps=5.0, sla_mbps=_SLA, seed=seed)

        np.testing.assert_array_equal(
            make().peak_series(20, 8), make().peak_series(20, 8)
        )


class TestDiurnalProfile:
    @given(
        multipliers=st.lists(st.floats(0.01, 5.0), min_size=24, max_size=24),
        hour=st.floats(0.0, 48.0),
    )
    @settings(max_examples=50)
    def test_normalised_profile_interpolates_within_bounds(self, multipliers, hour):
        profile = DiurnalProfile.normalised(multipliers)
        arr = np.asarray(profile.hourly_multipliers)
        assert np.mean(arr) == pytest.approx(1.0)
        value = profile.multiplier(hour)
        assert arr.min() - 1e-9 <= value <= arr.max() + 1e-9

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="24 hourly multipliers"):
            DiurnalProfile.normalised([1.0] * 23)
