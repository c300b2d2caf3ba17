"""Tests for the demand models."""

import numpy as np
import pytest

from repro.traffic.demand import DeterministicDemand, GaussianDemand, OnOffDemand


class TestGaussianDemand:
    def test_samples_clipped_to_sla(self):
        demand = GaussianDemand(mean_mbps=45.0, std_mbps=20.0, sla_mbps=50.0, seed=1)
        epoch = demand.sample_epoch(0, 500)
        samples = np.asarray(epoch.samples_mbps)
        assert samples.min() >= 0.0
        assert samples.max() <= 50.0

    def test_mean_matches_configuration(self):
        demand = GaussianDemand(mean_mbps=20.0, std_mbps=2.0, sla_mbps=50.0, seed=2)
        epoch = demand.sample_epoch(0, 2000)
        assert np.mean(epoch.samples_mbps) == pytest.approx(20.0, rel=0.05)

    def test_peak_is_max_of_samples(self):
        demand = GaussianDemand(mean_mbps=20.0, std_mbps=5.0, sla_mbps=50.0, seed=3)
        epoch = demand.sample_epoch(0, 12)
        assert epoch.peak_mbps == max(epoch.samples_mbps)

    def test_reproducible_given_seed(self):
        a = GaussianDemand(10.0, 2.0, 50.0, seed=7).sample_epoch(0, 12)
        b = GaussianDemand(10.0, 2.0, 50.0, seed=7).sample_epoch(0, 12)
        assert a.samples_mbps == b.samples_mbps

    def test_num_samples_validated(self):
        demand = GaussianDemand(10.0, 2.0, 50.0)
        with pytest.raises(ValueError):
            demand.sample_epoch(0, 0)

    def test_peak_series_length(self):
        demand = GaussianDemand(10.0, 2.0, 50.0, seed=1)
        peaks = demand.peak_series(5, 12)
        assert peaks.shape == (5,)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            GaussianDemand(-1.0, 2.0, 50.0)


class TestDeterministicDemand:
    def test_constant_samples(self):
        demand = DeterministicDemand(mean_mbps=10.0, sla_mbps=10.0, seed=1)
        epoch = demand.sample_epoch(3, 12)
        assert set(epoch.samples_mbps) == {10.0}
        assert demand.std_mbps(3) == 0.0


class TestOnOffDemand:
    def test_means_switch_between_states(self):
        demand = OnOffDemand(
            on_mean_mbps=40.0,
            off_mean_mbps=5.0,
            std_mbps=0.0,
            sla_mbps=50.0,
            p_on_to_off=0.5,
            p_off_to_on=0.5,
            seed=11,
        )
        means = {demand.mean_mbps(epoch) for epoch in range(50)}
        assert means <= {40.0, 5.0}
        assert len(means) == 2  # both states visited

    def test_state_is_memoised(self):
        demand = OnOffDemand(40.0, 5.0, 0.0, 50.0, seed=11)
        assert demand.mean_mbps(10) == demand.mean_mbps(10)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            OnOffDemand(40.0, 5.0, 0.0, 50.0, p_on_to_off=1.5)

    def test_negative_epoch_rejected(self):
        demand = OnOffDemand(40.0, 5.0, 0.0, 50.0, seed=1)
        with pytest.raises(ValueError):
            demand.mean_mbps(-1)
