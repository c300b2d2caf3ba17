"""Tests for the demand models."""

import os
import subprocess
import sys

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

    @pytest.mark.parametrize("num_samples", [True, 12.0, "3", -2, None, np.float64(4.0)])
    def test_a_bad_sample_count_is_a_value_error(self, num_samples):
        """Not a TypeError from numpy or from a comparison, and nothing is
        drawn: the next draw is the one a fresh model makes first."""
        demand = GaussianDemand(10.0, 2.0, 50.0, seed=4)
        with pytest.raises(ValueError, match="num_samples"):
            demand.sample_epoch(0, num_samples)
        fresh = GaussianDemand(10.0, 2.0, 50.0, seed=4)
        assert demand.sample_epoch(0, 3) == fresh.sample_epoch(0, 3)

    @pytest.mark.parametrize("epoch", [-1, True, 1.5, "2", None])
    @pytest.mark.parametrize(
        "model",
        [
            lambda: GaussianDemand(10.0, 2.0, 50.0, seed=4),
            lambda: DeterministicDemand(5.0, 50.0, seed=4),
            lambda: OnOffDemand(40.0, 0.0, 5.0, sla_mbps=50.0, seed=4),
        ],
    )
    def test_a_bad_epoch_is_a_value_error_that_draws_nothing(self, epoch, model):
        demand = model()
        with pytest.raises(ValueError, match="epoch"):
            demand.sample_epoch(epoch, 4)
        assert demand.sample_epoch(0, 3) == model().sample_epoch(0, 3)

    @pytest.mark.parametrize("epoch", [np.int64(2), 2.0, np.float64(2.0)])
    def test_an_integer_of_another_type_is_that_integer(self, epoch):
        """An integral epoch of any type is that epoch, as for every other
        epoch check (``ensure_non_negative_int``); the sample count must be
        of an integer type."""
        drawn = GaussianDemand(10.0, 2.0, 50.0, seed=5).sample_epoch(epoch, np.int32(3))
        want = GaussianDemand(10.0, 2.0, 50.0, seed=5).sample_epoch(2, 3)
        assert drawn == want
        assert type(drawn.epoch) is int

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


class TestClipUfunc:
    """The sampler calls the ufunc ``np.clip`` dispatches to, a private
    numpy name; a numpy without it must cost speed, not the import."""

    PROBE = (
        "import sys, types\n"
        "import numpy as np\n"
        "real = sys.modules['numpy._core.umath']\n"
        "fake = types.ModuleType(real.__name__)\n"  # the ufuncs, but no clip
        "fake.__dict__.update({k: v for k, v in vars(real).items() if k != 'clip'})\n"
        "sys.modules[real.__name__] = fake\n"
        "from repro.traffic import demand\n"
        "print(demand._clip is np.clip)\n"
        "drawn = demand.GaussianDemand(45.0, 20.0, 50.0, seed=3).draw(4, 200)\n"
        "print(drawn.tobytes().hex())\n"
    )

    def test_without_the_private_ufunc_the_sampler_falls_back_to_np_clip(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        fell_back, drawn = done.stdout.split()
        assert fell_back == "True"
        here = GaussianDemand(45.0, 20.0, 50.0, seed=3).draw(4, 200)
        assert drawn == here.tobytes().hex()
