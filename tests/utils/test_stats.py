"""Tests for the statistics helpers (CDFs, standard errors, gains)."""

import numpy as np
import pytest

from repro.utils.stats import (
    EmpiricalCDF,
    mean_and_stderr,
    relative_gain,
    standard_error_below,
)


class TestEmpiricalCDF:
    def test_from_samples_sorts(self):
        cdf = EmpiricalCDF.from_samples([3.0, 1.0, 2.0])
        assert cdf.values == (1.0, 2.0, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF.from_samples([])

    def test_evaluate_monotone(self):
        cdf = EmpiricalCDF.from_samples(range(10))
        values = [cdf.evaluate(x) for x in np.linspace(-1, 10, 25)]
        assert values == sorted(values)
        assert cdf.evaluate(-1) == 0.0
        assert cdf.evaluate(9) == 1.0

    def test_quantile_bounds(self):
        cdf = EmpiricalCDF.from_samples([1, 2, 3, 4])
        assert cdf.quantile(0.0) == 1
        assert cdf.quantile(1.0) == 4
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_evaluate_counts_every_tied_sample(self):
        cdf = EmpiricalCDF.from_samples([1.0, 2.0, 2.0, 2.0, 3.0])
        assert cdf.evaluate(2.0) == pytest.approx(0.8)
        assert cdf.evaluate(1.999) == pytest.approx(0.2)

    def test_median_of_an_odd_sample_is_its_middle_value(self):
        cdf = EmpiricalCDF.from_samples([9.0, 1.0, 5.0, 3.0, 7.0])
        assert cdf.quantile(0.5) == 5.0

    def test_as_arrays_shape(self):
        cdf = EmpiricalCDF.from_samples([5, 6, 7])
        xs, ps = cdf.as_arrays()
        assert xs.shape == ps.shape == (3,)
        assert ps[-1] == pytest.approx(1.0)


class TestMeanAndStderr:
    def test_single_sample_has_infinite_stderr(self):
        mean, stderr = mean_and_stderr([4.0])
        assert mean == 4.0
        assert stderr == float("inf")

    def test_constant_samples_zero_stderr(self):
        mean, stderr = mean_and_stderr([2.0] * 10)
        assert mean == 2.0
        assert stderr == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_and_stderr([])

    def test_matches_numpy(self):
        data = [1.0, 2.0, 3.0, 4.0]
        mean, stderr = mean_and_stderr(data)
        assert mean == pytest.approx(np.mean(data))
        assert stderr == pytest.approx(np.std(data, ddof=1) / np.sqrt(len(data)))


class TestRelativeGain:
    def test_positive_gain(self):
        assert relative_gain(6.0, 3.0) == pytest.approx(100.0)

    def test_no_gain(self):
        assert relative_gain(3.0, 3.0) == 0.0

    def test_zero_baseline_zero_value(self):
        assert relative_gain(0.0, 0.0) == 0.0

    def test_zero_baseline_nonzero_value_rejected(self):
        with pytest.raises(ZeroDivisionError):
            relative_gain(1.0, 0.0)


class TestRunningMeanAndConvergence:

    def test_standard_error_below_converged(self):
        assert standard_error_below([10.0] * 20, 0.02)

    def test_standard_error_below_not_converged(self):
        noisy = [0.0, 100.0] * 3
        assert not standard_error_below(noisy, 0.02)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            standard_error_below([1.0, 2.0], 0.0)
