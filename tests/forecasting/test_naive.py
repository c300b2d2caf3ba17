"""Tests for the naive forecasting baselines."""

import numpy as np
import pytest

from repro.forecasting.naive import MeanForecaster, NaiveForecaster, PeakForecaster


class TestNaiveForecaster:
    def test_predicts_last_value(self):
        outcome = NaiveForecaster().forecast(np.array([1.0, 2.0, 3.0]), horizon=2)
        assert outcome.predictions == (3.0, 3.0)

    def test_sigma_small_for_constant_series(self):
        outcome = NaiveForecaster().forecast(np.array([5.0] * 10))
        assert outcome.sigma_hat <= 0.01

    def test_sigma_large_for_noisy_series(self):
        rng = np.random.default_rng(0)
        series = np.abs(rng.normal(10, 10, size=50))
        outcome = NaiveForecaster().forecast(series)
        assert outcome.sigma_hat > 0.2

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            NaiveForecaster().forecast(np.array([]))

    def test_negative_history_rejected(self):
        with pytest.raises(ValueError):
            NaiveForecaster().forecast(np.array([1.0, -2.0]))

    def test_horizon_validated(self):
        with pytest.raises(ValueError):
            NaiveForecaster().forecast(np.array([1.0]), horizon=0)


class TestMeanForecaster:
    def test_predicts_mean(self):
        outcome = MeanForecaster().forecast(np.array([2.0, 4.0, 6.0]))
        assert outcome.next_value == pytest.approx(4.0)

    def test_fitted_series_has_history_length(self):
        # sigma_hat is the error of an in-sample fit over the whole history:
        # the expanding mean [1, 1, 1.5, 2] misses by [0, 1, 1.5, 2].
        history = np.array([1.0, 2.0, 3.0, 4.0])
        outcome = MeanForecaster().forecast(history)
        assert outcome.sigma_hat == pytest.approx(np.sqrt(7.25 / 4) / 2.5)


class TestPeakForecaster:
    def test_predicts_max(self):
        outcome = PeakForecaster().forecast(np.array([3.0, 9.0, 4.0]))
        assert outcome.next_value == pytest.approx(9.0)

    def test_never_below_history_max(self):
        rng = np.random.default_rng(1)
        history = np.abs(rng.normal(10, 3, size=30))
        outcome = PeakForecaster().forecast(history)
        assert outcome.next_value >= history.max() - 1e-9


class TestForecastOutcomeConversion:
    def test_as_forecast_input_clamps_to_sla(self):
        outcome = PeakForecaster().forecast(np.array([80.0, 90.0]))
        forecast = outcome.as_forecast_input(sla_mbps=50.0)
        assert forecast.lambda_hat_mbps < 50.0
        assert 0 < forecast.sigma_hat <= 1.0
