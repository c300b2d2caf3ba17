"""Tests for double exponential smoothing."""

import numpy as np
import pytest

from repro.core.forecast_inputs import MIN_SIGMA_HAT
from repro.forecasting.exponential import DoubleExponentialForecaster


class TestDoubleExponential:
    def test_captures_linear_trend(self):
        history = np.arange(1.0, 31.0)  # strictly increasing
        outcome = DoubleExponentialForecaster(alpha=0.5, beta=0.3).forecast(history, horizon=3)
        # The forecast should keep increasing beyond the last observation.
        assert outcome.predictions[0] > history[-1] * 0.95
        assert outcome.predictions[2] > outcome.predictions[0]

    def test_predictions_never_negative(self):
        history = np.array([30.0, 20.0, 10.0, 5.0, 1.0])
        outcome = DoubleExponentialForecaster().forecast(history, horizon=5)
        assert all(p >= 0.0 for p in outcome.predictions)

    def test_constant_series(self):
        outcome = DoubleExponentialForecaster().forecast(np.full(20, 4.0))
        assert outcome.next_value == pytest.approx(4.0, abs=1e-6)

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            DoubleExponentialForecaster(beta=-0.1)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            DoubleExponentialForecaster(alpha=1.5)

    def test_min_history(self):
        forecaster = DoubleExponentialForecaster()
        assert not forecaster.can_forecast(np.array([1.0, 2.0]))
        assert forecaster.can_forecast(np.array([1.0, 2.0, 3.0]))

    def test_a_straight_line_is_predicted_exactly(self):
        # Holt's level + trend tracks a line with no one-step error at all.
        outcome = DoubleExponentialForecaster().forecast(np.arange(2.0, 22.0, 2.0), horizon=2)
        assert outcome.predictions == pytest.approx((22.0, 24.0))
        assert outcome.sigma_hat == MIN_SIGMA_HAT
