"""Single and double exponential smoothing.

The paper discusses (double) exponential smoothing as the common choice for
cloud resource provisioning and rejects it because it cannot model the
seasonality of mobile traffic; both are implemented here as comparison points
for the forecasting ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.forecasting.base import Forecaster, ForecastOutcome
from repro.utils.validation import ensure_in_range


class SingleExponentialForecaster(Forecaster):
    """Simple exponential smoothing (level only)."""

    min_history = 2

    def __init__(self, alpha: float = 0.4):
        self.alpha = ensure_in_range(alpha, 0.0, 1.0, "alpha")

    def forecast(self, history: np.ndarray, horizon: int = 1) -> ForecastOutcome:
        history = self._validate_history(history)
        horizon = self._validate_horizon(horizon)
        level = history[0]
        fitted = [level]
        for value in history[1:]:
            fitted.append(level)
            level = self.alpha * value + (1.0 - self.alpha) * level
        sigma = self._sigma_from_errors(history, np.asarray(fitted))
        return ForecastOutcome(predictions=tuple([float(level)] * horizon), sigma_hat=sigma)


class DoubleExponentialForecaster(Forecaster):
    """Holt's linear method: level + trend smoothing."""

    min_history = 3

    def __init__(self, alpha: float = 0.4, beta: float = 0.2):
        self.alpha = ensure_in_range(alpha, 0.0, 1.0, "alpha")
        self.beta = ensure_in_range(beta, 0.0, 1.0, "beta")

    def forecast(self, history: np.ndarray, horizon: int = 1) -> ForecastOutcome:
        history = self._validate_history(history)
        horizon = self._validate_horizon(horizon)
        level = history[0]
        trend = history[1] - history[0]
        fitted = [level]
        for value in history[1:]:
            fitted.append(level + trend)
            previous_level = level
            level = self.alpha * value + (1.0 - self.alpha) * (level + trend)
            trend = self.beta * (level - previous_level) + (1.0 - self.beta) * trend
        sigma = self._sigma_from_errors(history, np.asarray(fitted))
        predictions = [float(level + (h + 1) * trend) for h in range(horizon)]
        predictions = [max(0.0, p) for p in predictions]
        return ForecastOutcome(predictions=tuple(predictions), sigma_hat=sigma)
