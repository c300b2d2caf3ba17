"""Double exponential smoothing.

The paper discusses (double) exponential smoothing as the common choice for
cloud resource provisioning and rejects it because it cannot model the
seasonality of mobile traffic; it is implemented here as a comparison point
for the forecasting ablation benchmark, and it is the orchestrator's
forecaster for slices younger than two seasons.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.forecasting.base import ForecastOutcome, RecursiveForecaster, normalised_rmse
from repro.utils.validation import ensure_in_range


class DoubleExponentialState(NamedTuple):
    level: float
    trend: float
    #: One-step-ahead errors, the first observation's (zero) included.
    errors: np.ndarray


class DoubleExponentialForecaster(RecursiveForecaster):
    """Holt's linear method: level + trend smoothing."""

    min_history = 3

    def __init__(self, alpha: float = 0.4, beta: float = 0.2):
        self.alpha = ensure_in_range(alpha, 0.0, 1.0, "alpha")
        self.beta = ensure_in_range(beta, 0.0, 1.0, "beta")

    def start(self, observations: np.ndarray) -> DoubleExponentialState:
        first, second = observations[:2].tolist()
        return DoubleExponentialState(first, second - first, np.array([first - first]))

    def fold(
        self, state: DoubleExponentialState, observations: np.ndarray
    ) -> DoubleExponentialState:
        alpha, beta = self.alpha, self.beta
        level, trend = state.level, state.trend
        errors = []
        for value in observations.tolist():
            errors.append(value - (level + trend))
            previous_level = level
            level = alpha * value + (1.0 - alpha) * (level + trend)
            trend = beta * (level - previous_level) + (1.0 - beta) * trend
        return DoubleExponentialState(level, trend, np.concatenate((state.errors, errors)))

    def outcome(
        self, state: DoubleExponentialState, observations: np.ndarray, horizon: int
    ) -> ForecastOutcome:
        level, trend = state.level, state.trend
        predictions = tuple(max(0.0, level + (h + 1) * trend) for h in range(horizon))
        sigma = normalised_rmse(observations, state.errors)
        return ForecastOutcome(predictions=predictions, sigma_hat=sigma)
