"""Naive forecasting baselines.

These exist for the forecasting ablation (how much does Holt-Winters buy over
trivial predictors?) and as safe fallbacks when a slice has too little history
for the smoothing methods.
"""

from __future__ import annotations

import numpy as np

from repro.forecasting.base import Forecaster, ForecastOutcome


class NaiveForecaster(Forecaster):
    """Predict that the next peak equals the last observed peak."""

    min_history = 1

    def forecast(self, history: np.ndarray, horizon: int = 1) -> ForecastOutcome:
        history = self._validate_history(history)
        horizon = self._validate_horizon(horizon)
        fitted = np.concatenate([[history[0]], history[:-1]])
        sigma = self._sigma_from_errors(history, fitted)
        value = float(history[-1])
        return ForecastOutcome(predictions=tuple([value] * horizon), sigma_hat=sigma)


class MeanForecaster(Forecaster):
    """Predict the historical mean peak."""

    min_history = 1

    def forecast(self, history: np.ndarray, horizon: int = 1) -> ForecastOutcome:
        history = self._validate_history(history)
        horizon = self._validate_horizon(horizon)
        # Expanding-window mean as the in-sample fit.
        fitted = np.cumsum(history) / np.arange(1, history.size + 1)
        fitted = np.concatenate([[history[0]], fitted[:-1]])
        sigma = self._sigma_from_errors(history, fitted)
        value = float(np.mean(history))
        return ForecastOutcome(predictions=tuple([value] * horizon), sigma_hat=sigma)


class PeakForecaster(Forecaster):
    """Predict the historical maximum (the most conservative predictor).

    Reserving for the historical peak essentially disables overbooking for
    bursty slices, so this baseline brackets the conservative end of the
    forecasting ablation.
    """

    min_history = 1

    def forecast(self, history: np.ndarray, horizon: int = 1) -> ForecastOutcome:
        history = self._validate_history(history)
        horizon = self._validate_horizon(horizon)
        fitted = np.maximum.accumulate(history)
        fitted = np.concatenate([[history[0]], fitted[:-1]])
        sigma = self._sigma_from_errors(history, fitted)
        value = float(np.max(history))
        return ForecastOutcome(predictions=tuple([value] * horizon), sigma_hat=sigma)
