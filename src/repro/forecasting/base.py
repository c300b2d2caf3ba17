"""Common interface of the forecasting algorithms.

A forecaster consumes the history of per-epoch peak loads of one slice and
produces the predicted peak for the next ``horizon`` epochs together with a
normalised uncertainty ``sigma_hat`` in (0, 1].  The uncertainty is what the
risk-cost function scales by, so every forecaster must report one; by default
it is derived from the normalised in-sample one-step-ahead error.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.forecast_inputs import MIN_SIGMA_HAT, ForecastInput


@dataclass(frozen=True)
class ForecastOutcome:
    """Prediction for the next epochs of one time series."""

    predictions: tuple[float, ...]
    sigma_hat: float

    @property
    def next_value(self) -> float:
        return self.predictions[0]

    def as_forecast_input(self, sla_mbps: float) -> ForecastInput:
        """Convert to the value object consumed by the AC-RR problem."""
        return ForecastInput(
            lambda_hat_mbps=max(0.0, self.next_value), sigma_hat=self.sigma_hat
        ).clamped(sla_mbps)


class Forecaster(abc.ABC):
    """Base class for all forecasting algorithms."""

    #: Smallest number of observations the algorithm needs to produce a
    #: meaningful forecast; below this the caller should fall back to a
    #: pessimistic (full-SLA) forecast.
    min_history: int = 1

    @abc.abstractmethod
    def forecast(self, history: np.ndarray, horizon: int = 1) -> ForecastOutcome:
        """Predict the next ``horizon`` values of ``history``."""

    def can_forecast(self, history: np.ndarray) -> bool:
        return len(np.atleast_1d(history)) >= self.min_history

    # ------------------------------------------------------------------ #
    @staticmethod
    def _sigma_from_errors(history: np.ndarray, fitted: np.ndarray) -> float:
        """Normalised one-step-ahead error used as the uncertainty estimate.

        sigma_hat = RMSE(fitted, observed) / mean(observed), clipped into
        (MIN_SIGMA_HAT, 1].  A perfectly predictable series (e.g. the mMTC
        template) therefore gets the minimum uncertainty, and a series whose
        errors are as large as its mean saturates at 1.
        """
        history = np.asarray(history, dtype=float)
        fitted = np.asarray(fitted, dtype=float)
        if history.size == 0 or fitted.size == 0:
            return 1.0
        size = min(history.size, fitted.size)
        errors = history[-size:] - fitted[-size:]
        mean = float(np.mean(np.abs(history))) or 1.0
        rmse = float(np.sqrt(np.mean(errors**2)))
        return float(np.clip(rmse / mean, MIN_SIGMA_HAT, 1.0))

    @staticmethod
    def _validate_history(history: np.ndarray) -> np.ndarray:
        arr = np.asarray(history, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("cannot forecast an empty history")
        if np.any(arr < 0):
            raise ValueError("load history must be non-negative")
        return arr

    @staticmethod
    def _validate_horizon(horizon: int) -> int:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        return int(horizon)
