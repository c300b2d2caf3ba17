"""Multiplicative Holt-Winters forecasting (triple exponential smoothing).

This is the forecasting algorithm the paper's orchestrator uses: mobile
traffic has strong daily periodicity, so the seasonal component captures the
diurnal shape while the level/trend components track slower drift.  The
implementation follows the classic multiplicative formulation:

    level_t    = alpha * (x_t / season_{t-m}) + (1 - alpha) * (level_{t-1} + trend_{t-1})
    trend_t    = beta  * (level_t - level_{t-1}) + (1 - beta) * trend_{t-1}
    season_t   = gamma * (x_t / level_t) + (1 - gamma) * season_{t-m}
    forecast_{t+h} = (level_t + h * trend_t) * season_{t+h-m}

The multiplicative variant requires strictly positive observations; zero
samples are floored at a small epsilon (an idle slice simply forecasts an
almost-idle load).
"""

from __future__ import annotations

import numpy as np

from repro.forecasting.base import Forecaster, ForecastOutcome
from repro.utils.validation import ensure_in_range

_POSITIVE_FLOOR = 1e-6


class HoltWintersForecaster(Forecaster):
    """Multiplicative Holt-Winters with a fixed seasonal period."""

    def __init__(
        self,
        season_length: int = 24,
        alpha: float = 0.35,
        beta: float = 0.05,
        gamma: float = 0.25,
    ):
        if season_length < 2:
            raise ValueError("season_length must be at least 2")
        self.season_length = int(season_length)
        self.alpha = ensure_in_range(alpha, 0.0, 1.0, "alpha")
        self.beta = ensure_in_range(beta, 0.0, 1.0, "beta")
        self.gamma = ensure_in_range(gamma, 0.0, 1.0, "gamma")

    @property
    def min_history(self) -> int:  # type: ignore[override]
        """Two full seasons are needed to initialise level, trend and season."""
        return 2 * self.season_length

    # ------------------------------------------------------------------ #
    def _initial_state(self, history: np.ndarray) -> tuple[float, float, np.ndarray]:
        m = self.season_length
        first_season = history[:m]
        second_season = history[m : 2 * m]
        level = float(np.mean(first_season))
        trend = float((np.mean(second_season) - np.mean(first_season)) / m)
        season = first_season / max(level, _POSITIVE_FLOOR)
        season = np.clip(season, _POSITIVE_FLOOR, None)
        return level, trend, season

    def forecast(self, history: np.ndarray, horizon: int = 1) -> ForecastOutcome:
        history = self._validate_history(history)
        horizon = self._validate_horizon(horizon)
        if history.size < self.min_history:
            raise ValueError(
                f"Holt-Winters needs at least {self.min_history} observations "
                f"(two seasons of {self.season_length}), got {history.size}"
            )
        observations = np.clip(history, _POSITIVE_FLOOR, None)
        m = self.season_length
        level, trend, season = self._initial_state(observations)
        seasonals = list(season)
        fitted: list[float] = []  # one-step-ahead fit from the second season on

        for t in range(m, observations.size):
            value = observations[t]
            seasonal_index = t - m
            seasonal = seasonals[seasonal_index]
            fitted.append((level + trend) * seasonal)
            previous_level = level
            level = self.alpha * (value / seasonal) + (1.0 - self.alpha) * (level + trend)
            trend = self.beta * (level - previous_level) + (1.0 - self.beta) * trend
            seasonals.append(
                self.gamma * (value / max(level, _POSITIVE_FLOOR))
                + (1.0 - self.gamma) * seasonal
            )

        predictions: list[float] = []
        for h in range(1, horizon + 1):
            seasonal = seasonals[len(seasonals) - m + ((h - 1) % m)]
            predictions.append(max(0.0, (level + h * trend) * seasonal))

        sigma = self._sigma_from_errors(observations[m:], np.asarray(fitted))
        return ForecastOutcome(predictions=tuple(predictions), sigma_hat=sigma)
