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

from collections import deque
from typing import NamedTuple

import numpy as np

from repro.forecasting.base import ForecastOutcome, RecursiveForecaster, normalised_rmse
from repro.utils.validation import ensure_in_range

_POSITIVE_FLOOR = 1e-6


class HoltWintersState(NamedTuple):
    level: float
    trend: float
    #: The last ``m`` seasonal factors, oldest (the next step's) first.
    seasonals: tuple[float, ...]
    #: One-step-ahead errors from the second season on.
    errors: np.ndarray


class HoltWintersForecaster(RecursiveForecaster):
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

    @property
    def warm_up(self) -> int:  # type: ignore[override]
        """The first season initialises the state; the recursion starts after it."""
        return self.season_length

    # ------------------------------------------------------------------ #
    def observations(self, history: np.ndarray) -> np.ndarray:
        history = self._validate_history(history)
        if history.size < self.min_history:
            raise ValueError(
                f"Holt-Winters needs at least {self.min_history} observations "
                f"(two seasons of {self.season_length}), got {history.size}"
            )
        return np.maximum(history, _POSITIVE_FLOOR)

    def start(self, observations: np.ndarray) -> HoltWintersState:
        m = self.season_length
        first_season = observations[:m]
        second_season = observations[m : 2 * m]
        level = float(np.mean(first_season))
        trend = float((np.mean(second_season) - np.mean(first_season)) / m)
        season = np.clip(first_season / max(level, _POSITIVE_FLOOR), _POSITIVE_FLOOR, None)
        return HoltWintersState(level, trend, tuple(season.tolist()), np.empty(0))

    def fold(self, state: HoltWintersState, observations: np.ndarray) -> HoltWintersState:
        alpha, beta, gamma = self.alpha, self.beta, self.gamma
        level, trend = state.level, state.trend
        seasonals = deque(state.seasonals)
        errors = []
        for value in observations.tolist():
            seasonal = seasonals.popleft()
            errors.append(value - (level + trend) * seasonal)
            previous_level = level
            level = alpha * (value / seasonal) + (1.0 - alpha) * (level + trend)
            trend = beta * (level - previous_level) + (1.0 - beta) * trend
            seasonals.append(
                gamma * (value / max(level, _POSITIVE_FLOOR)) + (1.0 - gamma) * seasonal
            )
        return HoltWintersState(
            level, trend, tuple(seasonals), np.concatenate((state.errors, errors))
        )

    def outcome(
        self, state: HoltWintersState, observations: np.ndarray, horizon: int
    ) -> ForecastOutcome:
        level, trend, seasonals = state.level, state.trend, state.seasonals
        predictions = tuple(
            max(0.0, (level + h * trend) * seasonals[(h - 1) % self.season_length])
            for h in range(1, horizon + 1)
        )
        sigma = normalised_rmse(observations[self.season_length :], state.errors)
        return ForecastOutcome(predictions=predictions, sigma_hat=sigma)
