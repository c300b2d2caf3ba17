"""Common interface of the forecasting algorithms.

A forecaster consumes the history of per-epoch peak loads of one slice and
produces the predicted peak for the next ``horizon`` epochs together with a
normalised uncertainty ``sigma_hat`` in (0, 1].  The uncertainty is what the
risk-cost function scales by, so every forecaster must report one; by default
it is derived from the normalised in-sample one-step-ahead error.

The smoothing methods are filters (:class:`RecursiveForecaster`): one step
function over a small state, folded along the history.  ``forecast`` folds
the whole history; a caller that keeps the state it reached can fold just
the observations that arrived since, and gets the same bytes.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.forecast_inputs import MIN_SIGMA_HAT, ForecastInput

_add_reduce = np.add.reduce
_fmin_reduce = np.fmin.reduce


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
        return normalised_rmse(history, history[-size:] - fitted[-size:])

    @staticmethod
    def _validate_history(history: np.ndarray) -> np.ndarray:
        arr = np.asarray(history, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("cannot forecast an empty history")
        # ``(arr < 0).any()`` as one reduction: fmin skips NaNs, as the
        # comparison does, and -0.0 is not below 0 either way.
        if _fmin_reduce(arr) < 0:
            raise ValueError("load history must be non-negative")
        return arr

    @staticmethod
    def _validate_horizon(horizon: int) -> int:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        return int(horizon)


def normalised_rmse(observed: np.ndarray, errors: np.ndarray) -> float:
    """RMS of the one-step ``errors`` over the mean of ``observed``, clipped
    into (MIN_SIGMA_HAT, 1].  Both means are ``np.mean``'s over whole
    arrays: their summation order is part of the forecast's bytes."""
    mean = _mean(np.abs(observed)) or 1.0
    rmse = math.sqrt(_mean(errors**2))
    return min(max(rmse / mean, MIN_SIGMA_HAT), 1.0)


def _mean(values: np.ndarray) -> float:
    """``float(np.mean(values))`` of a float vector, without its Python
    wrapper: the same pairwise ``add.reduce`` over every axis, divided by
    the count.  An empty vector goes through ``np.mean`` itself (NaN, with
    its warning)."""
    if not values.size:
        return float(np.mean(values))
    return float(_add_reduce(values, None)) / values.size


class RecursiveForecaster(Forecaster):
    """A forecaster that is a filter: one step folded along the history.

    ``start`` reads the initial state off the head of the series, ``fold``
    steps a state over further observations, ``outcome`` reads the forecast
    off the state the whole series reached.  A state depends on the prefix
    it has seen and nothing else, so folding a series in two pieces reaches
    the state -- and the forecast -- that folding it in one does, byte for
    byte.  States are immutable: ``fold`` returns a new one.
    """

    #: Leading observations ``start`` accounts for; ``fold`` steps over the
    #: rest.  ``start`` may read further (Holt-Winters' initial trend does).
    warm_up: int = 1

    def observations(self, history: np.ndarray) -> np.ndarray:
        """The validated series the recursion runs over."""
        return self._validate_history(history)

    @abc.abstractmethod
    def start(self, observations: np.ndarray) -> Any:
        """The state after the first :attr:`warm_up` observations."""

    @abc.abstractmethod
    def fold(self, state: Any, observations: np.ndarray) -> Any:
        """The state after stepping ``state`` over ``observations``."""

    @abc.abstractmethod
    def outcome(self, state: Any, observations: np.ndarray, horizon: int) -> ForecastOutcome:
        """The forecast from ``state``, the fold of all of ``observations``."""

    def fit(self, observations: np.ndarray) -> Any:
        """The state after the whole of ``observations``."""
        return self.fold(self.start(observations), observations[self.warm_up :])

    def forecast(self, history: np.ndarray, horizon: int = 1) -> ForecastOutcome:
        observations = self.observations(history)
        horizon = self._validate_horizon(horizon)
        return self.outcome(self.fit(observations), observations, horizon)
