"""Forecasting block of the E2E orchestrator.

The orchestrator predicts each slice's peak load for the next decision epoch
and quantifies the prediction uncertainty; both feed the risk term of the
AC-RR objective.  The paper uses the multiplicative Holt-Winters method
(triple exponential smoothing) because mobile traffic is strongly seasonal;
simpler methods are provided as baselines for the forecasting ablation.
"""

from repro.forecasting.base import Forecaster, ForecastOutcome, RecursiveForecaster
from repro.forecasting.naive import NaiveForecaster, PeakForecaster
from repro.forecasting.exponential import (
    DoubleExponentialForecaster,
)
from repro.forecasting.holt_winters import HoltWintersForecaster

__all__ = [
    "Forecaster",
    "ForecastOutcome",
    "RecursiveForecaster",
    "NaiveForecaster",
    "PeakForecaster",
    "DoubleExponentialForecaster",
    "HoltWintersForecaster",
]
