"""The smoothing forecasters are filters: a history folded in two pieces
gives the forecast of the history folded in one, byte for byte.

``forecast(history)`` is ``start`` + one ``fold`` over the whole series; the
orchestrator's ForecastingBlock keeps the state a slice reached and folds
only the peaks that arrived since.  Both must produce the same bytes for
``predictions`` and ``sigma_hat`` at every split point.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane.orchestrator import ForecastingBlock
from repro.core.slices import EMBB_TEMPLATE, SliceRequest
from repro.forecasting import (
    DoubleExponentialForecaster,
    HoltWintersForecaster,
    SingleExponentialForecaster,
)

SEASON = 4

FORECASTERS = {
    "holt-winters": HoltWintersForecaster(season_length=SEASON),
    "holt-winters-saturated": HoltWintersForecaster(
        season_length=SEASON, alpha=1.0, beta=1.0, gamma=1.0
    ),
    "double-exponential": DoubleExponentialForecaster(),
    "single-exponential": SingleExponentialForecaster(),
}

#: Peaks as monitoring produces them: non-negative, idle epochs included.
peaks = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
)


def histories(forecaster) -> st.SearchStrategy[np.ndarray]:
    """Lengths from the forecaster's minimum to about one season past two."""
    low = max(forecaster.min_history, 2)
    return st.lists(peaks, min_size=low, max_size=3 * SEASON + 3).map(np.array)


def outcome_bytes(outcome) -> bytes:
    return np.array([*outcome.predictions, outcome.sigma_hat]).tobytes()


@pytest.mark.parametrize("name", sorted(FORECASTERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_split_folds_to_the_same_bytes(name, data):
    forecaster = FORECASTERS[name]
    history = data.draw(histories(forecaster), label="history")
    horizon = data.draw(st.integers(1, 2 * SEASON + 1), label="horizon")
    want = outcome_bytes(forecaster.forecast(history, horizon))

    observations = forecaster.observations(history)
    start = forecaster.start(observations)
    warm_up = forecaster.warm_up
    for k in range(warm_up, history.size + 1):
        # The recursion cut anywhere after the initial state ...
        state = forecaster.fold(
            forecaster.fold(start, observations[warm_up:k]), observations[k:]
        )
        assert outcome_bytes(forecaster.outcome(state, observations, horizon)) == want, k
        # ... and from any prefix the forecaster could itself have forecast.
        if k >= forecaster.min_history:
            state = forecaster.fold(forecaster.fit(observations[:k]), observations[k:])
            assert outcome_bytes(forecaster.outcome(state, observations, horizon)) == want, k


def test_states_are_not_shared_between_folds():
    """Two folds from one state (a quote and an epoch racing on the same
    prefix) must not see each other's observations."""
    forecaster = HoltWintersForecaster(season_length=SEASON)
    history = np.arange(1.0, 2 * SEASON + 1)
    prefix = forecaster.fit(forecaster.observations(history))
    errors_before = prefix.errors.copy()
    one = forecaster.fold(prefix, np.array([5.0]))
    other = forecaster.fold(prefix, np.array([50.0]))
    assert np.array_equal(prefix.errors, errors_before)
    assert one.errors[-1] != other.errors[-1]
    assert one.errors.size == other.errors.size == prefix.errors.size + 1


class CountingHoltWinters(HoltWintersForecaster):
    """Counts whole-history folds (``fit``) and incremental folds."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fits = 0
        self.steps = 0

    def fit(self, observations):
        self.fits += 1
        return super().fit(observations)

    def fold(self, state, observations):
        self.steps += observations.size
        return super().fold(state, observations)


def seasonal_history(length: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    return 20.0 * (1.0 + 0.5 * np.sin(2 * np.pi * t / SEASON)) * rng.uniform(0.9, 1.1, length)


def fresh_forecast(history: np.ndarray):
    block = ForecastingBlock(primary=HoltWintersForecaster(season_length=SEASON))
    return block.forecast_for(SliceRequest(name="s", template=EMBB_TEMPLATE), history)


class TestBlockMemo:
    request = SliceRequest(name="s", template=EMBB_TEMPLATE)

    def test_a_grown_history_folds_only_the_new_peaks(self):
        primary = CountingHoltWinters(season_length=SEASON)
        block = ForecastingBlock(primary=primary)
        history = seasonal_history(6 * SEASON)
        for end in range(2 * SEASON, history.size + 1):
            got = block.forecast_for(self.request, history[:end])
            assert got == fresh_forecast(history[:end])
        assert primary.fits == 1
        assert primary.steps == (2 * SEASON - SEASON) + (history.size - 2 * SEASON)

    @settings(max_examples=40, deadline=None)
    @given(
        bumped=st.integers(0, 3 * SEASON - 1),
        delta=st.floats(min_value=0.5, max_value=100.0),
    )
    def test_a_bumped_old_peak_misses_the_memo(self, bumped, delta):
        primary = CountingHoltWinters(season_length=SEASON)
        block = ForecastingBlock(primary=primary)
        history = seasonal_history(3 * SEASON + 1, seed=bumped)
        block.forecast_for(self.request, history[:-1])  # consumes every old peak
        late = history.copy()
        late[bumped] += delta  # a late report raises an old epoch's peak
        got = block.forecast_for(self.request, late)
        assert primary.fits == 2  # the stored prefix no longer matches
        assert got == fresh_forecast(late)

    def test_a_tier_change_refolds_from_scratch(self):
        primary = CountingHoltWinters(season_length=SEASON)
        block = ForecastingBlock(primary=primary)
        history = seasonal_history(3 * SEASON)
        for end in range(3, history.size + 1):
            assert block.forecast_for(self.request, history[:end]) == fresh_forecast(
                history[:end]
            )
        assert primary.fits == 1  # double exponential handed over at 2 * SEASON

    def test_retain_forgets_every_slice_not_named(self):
        block = ForecastingBlock(primary=HoltWintersForecaster(season_length=SEASON))
        history = seasonal_history(2 * SEASON)
        for name in ("a", "b", "c"):
            block.forecast_for(SliceRequest(name=name, template=EMBB_TEMPLATE), history)
        block.retain(["b", "ghost"])
        assert list(block._folds) == ["b"]
