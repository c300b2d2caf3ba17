"""Forecasting work per epoch is flat in the broker's age.  Counts, never
timings.

2000 epochs of monitoring + ``E2EOrchestrator.forecast_for``, forecasting
and pruning the way ``run_epoch`` does.  Twelve slices live, expire and
renew under the same name over and over (their histories keep growing
across lives), ten more arrive once and expire, and now and then a late
report raises the peak of an epoch that was already forecast on.  Per
epoch:

* each slice forecast by the same recursive tier as last epoch, on a
  history that only grew, folds exactly its one new peak;
* a slice refolds its whole history only where there is no such prefix:
  first forecast, renewal after a gap, double exponential handing over to
  Holt-Winters, or a rewritten old peak;
* the memo holds exactly the slices the epoch forecast recursively.

And after the 2000 epochs, monitoring holds one peak per (slice, reported
epoch) -- not the raw samples behind it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.controlplane.orchestrator import (
    E2EOrchestrator,
    ForecastingBlock,
    OrchestratorConfig,
)
from repro.core.milp_solver import DirectMILPSolver
from repro.core.slices import EMBB_TEMPLATE, SliceRequest
from repro.forecasting import DoubleExponentialForecaster, HoltWintersForecaster
from tests.conftest import build_tiny_topology

EPOCHS = 2000
SEASON = 12
RENEWING = 12
ONE_SHOT = 10
#: Every BUMP_EVERY epochs a late report raises the just-forecast peak of
#: one slice.
BUMP_EVERY = 101


def is_live(name: str, epoch: int) -> bool:
    kind, index = name[0], int(name[1:])
    if kind == "r":
        arrival, life, gap = 3 * index, 90 + 13 * index, 4 + index % 5
        return epoch >= arrival and (epoch - arrival) % (life + gap) < life
    arrival = 200 * index + 7
    return arrival <= epoch < arrival + 150


NAMES = [f"r{i}" for i in range(RENEWING)] + [f"o{i}" for i in range(ONE_SHOT)]


class Counts:
    def __init__(self) -> None:
        self.fits = 0  # whole-history folds
        self.refolded = 0  # observations stepped by them
        self.folded = 0  # observations stepped in all


def counting(base, counts: Counts):
    class Counting(base):
        def fit(self, observations):
            counts.fits += 1
            counts.refolded += observations.size - self.warm_up
            return super().fit(observations)

        def fold(self, state, observations):
            counts.folded += observations.size
            return super().fold(state, observations)

    return Counting


def tier(length: int) -> str | None:
    if length >= 2 * SEASON:
        return "holt-winters"
    if length >= DoubleExponentialForecaster.min_history:
        return "double-exponential"
    return None  # naive: no recursion


def floats_held(root) -> int:
    """Floating-point values reachable from ``root``: Python floats and the
    elements of float arrays, through containers and object attributes."""
    count = 0
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, float):
            count += 1  # counted per reference: one float may fill many slots
            continue
        if isinstance(obj, (str, bytes, int, type(None))) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.base is not None:
                stack.append(obj.base)  # a view: count what owns the memory
            elif obj.dtype.kind == "f":
                count += obj.size
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                slots = getattr(cls, "__slots__", ())
                for slot in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return count


@pytest.fixture(scope="module")
def soak_run():
    counts = Counts()
    orchestrator = E2EOrchestrator(
        topology=build_tiny_topology(),
        solver=DirectMILPSolver(),
        config=OrchestratorConfig(epochs_per_day=SEASON),
        forecasting=ForecastingBlock(
            primary=counting(HoltWintersForecaster, counts)(season_length=SEASON),
            fallback=counting(DoubleExponentialForecaster, counts)(),
        ),
    )
    monitoring = orchestrator.monitoring
    requests = {name: SliceRequest(name=name, template=EMBB_TEMPLATE) for name in NAMES}
    rng = np.random.default_rng(0)
    lengths = dict.fromkeys(NAMES, 0)
    last_tiers: dict[str, str] = {}  # recursive tier of each slice last epoch
    bumped: set[str] = set()
    rows = []
    for epoch in range(EPOCHS):
        live = [name for name in NAMES if is_live(name, epoch)]
        for name in live:
            level = 10.0 * (1.5 + np.sin(2 * np.pi * epoch / SEASON))
            monitoring.record_samples(name, "bs-0", epoch, level * rng.uniform(0.9, 1.1, 3))
            lengths[name] += 1

        before = (counts.fits, counts.refolded, counts.folded)
        forecasts = {name: orchestrator.forecast_for(requests[name]) for name in live}
        orchestrator.forecasting.retain(forecasts)
        fits, refolded, folded = (now - then for now, then in zip(
            (counts.fits, counts.refolded, counts.folded), before
        ))

        tiers = {name: tier(lengths[name]) for name in live if tier(lengths[name])}
        hits = sum(
            last_tiers.get(name) == kind and name not in bumped
            for name, kind in tiers.items()
        )
        rows.append(
            {
                "epoch": epoch,
                "live": len(live),
                "recursive": len(tiers),
                "expected_hits": hits,
                "fits": fits,
                "incremental": folded - refolded,
                "memo": len(orchestrator.forecasting._folds),
            }
        )
        if epoch % 250 == 249:
            for name in live:
                fresh = ForecastingBlock(primary=HoltWintersForecaster(season_length=SEASON))
                history = monitoring.peak_history(name)
                assert forecasts[name] == fresh.forecast_for(requests[name], history)

        last_tiers, bumped = tiers, set()
        if epoch % BUMP_EVERY == 50 and live:
            # A late report for this very epoch, after it was forecast on.
            monitoring.record_samples(live[0], "bs-0", epoch, [1000.0])
            bumped.add(live[0])
    return {"rows": rows, "monitoring": monitoring, "reported": sum(lengths.values())}


@pytest.fixture(scope="module")
def soak(soak_run):
    return soak_run["rows"]


def test_each_epoch_folds_one_peak_per_continuing_slice(soak):
    for row in soak:
        assert row["incremental"] == row["expected_hits"], row
        assert row["fits"] == row["recursive"] - row["expected_hits"], row


def test_the_memo_holds_only_what_the_epoch_forecast(soak):
    for row in soak:
        assert row["memo"] == row["recursive"] <= row["live"], row


def test_the_steady_state_epoch_does_not_grow_with_age(soak):
    steady = [row for row in soak if row["fits"] == 0 and row["recursive"]]
    assert len(steady) > 0.85 * EPOCHS
    # Every such epoch steps each live slice once, on day 3 as on day 160.
    assert all(row["incremental"] == row["recursive"] <= row["live"] for row in steady)
    # First forecasts, hand-overs, renewals and bumps: ~1 in 100 forecasts.
    refolds = sum(row["fits"] for row in soak)
    assert 0 < refolds < 0.02 * sum(row["recursive"] for row in soak)


def test_every_reported_epoch_has_one_peak(soak_run):
    monitoring = soak_run["monitoring"]
    peaks = sum(monitoring.peak_history(name).size for name in NAMES)
    assert peaks == soak_run["reported"]


def test_monitoring_holds_one_peak_per_reported_epoch(soak_run):
    # Three samples went into every report; none of them is kept.
    assert floats_held(soak_run["monitoring"]) == soak_run["reported"]
