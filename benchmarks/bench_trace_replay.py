"""City-scale trace-replay throughput baseline (the ROADMAP's 100k target).

Two benchmarks pin the workload tier's scale contract:

* **city throughput** -- replay the full city week (:data:`CITY_TRACE`:
  ~2 400 Poisson arrivals/epoch over 7 seasonal days plus a 20k
  arrival-window IoT population) through the columnar engine and assert it
  sustains >= 100 000 live slices per epoch.  The committed baseline
  records live slices per epoch (peak and mean), epochs per second and
  peak RSS in ``benchmark.extra_info`` (and thus in ``BENCH_perf.json``
  and CI's uploaded artifact).

* **sublinear per-epoch cost** -- two replays with *identical churn*
  (1 000 arrivals/epoch) but 10x different contract durations, so the
  steady-state registry holds ~10k vs ~100k live slices.  Because the
  engine's per-epoch work is O(churn) -- expiry wheels, incremental
  occupancy/revenue, columnar admission -- the mean steady-state epoch
  time may not scale with the live-set size: the 100k/10k ratio is pinned
  far below the 10x a linear scan would show.

Record/compare a baseline with::

    PYTHONPATH=src python -m pytest benchmarks/bench_trace_replay.py \
        --benchmark-json=BENCH_trace_replay.json -q
"""

from __future__ import annotations

import os
import resource
import time

import pytest

from repro.workloads.campaigns import CITY_TRACE
from repro.workloads.catalogue import SliceClass, TemplateCatalogue
from repro.workloads.replay import ColumnarReplayEngine
from repro.workloads.trace import TraceSpec

pytestmark = pytest.mark.perf

#: Live-slice floor the city replay must sustain (the ROADMAP target).
CITY_LIVE_FLOOR = int(os.environ.get("REPRO_BENCH_CITY_LIVE_FLOOR", "100000"))

#: Allowed steady-state per-epoch time ratio between the ~100k-live and the
#: ~10k-live replay (identical churn).  A linear O(registry) pass would show
#: ~10x; the wheel-based engine stays near 1x, so 3x is a generous guard
#: against noisy CI runners.
SUBLINEAR_RATIO_BOUND = float(os.environ.get("REPRO_BENCH_SUBLINEAR_RATIO", "3.0"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_city_scale_replay_throughput(benchmark):
    """Replay the city week; commit the 100k-live throughput baseline."""
    spec = CITY_TRACE
    outcome = {}

    def replay():
        engine = ColumnarReplayEngine(spec, seed=1)
        started = time.perf_counter()
        result = engine.run()
        outcome["elapsed_s"] = time.perf_counter() - started
        outcome["result"] = result
        return result

    result = benchmark.pedantic(replay, rounds=1, iterations=1)

    assert result.peak_live >= CITY_LIVE_FLOOR, (
        f"city replay peaked at {result.peak_live} live slices; "
        f"the workload tier must sustain >= {CITY_LIVE_FLOOR}"
    )
    assert result.mean_live >= CITY_LIVE_FLOOR, (
        f"mean live population {result.mean_live:.0f} fell below the "
        f"{CITY_LIVE_FLOOR} sustained-load floor"
    )
    # Determinism across engine instances: same (spec, seed) -> identical
    # per-epoch stream.
    rerun = ColumnarReplayEngine(spec, seed=1).run()
    assert rerun.stream_fingerprint == result.stream_fingerprint

    elapsed = outcome["elapsed_s"]
    benchmark.extra_info.update(
        {
            "epochs": result.epochs,
            "total_arrivals": result.total_arrivals,
            "peak_live_slices_per_epoch": result.peak_live,
            "mean_live_slices_per_epoch": round(result.mean_live, 1),
            "epochs_per_s": round(result.epochs / elapsed, 2),
            "arrivals_per_s": round(result.total_arrivals / elapsed, 1),
            "peak_rss_mb": round(_peak_rss_mb(), 1),
            "stream_fingerprint": result.stream_fingerprint,
        }
    )


def _flat_churn_spec(duration_epochs: int, horizon_epochs: int) -> TraceSpec:
    """1 000 arrivals/epoch with fixed-duration contracts and flat seasons.

    Steady-state live population = rate x duration, so scaling the
    duration scales the registry while the per-epoch churn stays fixed.
    """
    catalogue = TemplateCatalogue(
        name=f"flat-d{duration_epochs}",
        classes=(
            SliceClass(
                name="embb-flat",
                template="eMBB",
                elastic=True,
                weight=1.0,
                duration_epochs=(duration_epochs, duration_epochs),
                mean_fraction=0.35,
                relative_std=0.2,
            ),
        ),
    )
    return TraceSpec(
        name=f"flat-churn-d{duration_epochs}",
        catalogue=catalogue,
        horizon_epochs=horizon_epochs,
        epochs_per_day=24,
        arrival_rate=1_000.0,
        day_profile=(1.0,) * 24,
        week_profile=(1.0,),
        aggregate_capacity_mbps=1e9,
    )


def _steady_epoch_seconds(spec: TraceSpec, warmup_epochs: int) -> tuple[float, int]:
    """Mean wall-clock seconds per epoch after ``warmup_epochs``, plus the
    steady-state live-slice count (trace generation + engine, the full
    per-epoch driver cost)."""
    timings: list[float] = []
    live_counts: list[float] = []
    last = time.perf_counter()

    def on_epoch(epoch: int, metrics: dict) -> None:
        nonlocal last
        now = time.perf_counter()
        if epoch >= warmup_epochs:
            timings.append(now - last)
            live_counts.append(metrics["live"])
        last = now

    ColumnarReplayEngine(spec, seed=3).run(on_epoch=on_epoch)
    return sum(timings) / len(timings), int(sum(live_counts) / len(live_counts))


def test_per_epoch_cost_sublinear_in_registry(benchmark):
    """Identical churn, 10x registry: per-epoch time must not scale with it."""
    small = _flat_churn_spec(duration_epochs=10, horizon_epochs=160)
    large = _flat_churn_spec(duration_epochs=100, horizon_epochs=160)
    outcome = {}

    def measure():
        small_s, small_live = _steady_epoch_seconds(small, warmup_epochs=20)
        large_s, large_live = _steady_epoch_seconds(large, warmup_epochs=110)
        outcome.update(
            small_s=small_s, small_live=small_live,
            large_s=large_s, large_live=large_live,
        )
        return outcome

    benchmark.pedantic(measure, rounds=1, iterations=1)

    assert outcome["small_live"] < 15_000 < 90_000 < outcome["large_live"]
    ratio = outcome["large_s"] / outcome["small_s"]
    assert ratio < SUBLINEAR_RATIO_BOUND, (
        f"per-epoch driver cost grew {ratio:.2f}x when the live registry "
        f"grew {outcome['large_live'] / outcome['small_live']:.1f}x -- the "
        f"replay loop has O(registry) work in it"
    )
    benchmark.extra_info.update(
        {
            "steady_live_small": outcome["small_live"],
            "steady_live_large": outcome["large_live"],
            "epoch_ms_small": round(outcome["small_s"] * 1e3, 3),
            "epoch_ms_large": round(outcome["large_s"] * 1e3, 3),
            "per_epoch_cost_ratio": round(ratio, 3),
            "ratio_bound": SUBLINEAR_RATIO_BOUND,
        }
    )
