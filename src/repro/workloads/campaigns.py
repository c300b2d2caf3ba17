"""The ``trace-replay`` campaign run kind: city-scale workload replays.

Each run replays one content-hashed :class:`~repro.workloads.trace.TraceSpec`
through the columnar engine under a campaign-derived seed and caches the
per-epoch admission/revenue/occupancy summaries -- the standard campaign
machinery (content-addressed cache, executors, resume) applies unchanged.

Two module-level trace presets feed the CLI profiles:

* :data:`QUICK_TRACE` -- a minutes-scale city block (hundreds of live
  slices) for interactive runs and the test suite;
* :data:`CITY_TRACE` -- the full city week: ~2 400 Poisson arrivals per
  epoch over 7 seasonal days plus a 20k IoT arrival-window population,
  sustaining > 100 000 live slices per epoch in steady state (the
  ROADMAP's city-scale deliverable, benchmarked by
  ``benchmarks/bench_trace_replay.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    RunSpec,
    register_run_kind,
)
from repro.utils.validation import ensure_positive_int
from repro.workloads.catalogue import CITY_CATALOGUE
from repro.workloads.replay import ColumnarReplayEngine
from repro.workloads.trace import FlashCrowd, TraceSpec, diurnal_profile

__all__ = [
    "QUICK_TRACE",
    "CITY_TRACE",
    "trace_replay_campaign",
    "reduce_trace_replay",
    "format_trace_replay",
    "TraceReplayRow",
]

#: Metric series copied into each run record's extras (per-epoch lists).
_EXTRA_SERIES = ("live", "admitted", "rejected", "occupancy_mbps", "revenue_rate")


QUICK_TRACE = TraceSpec(
    name="city-quick",
    catalogue=CITY_CATALOGUE,
    horizon_epochs=48,
    epochs_per_day=24,
    arrival_rate=24.0,
    window_population=120,
    day_profile=diurnal_profile(24),
    early_release_probability=0.05,
    renewal_probability=0.2,
    flash_crowds=(FlashCrowd(epoch=30, duration_epochs=4, magnitude=3.0),),
    aggregate_capacity_mbps=40_000.0,
)

CITY_TRACE = TraceSpec(
    name="city-week",
    catalogue=CITY_CATALOGUE,
    horizon_epochs=168,
    epochs_per_day=24,
    arrival_rate=2_400.0,
    window_population=20_000,
    day_profile=diurnal_profile(24),
    early_release_probability=0.05,
    renewal_probability=0.25,
    flash_crowds=(FlashCrowd(epoch=120, duration_epochs=6, magnitude=2.5),),
    aggregate_capacity_mbps=6_000_000.0,
)


@register_run_kind("trace-replay")
def _run_trace_replay(spec: RunSpec) -> dict[str, Any]:
    """Replay the spec's trace through the columnar engine."""
    trace = TraceSpec.from_dict(spec.params["trace"])
    engine = ColumnarReplayEngine(trace, seed=spec.seed if spec.seed is not None else 0)
    result = engine.run()
    return {
        "summary": result.summary(),
        "extras": {
            "trace": trace.name,
            "spec_fingerprint": result.spec_fingerprint,
            "stream_fingerprint": result.stream_fingerprint,
            "series": {name: result.history[name] for name in _EXTRA_SERIES},
        },
    }


def trace_replay_campaign(
    trace: TraceSpec,
    num_replays: int = 2,
    base_seed: int = 23,
) -> Campaign:
    """Declare ``num_replays`` independent replays of one trace.

    The trace declaration travels in every spec (content-addressed cache
    keys follow the trace's JSON), and each replay index draws an
    independent campaign-derived seed.
    """
    num_replays = ensure_positive_int(num_replays, "num_replays")
    specs = tuple(
        RunSpec(
            experiment=f"trace-replay-{trace.name}",
            kind="trace-replay",
            params={
                "trace": trace.to_dict(),
                "replay_index": index,
            },
        )
        for index in range(num_replays)
    )
    return Campaign(
        name=f"trace-replay-{trace.name}", specs=specs, base_seed=base_seed
    )


# --------------------------------------------------------------------- #
# Reduction
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TraceReplayRow:
    """Reduced outcome of one replay run."""

    replay_index: int
    peak_live: int
    mean_live: float
    total_admitted: int
    total_rejected: int
    total_revenue: float
    mean_occupancy_fraction: float
    stream_fingerprint: str


def reduce_trace_replay(result: CampaignResult) -> list[TraceReplayRow]:
    """One row per replay, ordered by replay index."""
    rows = []
    for record in result.records:
        rows.append(
            TraceReplayRow(
                replay_index=int(record.spec.params["replay_index"]),
                peak_live=int(record.summary["peak_live"]),
                mean_live=float(record.summary["mean_live"]),
                total_admitted=int(record.summary["total_admitted"]),
                total_rejected=int(record.summary["total_rejected"]),
                total_revenue=float(record.summary["total_revenue"]),
                mean_occupancy_fraction=float(
                    record.summary["mean_occupancy_fraction"]
                ),
                stream_fingerprint=str(record.extras["stream_fingerprint"]),
            )
        )
    return sorted(rows, key=lambda row: row.replay_index)


def format_trace_replay(rows: list[TraceReplayRow]) -> str:
    """Human-readable summary of a trace-replay campaign."""
    lines = []
    for row in rows:
        lines.append(
            f"replay {row.replay_index}: peak live {row.peak_live:>7}, "
            f"mean live {row.mean_live:>9.1f}, admitted {row.total_admitted}, "
            f"rejected {row.total_rejected}, "
            f"occupancy {row.mean_occupancy_fraction:.1%}, "
            f"revenue {row.total_revenue:.0f}"
        )
    if rows:
        floor = min(row.peak_live for row in rows)
        lines.append(f"min peak live across replays: {floor}")
    return "\n".join(lines)
