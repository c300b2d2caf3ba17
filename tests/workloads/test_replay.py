"""Columnar replay engine tests: differential reference, invariants, history.

``naive_replay`` re-implements the engine's semantics the slow, obvious
way -- a Python list of live slices scanned every epoch -- and the
differential tests require the wheel-based engine to match it metric for
metric.  Conservation and capacity invariants then hold on the city
catalogue, and the per-epoch history is shown to hold every metric of
every epoch: what the callback saw, what the totals sum and what the
stream fingerprint digests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.workloads.campaigns import QUICK_TRACE
from repro.workloads.catalogue import CITY_CATALOGUE
from repro.workloads.replay import REPLAY_METRICS, ColumnarReplayEngine
from repro.workloads.trace import TraceSpec, iter_trace

pytestmark = pytest.mark.workloads


def small_spec(**overrides) -> TraceSpec:
    base = dict(
        name="small",
        catalogue=CITY_CATALOGUE,
        horizon_epochs=40,
        arrival_rate=8.0,
        window_population=30,
        early_release_probability=0.15,
        renewal_probability=0.3,
        aggregate_capacity_mbps=20_000.0,
    )
    base.update(overrides)
    return TraceSpec(**base)


def naive_replay(spec: TraceSpec, seed: int) -> dict[str, list[float]]:
    """O(live)-per-epoch reference with the engine's exact semantics."""
    classes = spec.catalogue.classes
    live: list[dict] = []  # {"load", "reward", "depart", "tenant_release"}
    renewal_ticks: dict[int, int] = {}
    history: dict[str, list[float]] = {name: [] for name in REPLAY_METRICS}
    for batch in iter_trace(spec, seed):
        epoch = batch.epoch
        released = expired = 0
        still = []
        for entry in live:
            if entry["depart"] == epoch:
                if entry["tenant_release"]:
                    released += 1
                else:
                    expired += 1
            else:
                still.append(entry)
        live = still
        renewed = renewal_ticks.pop(epoch, 0)

        occupancy = sum(entry["load"] for entry in live)
        arrivals = []
        for row in range(len(batch)):
            cls = classes[int(batch.class_index[row])]
            load = cls.load_estimate_mbps(float(batch.demand_fraction[row]))
            arrivals.append(
                {
                    "row": row,
                    "load": load,
                    "reward": cls.slice_template().reward,
                    "density": cls.slice_template().reward / load,
                }
            )
        # Reward-density greedy, deterministic arrival order breaking ties
        # (argsort(-density, stable) admits the *prefix* that fits: a big
        # arrival that overflows the budget blocks everything after it).
        order = sorted(arrivals, key=lambda a: -a["density"])
        budget = spec.aggregate_capacity_mbps - occupancy
        booked = 0.0
        admitted_rows = []
        for entry in order:
            if booked + entry["load"] <= budget:
                booked += entry["load"]
                admitted_rows.append(entry)
            else:
                break
        for entry in admitted_rows:
            row = entry["row"]
            duration = int(batch.duration_epochs[row])
            renewals = int(batch.renewals[row])
            release = int(batch.early_release_epoch[row])
            term_end = epoch + duration * (1 + renewals)
            depart = release if release >= 0 else term_end
            first_term = epoch + duration
            if renewals > 0 and depart > first_term:
                renewal_ticks[first_term] = renewal_ticks.get(first_term, 0) + 1
            live.append(
                {
                    "load": entry["load"],
                    "reward": entry["reward"],
                    "depart": depart,
                    "tenant_release": release >= 0,
                }
            )
        occupancy = sum(entry["load"] for entry in live)
        metrics = {
            "arrivals": float(len(batch)),
            "admitted": float(len(admitted_rows)),
            "rejected": float(len(batch) - len(admitted_rows)),
            "released": float(released),
            "expired": float(expired),
            "renewed": float(renewed),
            "live": float(len(live)),
            "occupancy_mbps": occupancy,
            "revenue_rate": sum(entry["reward"] for entry in live),
        }
        for name in REPLAY_METRICS:
            history[name].append(metrics[name])
    return history


class TestDifferentialAgainstNaiveReference:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_engine_matches_reference_metric_streams(self, seed):
        spec = small_spec()
        result = ColumnarReplayEngine(spec, seed=seed).run()
        reference = naive_replay(spec, seed)
        for name in ("arrivals", "admitted", "rejected", "released", "expired",
                     "renewed", "live"):
            assert result.history[name] == reference[name], name
        np.testing.assert_allclose(
            result.history["occupancy_mbps"], reference["occupancy_mbps"], rtol=1e-9
        )
        np.testing.assert_allclose(
            result.history["revenue_rate"], reference["revenue_rate"], rtol=1e-9
        )

    def test_engine_matches_reference_under_pressure(self):
        spec = small_spec(aggregate_capacity_mbps=2_000.0, arrival_rate=20.0)
        result = ColumnarReplayEngine(spec, seed=3).run()
        reference = naive_replay(spec, 3)
        assert result.history["admitted"] == reference["admitted"]
        assert result.history["rejected"] == reference["rejected"]
        assert result.total_rejected > 0  # the pressure case must actually reject


class TestInvariants:
    def test_conservation(self):
        result = ColumnarReplayEngine(small_spec(), seed=5).run()
        assert result.total_arrivals == result.total_admitted + result.total_rejected
        assert (
            result.total_admitted
            == result.total_released + result.total_expired + result.final_live
        )

    def test_capacity_never_exceeded(self):
        spec = small_spec(aggregate_capacity_mbps=3_000.0, arrival_rate=25.0)
        result = ColumnarReplayEngine(spec, seed=2).run()
        assert max(result.history["occupancy_mbps"]) <= spec.aggregate_capacity_mbps
        assert result.peak_occupancy_mbps <= spec.aggregate_capacity_mbps

    def test_live_history_is_consistent_with_deltas(self):
        result = ColumnarReplayEngine(small_spec(), seed=9).run()
        live = 0
        for epoch in range(result.epochs):
            live += int(result.history["admitted"][epoch])
            live -= int(result.history["released"][epoch])
            live -= int(result.history["expired"][epoch])
            assert live == int(result.history["live"][epoch])
        assert live == result.final_live

    def test_quick_trace_is_non_trivial(self):
        result = ColumnarReplayEngine(QUICK_TRACE, seed=1).run()
        assert result.total_admitted > 0
        assert result.total_released > 0
        assert result.total_expired > 0
        assert result.total_renewed > 0
        assert result.peak_live > 0


class TestDeterminismAndAggregation:
    def test_stream_fingerprint_is_stable_and_seed_sensitive(self):
        spec = small_spec()
        first = ColumnarReplayEngine(spec, seed=4).run()
        second = ColumnarReplayEngine(spec, seed=4).run()
        other = ColumnarReplayEngine(spec, seed=5).run()
        assert first.stream_fingerprint == second.stream_fingerprint
        assert first.stream_fingerprint != other.stream_fingerprint

    def test_history_holds_every_metric_of_every_epoch(self):
        spec = small_spec(horizon_epochs=48)
        seen: list[dict[str, float]] = []
        result = ColumnarReplayEngine(spec, seed=1).run(
            on_epoch=lambda epoch, metrics: seen.append(dict(metrics))
        )
        assert set(result.history) == set(REPLAY_METRICS)
        for name in REPLAY_METRICS:
            assert result.history[name] == [metrics[name] for metrics in seen], name

    def test_history_is_what_the_stream_fingerprint_digests(self):
        spec = small_spec(horizon_epochs=30)
        result = ColumnarReplayEngine(spec, seed=2).run()
        digest = hashlib.sha256()
        for epoch in range(spec.horizon_epochs):
            metrics = {name: result.history[name][epoch] for name in REPLAY_METRICS}
            digest.update(
                json.dumps(
                    {"epoch": epoch, **metrics}, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
            )
        assert digest.hexdigest() == result.stream_fingerprint

    @pytest.mark.parametrize("seed", [0, 8, 13])
    def test_history_adds_up_to_the_totals(self, seed):
        result = ColumnarReplayEngine(small_spec(), seed=seed).run()
        history = result.history
        for name in ("arrivals", "admitted", "rejected", "released", "expired", "renewed"):
            assert sum(history[name]) == getattr(result, f"total_{name}"), name
        assert max(history["live"]) == result.peak_live
        assert history["live"][-1] == result.final_live
        assert result.mean_live == sum(history["live"]) / result.epochs
        assert max(history["occupancy_mbps"]) == result.peak_occupancy_mbps

    def test_on_epoch_callback_sees_every_epoch(self):
        seen: list[int] = []
        spec = small_spec(horizon_epochs=15)
        ColumnarReplayEngine(spec, seed=1).run(
            on_epoch=lambda epoch, metrics: seen.append(epoch)
        )
        assert seen == list(range(15))

    def test_memory_tracks_peak_live_not_trace_length(self):
        spec = dataclasses.replace(
            small_spec(), horizon_epochs=120, arrival_rate=10.0
        )
        engine = ColumnarReplayEngine(spec, seed=6)
        result = engine.run()
        assert result.total_admitted > result.peak_live  # slots were recycled
