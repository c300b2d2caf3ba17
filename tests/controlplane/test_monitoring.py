"""Tests for the monitoring service (per-epoch peak histories)."""

import numpy as np
import pytest

from repro.controlplane.monitoring import MonitoringService
from repro.controlplane.tsdb import TimeSeriesStore


class TestPeakHistory:
    def test_peak_per_epoch(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [1.0, 4.0, 2.0])
        monitoring.record_samples("s", "bs-0", 1, [3.0, 3.5])
        history = monitoring.peak_history("s", base_station="bs-0")
        assert np.allclose(history, [4.0, 3.5])

    def test_peak_across_base_stations(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [1.0])
        monitoring.record_samples("s", "bs-1", 0, [7.0])
        monitoring.record_samples("s", "bs-0", 1, [2.0])
        monitoring.record_samples("s", "bs-1", 1, [1.0])
        assert np.allclose(monitoring.peak_history("s"), [7.0, 2.0])

    def test_unknown_slice_has_empty_history(self):
        assert MonitoringService().peak_history("ghost").size == 0

    def test_observed_base_stations(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-1", 0, [1.0])
        monitoring.record_samples("s", "bs-0", 0, [1.0])
        monitoring.record_samples("other", "bs-9", 0, [1.0])
        assert monitoring.observed_base_stations("s") == ["bs-0", "bs-1"]


class TestPeakHistoryReads:
    """The merged peak history is rebuilt on every call and reflects every
    write, however it reached the store."""

    def test_each_call_returns_a_fresh_array(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [1.0, 2.0])
        first = monitoring.peak_history("s")
        second = monitoring.peak_history("s")
        assert second is not first
        assert second.tolist() == first.tolist() == [2.0]
        first[0] = -1.0  # a caller's edit does not leak into the next read
        assert monitoring.peak_history("s").tolist() == [2.0]

    def test_write_shows_in_the_next_read(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [1.0])
        before = monitoring.peak_history("s")
        monitoring.record_samples("s", "bs-0", 1, [5.0])
        assert before.tolist() == [1.0]
        assert monitoring.peak_history("s").tolist() == [1.0, 5.0]

    def test_new_base_station_shows_in_the_next_read(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [1.0])
        monitoring.peak_history("s")
        monitoring.record_samples("s", "bs-1", 0, [9.0])
        assert monitoring.peak_history("s").tolist() == [9.0]

    def test_direct_store_writes_are_detected(self):
        """Even bypassing record_samples, a write shows in the next read."""
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [2.0])
        monitoring.peak_history("s")
        monitoring.store.write_many(
            "slice_load_mbps", 1, [7.0], tags={"slice": "s", "bs": "bs-0"}
        )
        assert monitoring.peak_history("s").tolist() == [2.0, 7.0]

    def test_histories_are_per_slice(self):
        monitoring = MonitoringService()
        monitoring.record_samples("a", "bs-0", 0, [1.0])
        monitoring.record_samples("b", "bs-0", 0, [2.0])
        monitoring.record_samples("b", "bs-0", 1, [3.0])
        assert monitoring.peak_history("a").tolist() == [1.0]
        assert monitoring.peak_history("b").tolist() == [2.0, 3.0]

    def test_direct_store_write_to_a_new_base_station_is_detected(self):
        """A brand-new series written behind the service's back (shared
        store) must invalidate the cached station list, not be ignored."""
        store = TimeSeriesStore()
        monitoring = MonitoringService(store=store)
        monitoring.record_samples("s", "bs-0", 0, [2.0])
        assert monitoring.peak_history("s").tolist() == [2.0]
        store.write_many("slice_load_mbps", 0, [9.0], tags={"slice": "s", "bs": "bs-1"})
        assert monitoring.observed_base_stations("s") == ["bs-0", "bs-1"]
        assert monitoring.peak_history("s").tolist() == [9.0]


def merged_epoch_by_epoch(monitoring: MonitoringService, slice_name: str) -> np.ndarray:
    """The cross-station merge as it was before the aligned-axis shortcut:
    every epoch of every station through a dict.  The reference."""
    merged: dict[int, float] = {}
    for bs in monitoring.observed_base_stations(slice_name):
        epochs, peaks = monitoring.store.peak_series(
            "slice_load_mbps", tags={"slice": slice_name, "bs": bs}
        )
        for epoch, value in zip(epochs, peaks):
            merged[int(epoch)] = max(merged.get(int(epoch), 0.0), float(value))
    return np.array([merged[e] for e in sorted(merged)])


class TestCrossStationMerge:
    """Aligned epoch axes take an element-wise maximum, ragged ones the
    epoch-by-epoch merge: the same array bit for bit either way."""

    @staticmethod
    def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
        return got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def record(self, monitoring, slice_name, stations, epochs, seed=0):
        rng = np.random.default_rng(seed)
        for epoch in epochs:
            for bs in stations:
                monitoring.record_samples(slice_name, bs, epoch, rng.uniform(0.0, 50.0, 12))

    def test_aligned_axes(self):
        monitoring = MonitoringService()
        self.record(monitoring, "s", ["bs-0", "bs-1", "bs-2"], range(40))
        history = monitoring.peak_history("s")
        assert history.shape == (40,)
        assert self.same_bits(history, merged_epoch_by_epoch(monitoring, "s"))
        # A copy, not a window onto the store's ring buffer: the next write
        # bumps the trailing peak in place.
        monitoring.record_samples("s", "bs-0", 39, [999.0])
        assert history[-1] != 999.0
        assert monitoring.peak_history("s")[-1] == 999.0

    def test_single_station_and_the_floor_at_zero(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [-3.0, -1.0])
        monitoring.record_samples("s", "bs-0", 1, [2.0])
        assert self.same_bits(monitoring.peak_history("s"), np.array([0.0, 2.0]))
        assert self.same_bits(monitoring.peak_history("s"), merged_epoch_by_epoch(monitoring, "s"))

    def test_slice_that_reaches_one_station_an_epoch_late(self):
        monitoring = MonitoringService()
        self.record(monitoring, "s", ["bs-0", "bs-1"], range(3))
        self.record(monitoring, "s", ["bs-0", "bs-1", "bs-2"], range(3, 9), seed=1)
        history = monitoring.peak_history("s")  # bs-2's axis starts at 3: ragged
        assert history.shape == (9,)
        assert self.same_bits(history, merged_epoch_by_epoch(monitoring, "s"))

    def test_station_that_skips_an_epoch(self):
        # Same length, same first and last epoch, different axis.
        monitoring = MonitoringService()
        for epoch, stations in enumerate([("a", "b"), ("a",), ("a", "b"), ("b",), ("a", "b")]):
            self.record(monitoring, "s", stations, [epoch], seed=epoch)
        history = monitoring.peak_history("s")
        assert history.shape == (5,)
        assert self.same_bits(history, merged_epoch_by_epoch(monitoring, "s"))

    def test_retention_keeps_the_axes_aligned(self):
        monitoring = MonitoringService(retention_epochs=5)
        self.record(monitoring, "s", ["bs-0", "bs-1"], range(30))
        history = monitoring.peak_history("s")
        assert history.shape == (5,)
        assert self.same_bits(history, merged_epoch_by_epoch(monitoring, "s"))


class TestRetention:
    def test_peak_history_covers_the_retained_window_only(self):
        monitoring = MonitoringService(retention_epochs=4)
        for epoch in range(10):
            monitoring.record_samples("s", "bs-0", epoch, [float(epoch)])
        history = monitoring.peak_history("s", base_station="bs-0")
        assert history.tolist() == [6.0, 7.0, 8.0, 9.0]

    def test_explicit_store_and_retention_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            MonitoringService(store=TimeSeriesStore(), retention_epochs=3)


class TestForecasterHandoff:
    """Monitoring -> Forecasting: the peak history must feed every
    fallback tier of the forecasting block with usable inputs."""

    def _record_diurnal_history(self, monitoring, slice_name, num_epochs, peak=40.0):
        for epoch in range(num_epochs):
            level = peak * (0.5 + 0.5 * np.sin(2 * np.pi * epoch / 24.0) ** 2)
            monitoring.record_samples(
                slice_name, "bs-0", epoch, [level * 0.9, level, level * 0.95]
            )

    def test_history_drives_holt_winters_once_two_seasons_exist(self):
        from repro.controlplane.orchestrator import ForecastingBlock
        from repro.core.slices import EMBB_TEMPLATE, SliceRequest
        from repro.forecasting.holt_winters import HoltWintersForecaster

        monitoring = MonitoringService()
        self._record_diurnal_history(monitoring, "s", num_epochs=49)
        block = ForecastingBlock(primary=HoltWintersForecaster(season_length=24))
        request = SliceRequest(name="s", template=EMBB_TEMPLATE)
        history = monitoring.peak_history("s")
        assert history.size == 49
        assert block.primary.can_forecast(history)
        forecast = block.forecast_for(request, history)
        assert 0.0 < forecast.lambda_hat_mbps <= request.sla_mbps
        assert 0.0 < forecast.sigma_hat <= 1.0

    def test_short_history_falls_back_without_full_sla_pessimism(self):
        from repro.controlplane.orchestrator import ForecastingBlock
        from repro.core.slices import EMBB_TEMPLATE, SliceRequest
        from repro.forecasting.holt_winters import HoltWintersForecaster

        monitoring = MonitoringService()
        self._record_diurnal_history(monitoring, "s", num_epochs=5)
        block = ForecastingBlock(primary=HoltWintersForecaster(season_length=24))
        request = SliceRequest(name="s", template=EMBB_TEMPLATE)
        history = monitoring.peak_history("s")
        assert not block.primary.can_forecast(history)
        forecast = block.forecast_for(request, history)
        # Fallback tiers engage: the forecast tracks the observed ~40 Mb/s
        # peaks instead of the pessimistic full-SLA reservation.
        assert forecast.lambda_hat_mbps < request.sla_mbps * 0.999

    def test_retention_bounds_what_the_forecaster_sees(self):
        monitoring = MonitoringService(retention_epochs=24)
        self._record_diurnal_history(monitoring, "s", num_epochs=100)
        history = monitoring.peak_history("s")
        assert history.size == 24

    def test_retention_below_two_seasons_flips_holt_winters_to_double_exponential(self):
        """Satellite regression: pruning below ``2 * season_length`` must
        cleanly drop the forecasting block from Holt-Winters to double
        exponential smoothing -- same API, no pessimistic full-SLA reset."""
        from repro.controlplane.orchestrator import ForecastingBlock
        from repro.core.slices import EMBB_TEMPLATE, SliceRequest
        from repro.forecasting.holt_winters import HoltWintersForecaster

        season = 24
        block = ForecastingBlock(primary=HoltWintersForecaster(season_length=season))
        request = SliceRequest(name="s", template=EMBB_TEMPLATE)

        unbounded = MonitoringService()
        pruned = MonitoringService(retention_epochs=2 * season - 1)
        for monitoring in (unbounded, pruned):
            self._record_diurnal_history(monitoring, "s", num_epochs=100)

        long_history = unbounded.peak_history("s")
        short_history = pruned.peak_history("s")
        assert block.primary.can_forecast(long_history)
        assert not block.primary.can_forecast(short_history)
        assert block.fallback.can_forecast(short_history)

        forecast = block.forecast_for(request, short_history)
        # The fallback still tracks the observed ~40 Mb/s peaks: retention
        # must never knock a learnt slice back to full-SLA pessimism.
        assert forecast.lambda_hat_mbps < request.sla_mbps * 0.999
        assert 0.0 < forecast.sigma_hat <= 1.0

    def test_retention_flip_leaves_override_scenarios_untouched(self):
        """Forecast overrides bypass the monitoring path entirely, so
        retention-driven fallback flips must not change override-driven
        (Fig. 5 / Fig. 6 oracle) decisions."""
        from repro.controlplane.orchestrator import E2EOrchestrator, OrchestratorConfig
        from repro.core.forecast_inputs import ForecastInput
        from repro.core.milp_solver import DirectMILPSolver
        from repro.core.slices import EMBB_TEMPLATE, SliceRequest
        from tests.conftest import build_tiny_topology

        def run(retention):
            orchestrator = E2EOrchestrator(
                topology=build_tiny_topology(),
                solver=DirectMILPSolver(),
                config=OrchestratorConfig(epochs_per_day=24, samples_per_epoch=3),
                monitoring=MonitoringService(retention_epochs=retention),
            )
            orchestrator.forecast_overrides["s"] = ForecastInput(
                lambda_hat_mbps=12.0, sigma_hat=0.3
            )
            orchestrator.submit_request(
                SliceRequest(name="s", template=EMBB_TEMPLATE, duration_epochs=80)
            )
            decisions = []
            for epoch in range(60):
                decision = orchestrator.run_epoch(epoch)
                for bs in ("bs-0", "bs-1"):
                    orchestrator.observe_load("s", bs, epoch, [10.0, 12.0, 11.0])
                decisions.append(decision)
            return decisions

        pruned = run(retention=12)       # well below 2 * season_length
        unbounded = run(retention=None)
        for lhs, rhs in zip(pruned, unbounded):
            assert lhs.objective_value == rhs.objective_value
            assert sorted(lhs.accepted_tenants) == sorted(rhs.accepted_tenants)
            for name, allocation in lhs.allocations.items():
                assert allocation.reservations_mbps == rhs.allocations[name].reservations_mbps

    def test_orchestrator_observe_load_feeds_the_handoff(self):
        from repro.controlplane.orchestrator import E2EOrchestrator, OrchestratorConfig
        from repro.core.milp_solver import DirectMILPSolver
        from repro.core.slices import EMBB_TEMPLATE, SliceRequest
        from tests.conftest import build_tiny_topology

        orchestrator = E2EOrchestrator(
            topology=build_tiny_topology(),
            solver=DirectMILPSolver(),
            config=OrchestratorConfig(epochs_per_day=4),
        )
        request = SliceRequest(name="s", template=EMBB_TEMPLATE)
        for epoch in range(9):
            orchestrator.observe_load("s", "bs-0", epoch, [20.0, 21.0, 19.5])
        forecast = orchestrator.forecast_for(request)
        assert forecast.lambda_hat_mbps == pytest.approx(21.0, rel=0.25)
        assert 0.0 < forecast.sigma_hat <= 1.0
