"""Tests for the monitoring service (per-slice peak tracks)."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane.monitoring import MonitoringService


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


class Recorder:
    """Feeds a monitoring service and keeps every sample it handed over,
    so a test can compute the peak history the paper defines --
    ``lambda^(t) = max_theta lambda^(theta)`` over every station, floored
    at zero, for every epoch that received a sample -- without reading
    the service back."""

    def __init__(self) -> None:
        self.monitoring = MonitoringService()
        self.samples: dict[str, dict[int, list[float]]] = {}

    def record(self, slice_name, base_station, epoch, block) -> None:
        self.monitoring.record_samples(slice_name, base_station, epoch, block)
        values = [float(value) for value in np.asarray(block, dtype=float).ravel()]
        if values:
            self.samples.setdefault(slice_name, {}).setdefault(epoch, []).extend(values)

    def reference(self, slice_name) -> np.ndarray:
        per_epoch = self.samples.get(slice_name, {})
        return np.array(
            [max(0.0, max(per_epoch[epoch])) for epoch in sorted(per_epoch)],
            dtype=np.float64,
        )


class TestPeakHistory:
    def test_peak_per_epoch(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [1.0, 4.0, 2.0])
        monitoring.record_samples("s", "bs-0", 1, [3.0, 3.5])
        assert monitoring.peak_history("s").tolist() == [4.0, 3.5]

    def test_peak_across_base_stations(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [1.0])
        monitoring.record_samples("s", "bs-1", 0, [7.0])
        monitoring.record_samples("s", "bs-0", 1, [2.0])
        monitoring.record_samples("s", "bs-1", 1, [1.0])
        assert monitoring.peak_history("s").tolist() == [7.0, 2.0]

    def test_unknown_slice_has_empty_history(self):
        history = MonitoringService().peak_history("ghost")
        assert history.shape == (0,) and history.dtype == np.float64

    def test_history_is_float64_whatever_the_samples(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [3, 5])
        monitoring.record_samples("s", "bs-0", 1, np.array([2.5], dtype=np.float32))
        history = monitoring.peak_history("s")
        assert history.dtype == np.float64
        assert history.tolist() == [5.0, 2.5]

    def test_block_of_any_shape_is_flattened(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, np.array([[1.0, 8.0], [3.0, 2.0]]))
        assert monitoring.peak_history("s").tolist() == [8.0]

    def test_numpy_integer_epochs(self):
        monitoring = MonitoringService()
        for epoch in np.arange(3):
            monitoring.record_samples("s", "bs-0", epoch, [float(epoch) + 1.0])
        monitoring.record_samples("s", "bs-1", np.int64(2), [9.0])
        assert monitoring.peak_history("s").tolist() == [1.0, 2.0, 9.0]


class TestPeakHistoryReads:
    """Every call copies the track out: it reflects every write so far and
    none after."""

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

    def test_raised_last_peak_leaves_an_earlier_read_alone(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [1.0])
        monitoring.record_samples("s", "bs-0", 1, [2.0])
        before = monitoring.peak_history("s")
        monitoring.record_samples("s", "bs-1", 1, [999.0])
        assert before.tolist() == [1.0, 2.0]
        assert monitoring.peak_history("s").tolist() == [1.0, 999.0]

    def test_new_base_station_shows_in_the_next_read(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [1.0])
        monitoring.peak_history("s")
        monitoring.record_samples("s", "bs-1", 0, [9.0])
        assert monitoring.peak_history("s").tolist() == [9.0]

    def test_histories_are_per_slice(self):
        monitoring = MonitoringService()
        monitoring.record_samples("a", "bs-0", 0, [1.0])
        monitoring.record_samples("b", "bs-0", 0, [2.0])
        monitoring.record_samples("b", "bs-0", 1, [3.0])
        assert monitoring.peak_history("a").tolist() == [1.0]
        assert monitoring.peak_history("b").tolist() == [2.0, 3.0]

    def test_lock_free_reader_sees_a_prefix(self):
        """A reader racing the writer (the broker's ``quote`` beside
        ``report_load``) gets a prefix of the final history, whose last
        entry may still be raised afterwards -- never a torn or
        half-written track."""
        monitoring = MonitoringService()
        epochs = 3000
        reads: list[np.ndarray] = []
        writing = threading.Event()

        def writer():
            try:
                for epoch in range(epochs):
                    monitoring.record_samples("s", "bs-0", epoch, [float(epoch)])
                    monitoring.record_samples("s", "bs-1", epoch, [epoch + 0.5])
            finally:
                writing.clear()

        def reader():
            while writing.is_set():
                reads.append(monitoring.peak_history("s"))

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writing.set()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            writing.clear()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        final = monitoring.peak_history("s")
        assert final.tolist() == [epoch + 0.5 for epoch in range(epochs)]
        assert reads
        for read in reads:
            size = read.size
            assert size <= epochs
            if size:
                assert same_bits(read[:-1], final[: size - 1])
                assert read[-1] in (size - 1.0, size - 0.5)


class TestPeakTrack:
    """How one report moves the track: a later epoch appends, the last
    epoch is raised in place, anything else is rejected whole."""

    @pytest.mark.parametrize(
        "writes, peaks",
        [
            pytest.param([("a", 0, [4.0]), ("b", 0, [4.0])], [4.0], id="equal-peak-keeps-it"),
            pytest.param([("a", 0, [4.0]), ("b", 0, [-9.0])], [4.0], id="negative-never-lowers"),
            pytest.param([("a", 0, [-3.0]), ("b", 0, [2.0])], [2.0], id="raised-off-the-floor"),
            pytest.param([("a", 0, [-3.0]), ("b", 0, [-1.0])], [0.0], id="floor-holds"),
            pytest.param(
                [("b", 0, [7.0]), ("a", 0, [3.0]), ("a", 1, [1.0]), ("b", 1, [2.0])],
                [7.0, 2.0],
                id="station-order-is-irrelevant",
            ),
            pytest.param(
                [("a", 0, [1.0]), ("b", 1, [2.0]), ("a", 2, [3.0]), ("b", 3, [4.0])],
                [1.0, 2.0, 3.0, 4.0],
                id="stations-taking-turns",
            ),
            pytest.param(
                [("a", 0, [1.0, 2.0]), ("a", 0, [0.5]), ("a", 0, [2.5, 0.0])],
                [2.5],
                id="one-station-reporting-late",
            ),
            pytest.param([("a", 9, [1.0]), ("a", 10, [])], [1.0], id="empty-later-epoch"),
        ],
    )
    def test_track_after_writes(self, writes, peaks):
        monitoring = MonitoringService()
        for bs, epoch, block in writes:
            monitoring.record_samples("s", bs, epoch, block)
        assert same_bits(monitoring.peak_history("s"), np.array(peaks))

    def test_repeated_reports_for_the_last_epoch_raise_it_in_place(self):
        monitoring = MonitoringService()
        for value in (1.0, 9.0, 4.0):
            monitoring.record_samples("s", "bs-0", 0, [value])
        assert monitoring.peak_history("s").tolist() == [9.0]

    def test_lower_report_for_the_last_epoch_changes_nothing(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [3.0])
        monitoring.record_samples("s", "bs-0", 1, [6.0])
        monitoring.record_samples("s", "bs-1", 1, [5.0, 2.0])
        assert monitoring.peak_history("s").tolist() == [3.0, 6.0]

    def test_skipped_epochs_are_not_filled_in(self):
        monitoring = MonitoringService()
        for epoch, value in ((0, 5.0), (2, 4.0), (7, 1.0)):
            monitoring.record_samples("s", "bs-0", epoch, [value])
        assert monitoring.peak_history("s").tolist() == [5.0, 4.0, 1.0]

    def test_negative_samples_floor_at_zero(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [-3.0, -1.0])
        monitoring.record_samples("s", "bs-1", 0, [-0.5])
        monitoring.record_samples("s", "bs-0", 1, [2.0])
        monitoring.record_samples("s", "bs-1", 2, [-7.0])
        assert same_bits(monitoring.peak_history("s"), np.array([0.0, 2.0, 0.0]))

    def test_empty_block_changes_nothing(self):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 3, [2.0, 1.0])
        monitoring.record_samples("s", "bs-0", 4, [])
        monitoring.record_samples("s", "bs-1", 4, np.array([]))
        assert monitoring.peak_history("s").tolist() == [2.0]
        # ... not even the order check: an empty block carries no sample,
        # and it does not move the slice's last epoch either.
        monitoring.record_samples("s", "bs-0", -5, [])
        monitoring.record_samples("s", "bs-0", 3, [4.0])
        assert monitoring.peak_history("s").tolist() == [4.0]
        # A block that would open a slice with nothing opens nothing.
        monitoring.record_samples("other", "bs-0", 3, [])
        assert monitoring.peak_history("other").size == 0

    @pytest.mark.parametrize("older", [4, 0, -1])
    def test_older_epoch_is_rejected_and_records_nothing(self, older):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 5, [1.0, 4.0])
        with pytest.raises(ValueError, match="epoch order"):
            monitoring.record_samples("s", "bs-0", older, [9.0, 9.0])
        assert monitoring.peak_history("s").tolist() == [4.0]
        # The track still takes the last epoch and the next ones.
        monitoring.record_samples("s", "bs-0", 5, [6.0])
        monitoring.record_samples("s", "bs-0", 6, [2.0])
        assert monitoring.peak_history("s").tolist() == [6.0, 2.0]

    def test_epoch_order_is_per_slice_not_per_station(self):
        """Every station feeds one track: a station reporting an epoch the
        slice has already moved past is out of order, even if that station
        never reported it."""
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [1.0])
        monitoring.record_samples("s", "bs-0", 1, [2.0])
        with pytest.raises(ValueError, match="epoch order"):
            monitoring.record_samples("s", "bs-1", 0, [50.0])
        assert monitoring.peak_history("s").tolist() == [1.0, 2.0]
        # Another slice keeps its own order.
        monitoring.record_samples("t", "bs-1", 0, [3.0])
        assert monitoring.peak_history("t").tolist() == [3.0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sample_is_rejected_and_records_nothing(self, bad):
        monitoring = MonitoringService()
        monitoring.record_samples("s", "bs-0", 0, [5.0, 6.0])
        for epoch in (0, 1):  # neither raises the last epoch nor opens one
            with pytest.raises(ValueError, match="finite"):
                monitoring.record_samples("s", "bs-1", epoch, [50.0, bad])
        assert monitoring.peak_history("s").tolist() == [6.0]
        with pytest.raises(ValueError, match="finite"):
            monitoring.record_samples("new", "bs-0", 0, [bad])
        assert monitoring.peak_history("new").size == 0
        # The rejected epoch 1 was never recorded, so it is still open.
        monitoring.record_samples("s", "bs-0", 1, [7.0])
        assert monitoring.peak_history("s").tolist() == [6.0, 7.0]


class TestCrossStationMerge:
    """The track is the per-epoch maximum over every station's samples,
    floored at zero -- bit for bit what the recorded samples give, however
    the stations line up."""

    def record(self, recorder, slice_name, stations, epochs, seed=0):
        rng = np.random.default_rng(seed)
        for epoch in epochs:
            for bs in stations:
                recorder.record(slice_name, bs, epoch, rng.uniform(0.0, 50.0, 12))

    def test_aligned_stations(self):
        recorder = Recorder()
        self.record(recorder, "s", ["bs-0", "bs-1", "bs-2"], range(40))
        history = recorder.monitoring.peak_history("s")
        assert history.shape == (40,)
        assert same_bits(history, recorder.reference("s"))

    def test_slice_that_reaches_one_station_an_epoch_late(self):
        recorder = Recorder()
        self.record(recorder, "s", ["bs-0", "bs-1"], range(3))
        self.record(recorder, "s", ["bs-0", "bs-1", "bs-2"], range(3, 9), seed=1)
        history = recorder.monitoring.peak_history("s")
        assert history.shape == (9,)
        assert same_bits(history, recorder.reference("s"))

    def test_station_that_skips_an_epoch(self):
        recorder = Recorder()
        for epoch, stations in enumerate([("a", "b"), ("a",), ("a", "b"), ("b",), ("a", "b")]):
            self.record(recorder, "s", stations, [epoch], seed=epoch)
        history = recorder.monitoring.peak_history("s")
        assert history.shape == (5,)
        assert same_bits(history, recorder.reference("s"))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_in_order_writes_match_the_recorded_samples(self, data):
        recorder = Recorder()
        slices = ["a", "b", "c"]
        epochs = dict.fromkeys(slices, 0)
        writes = data.draw(st.integers(min_value=0, max_value=40), label="writes")
        for _ in range(writes):
            name = data.draw(st.sampled_from(slices))
            # Same epoch again (another station, or the same one reporting
            # late) or a later one, possibly skipping epochs.
            epochs[name] += data.draw(st.sampled_from([0, 0, 1, 1, 2, 5]))
            block = data.draw(
                st.lists(
                    st.floats(
                        min_value=-50.0, max_value=500.0, allow_nan=False, width=64
                    ),
                    max_size=6,
                )
            )
            bs = data.draw(st.sampled_from(["bs-0", "bs-1", "bs-2"]))
            recorder.record(name, bs, epochs[name], block)
        for name in slices + ["never-written"]:
            assert same_bits(recorder.monitoring.peak_history(name), recorder.reference(name))


class TestRejectedWrites:
    """Any mix of good and bad writes: the bad ones raise and leave the
    track as if they had never been made, and every read taken along the
    way is a prefix of the later ones up to its last peak, which can only
    rise."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bad_writes_leave_no_trace(self, data):
        recorder = Recorder()
        last: dict[str, int] = {}
        reads: list[np.ndarray] = []
        for _ in range(data.draw(st.integers(min_value=0, max_value=30), label="writes")):
            name = data.draw(st.sampled_from(["a", "b"]))
            epoch = last.get(name, 0) + data.draw(st.integers(min_value=-3, max_value=2))
            block = data.draw(
                st.lists(
                    st.one_of(
                        st.floats(min_value=-10.0, max_value=100.0, width=64),
                        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
                    ),
                    max_size=4,
                )
            )
            bs = data.draw(st.sampled_from(["bs-0", "bs-1"]))
            finite = all(np.isfinite(block))
            in_order = name not in last or epoch >= last[name]
            if block and not (finite and in_order):
                with pytest.raises(ValueError):
                    recorder.monitoring.record_samples(name, bs, epoch, block)
            else:
                recorder.record(name, bs, epoch, block)
                if block:
                    last[name] = epoch
            if name == "a":
                reads.append(recorder.monitoring.peak_history("a"))
        for name in ("a", "b"):
            assert same_bits(recorder.monitoring.peak_history(name), recorder.reference(name))
        for earlier, later in zip(reads, reads[1:]):
            assert earlier.size <= later.size
            if earlier.size:
                assert same_bits(earlier[:-1], later[: earlier.size - 1])
                assert earlier[-1] <= later[earlier.size - 1]


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

    def test_history_below_two_seasons_flips_holt_winters_to_double_exponential(self):
        """One epoch short of ``2 * season_length``, the forecasting block
        drops from Holt-Winters to double exponential smoothing -- same
        API, no pessimistic full-SLA reset."""
        from repro.controlplane.orchestrator import ForecastingBlock
        from repro.core.slices import EMBB_TEMPLATE, SliceRequest
        from repro.forecasting.holt_winters import HoltWintersForecaster

        season = 24
        block = ForecastingBlock(primary=HoltWintersForecaster(season_length=season))
        request = SliceRequest(name="s", template=EMBB_TEMPLATE)

        monitoring = MonitoringService()
        self._record_diurnal_history(monitoring, "s", num_epochs=100)
        long_history = monitoring.peak_history("s")
        short_history = long_history[-(2 * season - 1) :]
        assert block.primary.can_forecast(long_history)
        assert not block.primary.can_forecast(short_history)
        assert block.fallback.can_forecast(short_history)

        forecast = block.forecast_for(request, short_history)
        # The fallback still tracks the observed ~40 Mb/s peaks: a short
        # history never knocks a learnt slice back to full-SLA pessimism.
        assert forecast.lambda_hat_mbps < request.sla_mbps * 0.999
        assert 0.0 < forecast.sigma_hat <= 1.0

    def test_overrides_bypass_monitoring(self):
        """Forecast overrides bypass the monitoring path entirely: the
        (Fig. 5 / Fig. 6 oracle) decisions are the same whether or not
        load is reported."""
        from repro.controlplane.orchestrator import E2EOrchestrator, OrchestratorConfig
        from repro.core.forecast_inputs import ForecastInput
        from repro.core.milp_solver import DirectMILPSolver
        from repro.core.slices import EMBB_TEMPLATE, SliceRequest
        from tests.conftest import build_tiny_topology

        def run(report):
            orchestrator = E2EOrchestrator(
                topology=build_tiny_topology(),
                solver=DirectMILPSolver(),
                config=OrchestratorConfig(epochs_per_day=24, samples_per_epoch=3),
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
                if report:
                    for bs in ("bs-0", "bs-1"):
                        orchestrator.observe_load("s", bs, epoch, [10.0, 12.0, 11.0])
                decisions.append(decision)
            assert orchestrator.monitoring.peak_history("s").size == (60 if report else 0)
            return decisions

        reported = run(report=True)
        silent = run(report=False)
        for lhs, rhs in zip(reported, silent):
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
