"""Tests for the in-memory time-series store."""

import numpy as np
import pytest

from repro.controlplane.tsdb import TimeSeriesStore


class TestWriteAndRead:
    def test_round_trip(self):
        store = TimeSeriesStore()
        store.write("load", 0, 10.0, tags={"slice": "a"})
        store.write("load", 1, 12.0, tags={"slice": "a"})
        assert np.allclose(store.values("load", tags={"slice": "a"}), [10.0, 12.0])

    def test_tags_separate_series(self):
        store = TimeSeriesStore()
        store.write("load", 0, 1.0, tags={"slice": "a"})
        store.write("load", 0, 2.0, tags={"slice": "b"})
        assert store.values("load", tags={"slice": "a"}).tolist() == [1.0]
        assert len(store) == 2

    def test_missing_series_is_empty(self):
        assert TimeSeriesStore().values("nope").size == 0

    def test_out_of_order_epoch_rejected(self):
        store = TimeSeriesStore()
        store.write("load", 5, 1.0)
        with pytest.raises(ValueError):
            store.write("load", 4, 1.0)

    def test_write_many(self):
        store = TimeSeriesStore()
        store.write_many("load", 0, [1.0, 2.0, 3.0])
        assert store.values("load").size == 3

    def test_epoch_range_filter(self):
        store = TimeSeriesStore()
        for epoch in range(5):
            store.write("load", epoch, float(epoch))
        assert store.values("load", start_epoch=2).tolist() == [2.0, 3.0, 4.0]
        assert store.values("load", end_epoch=1).tolist() == [0.0, 1.0]


class TestAggregation:
    def test_per_epoch_max(self):
        store = TimeSeriesStore()
        store.write_many("load", 0, [1.0, 5.0, 3.0])
        store.write_many("load", 1, [2.0, 2.0])
        assert store.per_epoch_aggregate("load", aggregate="max") == {0: 5.0, 1: 2.0}

    def test_per_epoch_mean_and_sum(self):
        store = TimeSeriesStore()
        store.write_many("load", 0, [1.0, 3.0])
        assert store.per_epoch_aggregate("load", aggregate="mean")[0] == pytest.approx(2.0)
        assert store.per_epoch_aggregate("load", aggregate="sum")[0] == pytest.approx(4.0)

    def test_unknown_aggregate_rejected(self):
        store = TimeSeriesStore()
        store.write("load", 0, 1.0)
        with pytest.raises(ValueError):
            store.per_epoch_aggregate("load", aggregate="median")

    def test_unknown_aggregate_rejected_for_a_missing_series(self):
        # The argument is validated before the lookup: a typo must not read
        # as "no data" just because the series does not exist yet.
        with pytest.raises(ValueError, match="median"):
            TimeSeriesStore().per_epoch_aggregate("missing", aggregate="median")

    def test_missing_series_aggregates_to_nothing(self):
        assert TimeSeriesStore().per_epoch_aggregate("missing", aggregate="mean") == {}

    def test_series_names_and_clear(self):
        store = TimeSeriesStore()
        store.write("load", 0, 1.0, tags={"slice": "a"})
        assert store.series_names() == [("load", {"slice": "a"})]
        store.clear()
        assert len(store) == 0


class TestQueryWindows:
    def test_window_bounds_are_inclusive(self):
        store = TimeSeriesStore()
        for epoch in range(6):
            store.write("load", epoch, float(epoch))
        assert store.values("load", start_epoch=1, end_epoch=3).tolist() == [1.0, 2.0, 3.0]

    def test_window_with_repeated_epochs_keeps_all_samples(self):
        store = TimeSeriesStore()
        store.write_many("load", 0, [1.0, 2.0])
        store.write_many("load", 1, [3.0, 4.0])
        store.write_many("load", 2, [5.0])
        assert store.values("load", start_epoch=1, end_epoch=1).tolist() == [3.0, 4.0]

    def test_empty_window_returns_empty(self):
        store = TimeSeriesStore()
        store.write("load", 0, 1.0)
        assert store.values("load", start_epoch=5).size == 0
        assert store.values("load", end_epoch=-1).size == 0

    def test_window_beyond_data_clamps(self):
        store = TimeSeriesStore()
        store.write("load", 3, 7.0)
        assert store.values("load", start_epoch=0, end_epoch=100).tolist() == [7.0]


class TestIncrementalPeaks:
    def test_peak_series_matches_aggregate(self):
        store = TimeSeriesStore()
        store.write_many("load", 0, [1.0, 5.0, 3.0])
        store.write_many("load", 2, [2.0, 4.0])
        epochs, peaks = store.peak_series("load")
        assert epochs.tolist() == [0, 2]
        assert peaks.tolist() == [5.0, 4.0]
        assert store.per_epoch_aggregate("load", aggregate="max") == {0: 5.0, 2: 4.0}

    def test_peak_updates_in_place_for_repeated_epoch_writes(self):
        store = TimeSeriesStore()
        store.write("load", 0, 1.0)
        store.write("load", 0, 9.0)
        store.write("load", 0, 4.0)
        _, peaks = store.peak_series("load")
        assert peaks.tolist() == [9.0]

    def test_peak_series_of_missing_series_is_empty(self):
        epochs, peaks = TimeSeriesStore().peak_series("nope")
        assert epochs.size == 0 and peaks.size == 0

    def test_a_read_between_the_two_track_appends_sees_aligned_tracks(self):
        """A lock-free reader can run after a new epoch's entry reached the
        epoch track and before its peak reached the value track."""
        store = TimeSeriesStore()
        store.write_many("load", 0, [1.0, 5.0])
        series = store._series[("load", ())]
        series.peak_epochs.append(1)  # what extend does first for epoch 1
        epochs, peaks = store.peak_series("load")
        assert epochs.tolist() == [0] and peaks.tolist() == [5.0]
        series.peak_values.append(2.0)  # ... and then
        epochs, peaks = store.peak_series("load")
        assert epochs.tolist() == [0, 1] and peaks.tolist() == [5.0, 2.0]

    def test_retention_prunes_the_peak_track(self):
        store = TimeSeriesStore(retention_epochs=2)
        for epoch in range(6):
            store.write("load", epoch, float(epoch))
        epochs, peaks = store.peak_series("load")
        assert epochs.tolist() == [4, 5]
        assert peaks.tolist() == [4.0, 5.0]

    def test_long_rolling_window_stays_consistent(self):
        """Ring-buffer compaction across many prunes never loses samples."""
        store = TimeSeriesStore(retention_epochs=5)
        for epoch in range(500):
            store.write_many("load", epoch, [float(epoch), float(epoch) / 2])
        assert store.values("load").tolist() == [
            v for e in range(495, 500) for v in (float(e), e / 2)
        ]
        epochs, peaks = store.peak_series("load")
        assert epochs.tolist() == list(range(495, 500))
        assert peaks.tolist() == [float(e) for e in range(495, 500)]


class TestBlockWrites:
    """``write_many`` appends its block at once; what it leaves behind is
    what one ``write`` per sample leaves behind."""

    @staticmethod
    def sample_by_sample(blocks, retention=None) -> TimeSeriesStore:
        store = TimeSeriesStore(retention_epochs=retention)
        for epoch, values in blocks:
            for value in values:
                store.write("load", epoch, value)
        return store

    def test_empty_block_changes_nothing(self):
        store = TimeSeriesStore()
        store.write_many("load", 0, [2.0, 1.0])
        store.write_many("load", 1, [])
        store.write_many("load", 1, np.array([]))
        assert store.values("load").tolist() == [2.0, 1.0]
        assert store.peak_series("load")[0].tolist() == [0]
        assert store.per_epoch_aggregate("load", aggregate="sum") == {0: 3.0}
        # ... not even the order check: an empty block carries no sample.
        store.write_many("load", -5, [])
        # A block that opens a series with nothing leaves an empty series.
        store.write_many("other", 3, [])
        assert store.values("other").size == 0 and store.peak_series("other")[1].size == 0

    def test_block_crossing_a_buffer_growth(self):
        # The sample buffers start at 16 slots: the first block fills them
        # to the brim, the second crosses one doubling, the third needs two
        # more at once, the fourth lands in the epoch the third opened.
        blocks = [
            (0, np.arange(16.0)),
            (1, np.arange(20.0, 0.0, -1.0)),
            (2, np.arange(100.0)),
            (2, [250.0, 3.0]),
        ]
        store = TimeSeriesStore()
        for epoch, values in blocks:
            store.write_many("load", epoch, values)
        want = self.sample_by_sample(blocks)
        assert store.values("load").tolist() == want.values("load").tolist()
        assert store.values("load", start_epoch=1, end_epoch=1).tolist() == blocks[1][1].tolist()
        for got, expected in zip(store.peak_series("load"), want.peak_series("load")):
            assert got.tolist() == expected.tolist()
        assert store.peak_series("load")[1].tolist() == [15.0, 20.0, 250.0]

    def test_blocks_compact_under_retention_like_single_writes(self):
        # Front drops leave dead space the next block must compact away
        # before it grows anything: a rolling window of uneven blocks.
        rng = np.random.default_rng(3)
        blocks = [(epoch, rng.uniform(0.0, 9.0, int(rng.integers(1, 40)))) for epoch in range(60)]
        store = TimeSeriesStore(retention_epochs=3)
        for epoch, values in blocks:
            store.write_many("load", epoch, values)
        want = self.sample_by_sample(blocks, retention=3)
        assert store.values("load").tolist() == want.values("load").tolist()
        for got, expected in zip(store.peak_series("load"), want.peak_series("load")):
            assert got.tolist() == expected.tolist()
        assert len(store._series[("load", ())].values._data) <= 4 * 3 * 40

    @pytest.mark.parametrize("retention", [None, 2])
    def test_write_is_a_one_sample_block(self, retention):
        blocks = [(0, [3.0]), (0, [7.0]), (1, [2.0]), (4, [5.0]), (4, [1.0])]
        store = TimeSeriesStore(retention_epochs=retention)
        for epoch, values in blocks:
            store.write_many("load", epoch, values)
        want = self.sample_by_sample(blocks, retention=retention)
        assert store.values("load").tolist() == want.values("load").tolist()
        for got, expected in zip(store.peak_series("load"), want.peak_series("load")):
            assert got.tolist() == expected.tolist()
        assert store.per_epoch_aggregate("load") == want.per_epoch_aggregate("load")

    def test_out_of_order_write_leaves_the_series_unchanged(self):
        store = TimeSeriesStore()
        store.write_many("load", 5, [1.0, 4.0])
        with pytest.raises(ValueError, match="epoch order"):
            store.write("load", 4, 9.0)
        assert store.values("load").tolist() == [1.0, 4.0]
        assert store.per_epoch_aggregate("load") == {5: 4.0}

    def test_out_of_order_block_is_rejected_whole(self):
        store = TimeSeriesStore()
        store.write_many("load", 5, [1.0])
        with pytest.raises(ValueError, match="epoch order"):
            store.write_many("load", 4, [9.0, 9.0])
        assert store.values("load").tolist() == [1.0]


class TestRetention:
    def test_old_epochs_are_dropped(self):
        store = TimeSeriesStore(retention_epochs=3)
        for epoch in range(10):
            store.write("load", epoch, float(epoch))
        assert store.values("load").tolist() == [7.0, 8.0, 9.0]

    def test_retention_is_per_series(self):
        store = TimeSeriesStore(retention_epochs=2)
        for epoch in range(5):
            store.write("load", epoch, float(epoch), tags={"slice": "a"})
        store.write("load", 0, 99.0, tags={"slice": "b"})
        # Series "b" only saw epoch 0; its own window keeps it alive even
        # though series "a" has advanced to epoch 4.
        assert store.values("load", tags={"slice": "b"}).tolist() == [99.0]
        assert store.values("load", tags={"slice": "a"}).tolist() == [3.0, 4.0]

    def test_retention_keeps_every_sample_of_retained_epochs(self):
        store = TimeSeriesStore(retention_epochs=2)
        store.write_many("load", 0, [1.0, 2.0])
        store.write_many("load", 1, [3.0, 4.0])
        store.write_many("load", 2, [5.0, 6.0])
        assert store.values("load").tolist() == [3.0, 4.0, 5.0, 6.0]
        assert store.per_epoch_aggregate("load", aggregate="max") == {1: 4.0, 2: 6.0}

    def test_unbounded_by_default(self):
        store = TimeSeriesStore()
        for epoch in range(50):
            store.write("load", epoch, 1.0)
        assert store.values("load").size == 50

    @pytest.mark.parametrize("bad", [0, -3])
    def test_non_positive_retention_rejected(self, bad):
        with pytest.raises(ValueError, match="retention_epochs"):
            TimeSeriesStore(retention_epochs=bad)
