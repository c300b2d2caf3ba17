"""A small in-memory time-series store.

The paper's implementation persists monitoring samples in InfluxDB; the
simulation only needs an ordered, queryable record of (epoch, value) points
per series, which this module provides without external dependencies.
Series are identified by a name plus a tag dictionary, mirroring the
measurement/tag model of the original store.

Storage layout (see DESIGN.md, "Monitoring cache invalidation"): each
series keeps its samples in amortised-O(1) numpy ring buffers and maintains
the per-epoch *peak* incrementally as samples arrive, so the forecasting
path never re-groups raw samples.
"""

from __future__ import annotations

import numpy as np


def _series_key(name: str, tags: dict[str, str] | None) -> tuple:
    tags = tags or {}
    return (name, tuple(sorted(tags.items())))


class _RingBuffer:
    """Append-only numpy buffer with O(1) amortised append and front-drop.

    The live window is ``self._data[self._start:self._end]``.  Appends grow
    the backing array geometrically; dropping from the front just advances
    ``_start``, and the buffer compacts (copies the live window to offset 0)
    once more than half of the backing array is dead space, so memory stays
    proportional to the retained window.
    """

    __slots__ = ("_data", "_start", "_end")

    def __init__(self, dtype, initial_capacity: int = 16):
        self._data = np.empty(initial_capacity, dtype=dtype)
        self._start = 0
        self._end = 0

    def __len__(self) -> int:
        return self._end - self._start

    def append(self, value) -> None:
        if self._end == len(self._data):
            self._compact_or_grow()
        self._data[self._end] = value
        self._end += 1

    def extend(self, values: np.ndarray) -> None:
        """Append a block with one slice copy."""
        end = self._end + len(values)
        while end > len(self._data):
            # Compacts first when the front is mostly dead space, then
            # doubles until the block fits -- append's policy, per block.
            self._compact_or_grow()
            end = self._end + len(values)
        self._data[self._end : end] = values
        self._end = end

    def drop_front(self, count: int) -> None:
        self._start += count
        if self._start > len(self._data) // 2:
            self._compact_or_grow(grow=False)

    def view(self) -> np.ndarray:
        """The live window as a read-only view (no copy)."""
        return self._data[self._start : self._end]

    def _compact_or_grow(self, grow: bool = True) -> None:
        live = self._end - self._start
        capacity = len(self._data)
        if grow and self._start <= capacity // 2:
            capacity = max(2 * capacity, 16)
        data = np.empty(capacity, dtype=self._data.dtype)
        data[:live] = self._data[self._start : self._end]
        self._data = data
        self._start = 0
        self._end = live


class _Series:
    """One (name, tags) series: raw samples plus the incremental peak track.

    ``peak_epochs``/``peak_values`` hold one entry per distinct epoch, in
    epoch order; appending more samples for the latest epoch updates the
    trailing peak in place, so the per-epoch maximum is always current
    without ever re-scanning the raw samples.
    """

    __slots__ = ("epochs", "values", "peak_epochs", "peak_values")

    def __init__(self) -> None:
        self.epochs = _RingBuffer(np.int64)
        self.values = _RingBuffer(np.float64)
        self.peak_epochs = _RingBuffer(np.int64)
        self.peak_values = _RingBuffer(np.float64)

    def extend(self, epoch: int, values) -> None:
        """Append a block of samples sharing one epoch: one epoch-order
        check, one slice copy per buffer, one ``max`` into the peak track.
        An empty block changes nothing."""
        epoch = int(epoch)
        values = np.asarray(values, dtype=np.float64).ravel()
        if not len(values):
            return
        if len(self.epochs) and epoch < self.epochs.view()[-1]:
            raise ValueError(
                f"samples must be appended in epoch order (got {epoch} after {self.epochs.view()[-1]})"
            )
        self.epochs.extend(np.full(len(values), epoch, dtype=np.int64))
        self.values.extend(values)
        peak = values.max()
        peaks = self.peak_epochs
        if len(peaks) and peaks.view()[-1] == epoch:
            tail = self.peak_values.view()
            if peak > tail[-1]:
                tail[-1] = peak
        else:
            self.peak_epochs.append(epoch)
            self.peak_values.append(peak)

    def prune_before(self, min_epoch: int) -> None:
        """Drop all samples with an epoch strictly below ``min_epoch``."""
        cutoff = int(np.searchsorted(self.epochs.view(), min_epoch, side="left"))
        if not cutoff:
            return
        self.epochs.drop_front(cutoff)
        self.values.drop_front(cutoff)
        peak_cutoff = int(
            np.searchsorted(self.peak_epochs.view(), min_epoch, side="left")
        )
        if peak_cutoff:
            self.peak_epochs.drop_front(peak_cutoff)
            self.peak_values.drop_front(peak_cutoff)

    # ------------------------------------------------------------------ #
    def window(self, start_epoch: int | None, end_epoch: int | None) -> np.ndarray:
        epochs = self.epochs.view()
        lo = 0 if start_epoch is None else int(np.searchsorted(epochs, start_epoch, "left"))
        hi = (
            len(epochs)
            if end_epoch is None
            else int(np.searchsorted(epochs, end_epoch, "right"))
        )
        return np.array(self.values.view()[lo:hi])

    def peaks(self) -> tuple[np.ndarray, np.ndarray]:
        """(epochs, per-epoch maxima), both in epoch order, as views.

        A lock-free reader (the broker's ``quote``) can land between the two
        appends of :meth:`extend`, so both views are cut to the entries
        both tracks already hold."""
        epochs, peaks = self.peak_epochs.view(), self.peak_values.view()
        size = min(len(epochs), len(peaks))
        return epochs[:size], peaks[:size]


class TimeSeriesStore:
    """Append-only store of per-epoch samples, indexed by (name, tags).

    ``retention_epochs`` bounds how much history each series keeps: after a
    write at epoch ``t``, samples older than ``t - retention_epochs + 1`` are
    dropped from that series.  The forecasting block only ever consumes a
    trailing window (a few seasons of Holt-Winters history), so long-running
    campaigns can cap the store's memory without changing any forecast.
    Retention is per series and driven by that series' own latest epoch,
    mirroring the retention policies of the InfluxDB deployment the paper's
    implementation uses.
    """

    def __init__(self, retention_epochs: int | None = None) -> None:
        if retention_epochs is not None and retention_epochs <= 0:
            raise ValueError(
                f"retention_epochs must be a positive integer or None, got {retention_epochs!r}"
            )
        self.retention_epochs = retention_epochs
        self._series: dict[tuple, _Series] = {}

    # ------------------------------------------------------------------ #
    def write(
        self, name: str, epoch: int, value: float, tags: dict[str, str] | None = None
    ) -> None:
        """Append one sample to a series (created on first write)."""
        self.write_many(name, epoch, [value], tags)

    def write_many(
        self,
        name: str,
        epoch: int,
        values: list[float] | np.ndarray,
        tags: dict[str, str] | None = None,
    ) -> None:
        """Append several samples sharing the same epoch (monitoring samples)."""
        key = _series_key(name, tags)
        series = self._series.setdefault(key, _Series())
        series.extend(epoch, values)
        if self.retention_epochs is not None:
            series.prune_before(int(epoch) - self.retention_epochs + 1)

    # ------------------------------------------------------------------ #
    def values(
        self,
        name: str,
        tags: dict[str, str] | None = None,
        start_epoch: int | None = None,
        end_epoch: int | None = None,
    ) -> np.ndarray:
        """All sample values of a series, optionally restricted to an epoch range."""
        series = self._series.get(_series_key(name, tags))
        if series is None:
            return np.array([])
        return series.window(start_epoch, end_epoch)

    def per_epoch_aggregate(
        self,
        name: str,
        tags: dict[str, str] | None = None,
        aggregate: str = "max",
    ) -> dict[int, float]:
        """Aggregate samples per epoch ('max', 'mean' or 'sum').

        The orchestrator consumes the per-epoch *peak*, i.e. ``max``, which
        is maintained incrementally and served without touching the raw
        samples; 'mean' and 'sum' group the raw samples on demand.
        """
        if aggregate not in ("max", "mean", "sum"):
            raise ValueError(f"unsupported aggregate {aggregate!r}")
        series = self._series.get(_series_key(name, tags))
        if series is None:
            return {}
        if aggregate == "max":
            epochs, peaks = series.peaks()
            return {int(epoch): float(peak) for epoch, peak in zip(epochs, peaks)}
        grouped: dict[int, list[float]] = {}
        for epoch, value in zip(series.epochs.view(), series.values.view()):
            grouped.setdefault(int(epoch), []).append(float(value))
        if aggregate == "mean":
            return {epoch: float(np.mean(values)) for epoch, values in grouped.items()}
        return {epoch: float(np.sum(values)) for epoch, values in grouped.items()}

    def peak_series(
        self, name: str, tags: dict[str, str] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(epochs, per-epoch peaks) of one series, in epoch order.

        Array-valued variant of ``per_epoch_aggregate(..., 'max')`` served
        straight from the incremental peak track (the arrays are views;
        callers must not mutate them).
        """
        series = self._series.get(_series_key(name, tags))
        if series is None:
            return np.array([], dtype=np.int64), np.array([])
        return series.peaks()

    def series_names(self) -> list[tuple[str, dict[str, str]]]:
        """All stored series as (name, tags) pairs.

        The keys are copied in one C-level call before the loop: the broker's
        lock-free ``quote`` reaches here while ``report_load`` may be opening
        a new series, and iterating the live dict would then raise.
        """
        return [(name, dict(tags)) for name, tags in tuple(self._series)]

    def __len__(self) -> int:
        return len(self._series)

    def clear(self) -> None:
        self._series.clear()
