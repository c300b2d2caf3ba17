"""Monitoring & feedback block of the E2E orchestrator (Section 2.2.2).

Between two decision epochs the controllers collect kappa monitoring samples
of each slice's network load.  The orchestrator only consumes the per-epoch
*peak* of those samples (``lambda^(t) = max_theta lambda^(theta)``), because
reserving for the peak minimises the under-allocation footprint.  This module
stores the raw samples (per slice and base station) in the time-series store
and exposes the per-slice peak history that feeds the Forecasting block.

The store maintains per-epoch maxima as samples arrive (see
:mod:`repro.controlplane.tsdb`), so the peak history never re-aggregates raw
samples.  The cross-base-station merge performed here runs on every call:
a slice with load is written every epoch before it is read, so a memo keyed
on writes would only ever hit empty histories.  The memo that pays lives one
layer up, keyed on content: the Forecasting block keeps the history it last
folded per slice and, while that is a prefix of the fresh one, folds only
the new peaks.
"""

from __future__ import annotations

import numpy as np

from repro.controlplane.tsdb import TimeSeriesStore

_LOAD_SERIES = "slice_load_mbps"


class MonitoringService:
    """Collects per-slice load samples and derives per-epoch peak histories.

    ``retention_epochs`` caps the per-series history kept by the backing
    store, so the peak history handed to the Forecasting block covers at
    most that many epochs.  It is mutually exclusive with an explicit
    ``store`` (configure retention on the store itself in that case).
    """

    def __init__(
        self,
        store: TimeSeriesStore | None = None,
        retention_epochs: int | None = None,
    ):
        if store is not None and retention_epochs is not None:
            raise ValueError(
                "pass either an explicit store or retention_epochs, not both"
            )
        # `store if store is not None`, NOT `store or ...`: an empty
        # TimeSeriesStore has len() == 0 and is falsy, and silently swapping
        # a caller's (shared) store for a private one loses every sample the
        # caller writes to it directly.
        self.store = (
            store if store is not None else TimeSeriesStore(retention_epochs=retention_epochs)
        )
        #: slice name -> sorted BS names with recorded samples.  Maintained
        #: incrementally on ingestion; invalidated wholesale whenever the
        #: store's series count moves (a new series may belong to any slice,
        #: including ones written to the store directly).
        self._stations: dict[str, list[str]] = {}
        self._stations_series_count = 0

    # ------------------------------------------------------------------ #
    # Ingestion (called by the controllers / simulation engine)
    # ------------------------------------------------------------------ #
    def record_samples(
        self,
        slice_name: str,
        base_station: str,
        epoch: int,
        samples_mbps: list[float] | np.ndarray,
    ) -> None:
        """Store the monitoring samples of one slice at one BS for one epoch."""
        self._sync_station_index()
        self.store.write_many(
            _LOAD_SERIES,
            epoch,
            samples_mbps,
            tags={"slice": slice_name, "bs": base_station},
        )
        stations = self._stations.get(slice_name)
        if stations is None:
            stations = self._stations_from_store(slice_name)
            self._stations[slice_name] = stations
        if base_station not in stations:
            stations.append(base_station)
            stations.sort()
        self._stations_series_count = len(self.store)

    # ------------------------------------------------------------------ #
    # Queries (consumed by the Forecasting block)
    # ------------------------------------------------------------------ #
    def _stations_from_store(self, slice_name: str) -> list[str]:
        stations = set()
        for name, tags in self.store.series_names():
            if name == _LOAD_SERIES and tags.get("slice") == slice_name:
                stations.add(tags["bs"])
        return sorted(stations)

    def _sync_station_index(self) -> None:
        """Drop the station index if series were created behind our back.

        The store's series count is O(1) to read and moves exactly when a
        series appears (or the store is cleared), so a direct ``store``
        write that opens a new (slice, bs) series -- bypassing
        :meth:`record_samples` -- invalidates the cached station lists
        instead of being silently ignored.
        """
        if len(self.store) != self._stations_series_count:
            self._stations.clear()
            self._stations_series_count = len(self.store)

    def observed_base_stations(self, slice_name: str) -> list[str]:
        """Base stations for which samples of this slice have been recorded."""
        self._sync_station_index()
        stations = self._stations.get(slice_name)
        if stations is None:
            stations = self._stations_from_store(slice_name)
            if stations:
                self._stations[slice_name] = stations
        return list(stations)

    def peak_history(self, slice_name: str, base_station: str | None = None) -> np.ndarray:
        """Per-epoch peak load of a slice, ordered by epoch.

        When ``base_station`` is None the peak is taken across every base
        station serving the slice, which is the (conservative) per-site load
        the reservation must cover.  Either way the result is a fresh array,
        never a window onto the store's ring buffer.
        """
        if base_station is not None:
            _, peaks = self.store.peak_series(
                _LOAD_SERIES, tags={"slice": slice_name, "bs": base_station}
            )
            return np.array(peaks)

        tracks = [
            self.store.peak_series(_LOAD_SERIES, tags={"slice": slice_name, "bs": bs})
            for bs in self.observed_base_stations(slice_name)
        ]
        if tracks and all(np.array_equal(epochs, tracks[0][0]) for epochs, _ in tracks[1:]):
            # One epoch axis for every station (the steady state): the merge
            # is an element-wise maximum, floored at 0.0 like the one below.
            return np.maximum(np.maximum.reduce([peaks for _, peaks in tracks]), 0.0)
        # Ragged axes (a station that joined late, pruned or skipped an
        # epoch): merge epoch by epoch.
        merged: dict[int, float] = {}
        for epochs, peaks in tracks:
            for epoch, value in zip(epochs.tolist(), peaks.tolist()):
                merged[epoch] = max(merged.get(epoch, 0.0), value)
        return np.array([merged[e] for e in sorted(merged)])
