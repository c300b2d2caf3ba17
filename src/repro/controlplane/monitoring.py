"""Monitoring & feedback block of the E2E orchestrator (Section 2.2.2).

Between two decision epochs the controllers collect kappa monitoring samples
of each slice's network load.  The orchestrator only consumes the per-epoch
*peak* of those samples over all of the slice's base stations
(``lambda^(t) = max_theta lambda^(theta)``), because reserving for the peak
minimises the under-allocation footprint.  So that peak is all this module
keeps: one append-only track per slice, one float per reported epoch, raised
in place while reports for the latest epoch arrive.  Raw samples are folded
into the track as they are reported and then dropped.

Reads are lock-free (the broker's ``quote`` runs beside ``report_load``):
the track is a list of Python floats, and appending, raising the last entry
and copying it out with ``np.array`` are each one C call under the
interpreter lock, so a reader sees a consistent prefix.  The memo that
saves refolding the history lives one layer up, keyed on content: the
Forecasting block keeps the history it last folded per slice and, while
that is a prefix of the fresh one, folds only the new peaks.
"""

from __future__ import annotations

import math

import numpy as np


class MonitoringService:
    """Per-slice peak tracks fed by the controllers' load samples."""

    def __init__(self) -> None:
        #: slice name -> its per-epoch peaks, in epoch order.
        self._peaks: dict[str, list[float]] = {}
        #: slice name -> the epoch its last peak belongs to.
        self._last_epoch: dict[str, int] = {}

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
        """Fold the monitoring samples of one slice at one BS for one epoch.

        Every base station of a slice feeds the same track, so reports must
        arrive in epoch order per slice.  A non-finite sample or an epoch
        older than the slice's last report raises ``ValueError`` and records
        nothing; an empty block records nothing and checks nothing.
        """
        epoch = int(epoch)
        values = np.asarray(samples_mbps, dtype=np.float64).ravel()
        if not len(values):
            return
        # Some sample is NaN or infinite exactly when the peak is NaN or
        # +inf or the least sample is -inf: two reductions, no mask.
        peak = float(values.max())
        if not (math.isfinite(peak) and math.isfinite(values.min())):
            raise ValueError(
                f"load samples of slice {slice_name!r} at {base_station!r} "
                f"must be finite (epoch {epoch})"
            )
        last = self._last_epoch.get(slice_name)
        if last is not None and epoch < last:
            raise ValueError(
                f"load samples of slice {slice_name!r} must arrive in epoch "
                f"order (got epoch {epoch} at {base_station!r} after {last})"
            )
        if epoch == last:
            track = self._peaks[slice_name]
            if peak > track[-1]:
                track[-1] = peak
        else:
            self._peaks.setdefault(slice_name, []).append(max(0.0, peak))
            self._last_epoch[slice_name] = epoch

    # ------------------------------------------------------------------ #
    # Queries (consumed by the Forecasting block)
    # ------------------------------------------------------------------ #
    def peak_history(self, slice_name: str) -> np.ndarray:
        """Per-epoch peak load of a slice over all its base stations, in
        epoch order: the (conservative) per-site load the reservation must
        cover.  A fresh array, never a view onto the track whose last peak
        the next report may raise."""
        return np.array(self._peaks.get(slice_name, ()), dtype=np.float64)
