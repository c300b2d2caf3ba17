"""Seasonal (diurnal) demand traces.

Mobile traffic exhibits strong daily periodicity (the paper cites this as the
reason for adopting triple exponential smoothing / Holt-Winters forecasting
rather than double exponential smoothing).  This module provides a diurnal
load profile and a demand model that modulates a Gaussian demand with it, so
the forecasting experiments have genuine seasonality to exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traffic.demand import DemandModel
from repro.utils.validation import ensure_in_range, ensure_non_negative


@dataclass(frozen=True)
class DiurnalProfile:
    """A 24-value multiplicative daily profile (one multiplier per hour).

    Multipliers are relative to the daily mean load; they are normalised at
    construction so their average is exactly 1, which keeps the configured
    mean load meaningful.
    """

    hourly_multipliers: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.hourly_multipliers) != 24:
            raise ValueError("a diurnal profile needs exactly 24 hourly multipliers")
        if any(m < 0 for m in self.hourly_multipliers):
            raise ValueError("multipliers must be non-negative")
        total = sum(self.hourly_multipliers)
        if total == 0:
            raise ValueError("profile cannot be identically zero")

    @classmethod
    def normalised(cls, multipliers: tuple[float, ...] | list[float]) -> "DiurnalProfile":
        arr = np.asarray(multipliers, dtype=float)
        if arr.size != 24:
            raise ValueError("a diurnal profile needs exactly 24 hourly multipliers")
        return cls(hourly_multipliers=tuple(arr / arr.mean()))

    def multiplier(self, hour_of_day: float) -> float:
        """Interpolated multiplier at a (possibly fractional) hour of day."""
        hour = float(hour_of_day) % 24.0
        low = int(np.floor(hour)) % 24
        high = (low + 1) % 24
        frac = hour - np.floor(hour)
        return float(
            (1.0 - frac) * self.hourly_multipliers[low]
            + frac * self.hourly_multipliers[high]
        )


#: A typical urban mobile-traffic daily shape: quiet at night, morning ramp,
#: midday plateau and an evening peak.  Normalised to a mean of 1.
DEFAULT_DIURNAL_PROFILE = DiurnalProfile.normalised(
    [
        0.30, 0.22, 0.18, 0.15, 0.15, 0.20,  # 00h - 05h
        0.40, 0.70, 1.00, 1.15, 1.20, 1.25,  # 06h - 11h
        1.30, 1.25, 1.20, 1.20, 1.25, 1.35,  # 12h - 17h
        1.55, 1.70, 1.75, 1.60, 1.10, 0.60,  # 18h - 23h
    ]
)


class SeasonalDemand(DemandModel):
    """Gaussian demand modulated by a diurnal profile.

    ``epochs_per_day`` defines how decision epochs map onto wall-clock hours
    (the paper's testbed uses 1-hour epochs, i.e. 24 epochs per day).
    """

    def __init__(
        self,
        base_mean_mbps: float,
        relative_std: float,
        sla_mbps: float,
        profile: DiurnalProfile = DEFAULT_DIURNAL_PROFILE,
        epochs_per_day: int = 24,
        start_hour: float = 0.0,
        seed: int | None = None,
    ):
        super().__init__(sla_mbps=sla_mbps, seed=seed)
        self._base_mean = ensure_non_negative(base_mean_mbps, "base_mean_mbps")
        self._relative_std = ensure_in_range(relative_std, 0.0, 1.0, "relative_std")
        if epochs_per_day <= 0:
            raise ValueError("epochs_per_day must be positive")
        self._profile = profile
        self._epochs_per_day = epochs_per_day
        self._start_hour = float(start_hour)

    def hour_of_epoch(self, epoch: int) -> float:
        """Wall-clock hour corresponding to the start of ``epoch``."""
        hours_per_epoch = 24.0 / self._epochs_per_day
        return (self._start_hour + epoch * hours_per_epoch) % 24.0

    def mean_mbps(self, epoch: int) -> float:
        multiplier = self._profile.multiplier(self.hour_of_epoch(epoch))
        return self._base_mean * multiplier

    def std_mbps(self, epoch: int) -> float:
        return self._relative_std * self.mean_mbps(epoch)
