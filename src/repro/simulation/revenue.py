"""Net-revenue and SLA-violation accounting.

The paper reports, for every scenario, the operator's *net revenue* in
monetary units and the footprint of overbooking on the tenants (probability
of an SLA violation and the share of traffic affected when one happens).
The accounting rules, consistent with the reward/penalty calibration of
Section 4.3.2 (``K = m R / Lambda``: failing to serve 10 % of the SLA costs
``10 % * m`` of the reward), are:

* an admitted slice accrues its reward ``R`` uniformly over its lifetime
  (``R / L`` per active epoch);
* in every epoch and at every base station, the peak amount of SLA-conformant
  traffic that the (work-conserving) data plane could not serve -- see
  :class:`repro.dataplane.multiplexing.SliceMultiplexer` -- is charged at
  ``K / (L * B)`` per Mb/s, so a slice that is shorted by 10 % of its SLA at
  every site for its whole lifetime pays back ``0.1 * m * R``;
* SLA-violation statistics are tracked per monitoring sample, matching the
  paper's "% of samples" reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.slices import SliceRequest

_VIOLATION_TOLERANCE_MBPS = 1e-6


@dataclass(frozen=True)
class EpochRevenue:
    """Revenue earned (and penalties paid) during one decision epoch."""

    epoch: int
    reward: float
    penalty: float
    active_slices: int

    @property
    def net(self) -> float:
        return self.reward - self.penalty


@dataclass
class RevenueReport:
    """Aggregate of a whole simulation run."""

    epochs: list[EpochRevenue] = field(default_factory=list)
    violated_samples: int = 0
    total_samples: int = 0
    drop_fractions: list[float] = field(default_factory=list)
    per_slice_reward: dict[str, float] = field(default_factory=dict)
    per_slice_penalty: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def total_reward(self) -> float:
        return float(sum(e.reward for e in self.epochs))

    @property
    def total_penalty(self) -> float:
        return float(sum(e.penalty for e in self.epochs))

    @property
    def net_revenue(self) -> float:
        """Total net revenue in monetary units (the paper's headline metric)."""
        return self.total_reward - self.total_penalty

    @property
    def per_epoch_net(self) -> np.ndarray:
        return np.array([e.net for e in self.epochs])

    @property
    def violation_probability(self) -> float:
        """Fraction of monitoring samples in which an SLA violation occurred."""
        if self.total_samples == 0:
            return 0.0
        return self.violated_samples / self.total_samples

    @property
    def mean_drop_fraction(self) -> float:
        """Average share of conformant traffic affected, over violated samples."""
        if not self.drop_fractions:
            return 0.0
        return float(np.mean(self.drop_fractions))

    @property
    def max_drop_fraction(self) -> float:
        if not self.drop_fractions:
            return 0.0
        return float(np.max(self.drop_fractions))

    def summary(self) -> dict[str, float]:
        return {
            "net_revenue": self.net_revenue,
            "total_reward": self.total_reward,
            "total_penalty": self.total_penalty,
            "violation_probability": self.violation_probability,
            "mean_drop_fraction": self.mean_drop_fraction,
            "max_drop_fraction": self.max_drop_fraction,
            "epochs": float(len(self.epochs)),
        }


class RevenueAccountant:
    """Accumulates revenue and SLA-violation statistics epoch by epoch."""

    def __init__(self, num_base_stations: int):
        if num_base_stations <= 0:
            raise ValueError("num_base_stations must be positive")
        self.num_base_stations = num_base_stations
        self.report = RevenueReport()

    # ------------------------------------------------------------------ #
    def record_epoch(
        self,
        epoch: int,
        active_requests: list[SliceRequest],
        offered_samples_mbps: dict[tuple[str, str], np.ndarray],
        unserved_samples_mbps: dict[tuple[str, str], np.ndarray],
    ) -> EpochRevenue:
        """Account for one epoch.

        Parameters
        ----------
        active_requests:
            The admitted slices that were active (provisioned) this epoch.
        offered_samples_mbps:
            SLA-conformant offered load samples per (slice name, base
            station) observed during the epoch.
        unserved_samples_mbps:
            For the same keys, how much of each sample the data plane could
            not serve (the overbooking deficit after statistical multiplexing).
        """
        report = self.report
        # Group the offered keys by slice name up front instead of rescanning
        # the whole dict for every active request.
        offered_by_name: dict[str, list[tuple[str, str]]] = {}
        for key in offered_samples_mbps:
            offered_by_name.setdefault(key[0], []).append(key)
        # The keys that carried samples, in request-then-key order, with
        # their samples and unserved traffic laid end to end.
        charged: list[tuple[str, str]] = []
        offered: list[np.ndarray] = []
        unserved: list[np.ndarray] = []
        for request in active_requests:
            for key in offered_by_name.get(request.name, ()):
                samples = np.asarray(offered_samples_mbps[key], dtype=float)
                if samples.size == 0:
                    continue
                charged.append(key)
                offered.append(samples)
                missing = unserved_samples_mbps.get(key)
                unserved.append(np.zeros_like(samples) if missing is None else missing)
        deficit_of: dict[tuple[str, str], float] = {}
        if charged:
            sizes = np.fromiter(map(len, offered), dtype=np.intp, count=len(offered))
            if not np.array_equal(sizes, np.fromiter(map(len, unserved), dtype=np.intp)):
                raise ValueError("unserved samples must match the offered samples key by key")
            starts = np.zeros(len(sizes), dtype=np.intp)
            np.cumsum(sizes[:-1], out=starts[1:])
            offered_flat = np.concatenate(offered)
            unserved_flat = np.concatenate(unserved).astype(float, copy=False)
            # Each key's deficit is the max of its (non-empty) run: exact.
            deficit_of = dict(zip(charged, np.maximum.reduceat(unserved_flat, starts).tolist()))
            # Per-sample SLA-violation statistics, in request-then-key order.
            violated = unserved_flat > _VIOLATION_TOLERANCE_MBPS
            report.total_samples += len(offered_flat)
            report.violated_samples += int(np.count_nonzero(violated))
            sample = offered_flat[violated]
            with np.errstate(divide="ignore", invalid="ignore"):
                fractions = np.where(sample > 0, unserved_flat[violated] / sample, 0.0)
            report.drop_fractions.extend(fractions.tolist())

        # Reward and penalty accumulate as scalars, request by request and
        # key by key, in the order the per-key loop added them.
        reward = 0.0
        penalty = 0.0
        for request in active_requests:
            slice_reward = request.reward / request.duration_epochs
            reward += slice_reward
            report.per_slice_reward[request.name] = (
                report.per_slice_reward.get(request.name, 0.0) + slice_reward
            )
            penalty_rate = request.penalty_rate_per_mbps / (
                request.duration_epochs * self.num_base_stations
            )
            for key in offered_by_name.get(request.name, ()):
                deficit = deficit_of.get(key)
                if deficit is None:
                    continue
                slice_penalty = penalty_rate * deficit
                penalty += slice_penalty
                report.per_slice_penalty[request.name] = (
                    report.per_slice_penalty.get(request.name, 0.0) + slice_penalty
                )

        epoch_revenue = EpochRevenue(
            epoch=epoch,
            reward=reward,
            penalty=penalty,
            active_slices=len(active_requests),
        )
        self.report.epochs.append(epoch_revenue)
        return epoch_revenue
