"""Per-slice demand models.

Every model produces, for each decision epoch ``t``, the sequence of
monitoring samples ``lambda^(theta)`` collected by the monitoring block
(Section 2.2.2).  The orchestrator only consumes the *peak* of those samples
(``lambda^(t) = max_theta lambda^(theta)``), which is what the admission
control compares against the reservation ``z`` when accounting for SLA
violations.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.validation import ensure_non_negative, ensure_positive


@dataclass(frozen=True)
class EpochDemand:
    """Demand observed for one slice during one decision epoch."""

    epoch: int
    samples_mbps: tuple[float, ...]

    @property
    def peak_mbps(self) -> float:
        """The per-epoch peak load lambda^(t) used by the AC-RR problem."""
        return max(self.samples_mbps) if self.samples_mbps else 0.0


class DemandModel(abc.ABC):
    """Interface of a slice demand generator.

    Implementations must be deterministic given their seed so that the whole
    evaluation harness is reproducible.
    """

    def __init__(self, sla_mbps: float, seed: int | None = None):
        self.sla_mbps = ensure_positive(sla_mbps, "sla_mbps")
        self._rng = make_rng(seed)

    @abc.abstractmethod
    def mean_mbps(self, epoch: int) -> float:
        """Expected load during ``epoch`` (before clipping to the SLA)."""

    @abc.abstractmethod
    def std_mbps(self, epoch: int) -> float:
        """Standard deviation of the load during ``epoch``."""

    def sample_epoch(self, epoch: int, num_samples: int) -> EpochDemand:
        """Draw the monitoring samples observed during one epoch.

        The tenant's traffic is shaped by the middlebox so it never exceeds
        the SLA bitrate; samples are clipped to ``[0, sla_mbps]`` accordingly.
        """
        if num_samples <= 0:
            raise ValueError(f"num_samples must be positive, got {num_samples}")
        mean = self.mean_mbps(epoch)
        std = self.std_mbps(epoch)
        if std == 0.0:
            raw = np.full(num_samples, mean)
        else:
            raw = self._rng.normal(loc=mean, scale=std, size=num_samples)
        clipped = np.clip(raw, 0.0, self.sla_mbps)
        return EpochDemand(epoch=epoch, samples_mbps=tuple(clipped.tolist()))

    def peak_series(self, num_epochs: int, samples_per_epoch: int) -> np.ndarray:
        """Convenience helper: per-epoch peak loads for ``num_epochs`` epochs."""
        return np.array(
            [
                self.sample_epoch(epoch, samples_per_epoch).peak_mbps
                for epoch in range(num_epochs)
            ]
        )


class GaussianDemand(DemandModel):
    """Stationary Gaussian demand: the paper's simulation workload.

    Section 4.3.2: "the actual traffic demand follows a Gaussian distribution
    with variable mean and standard deviation sigma", with the mean set to
    ``alpha * Lambda`` in the homogeneous/heterogeneous scenarios.
    """

    def __init__(
        self,
        mean_mbps: float,
        std_mbps: float,
        sla_mbps: float,
        seed: int | None = None,
    ):
        super().__init__(sla_mbps=sla_mbps, seed=seed)
        self._mean = ensure_non_negative(mean_mbps, "mean_mbps")
        self._std = ensure_non_negative(std_mbps, "std_mbps")

    def mean_mbps(self, epoch: int) -> float:
        return self._mean

    def std_mbps(self, epoch: int) -> float:
        return self._std


class DeterministicDemand(GaussianDemand):
    """Constant demand with no variability (the mMTC template, sigma = 0)."""

    def __init__(self, mean_mbps: float, sla_mbps: float, seed: int | None = None):
        super().__init__(mean_mbps=mean_mbps, std_mbps=0.0, sla_mbps=sla_mbps, seed=seed)


class OnOffDemand(DemandModel):
    """Bursty on/off demand used in robustness and ablation studies.

    During "on" epochs the load is Gaussian around ``on_mean_mbps``; during
    "off" epochs it drops to ``off_mean_mbps``.  The on/off state follows a
    two-state Markov chain, which produces the kind of abrupt load changes
    that stress the forecasting block.
    """

    def __init__(
        self,
        on_mean_mbps: float,
        off_mean_mbps: float,
        std_mbps: float,
        sla_mbps: float,
        p_on_to_off: float = 0.2,
        p_off_to_on: float = 0.2,
        seed: int | None = None,
    ):
        super().__init__(sla_mbps=sla_mbps, seed=seed)
        self._on_mean = ensure_non_negative(on_mean_mbps, "on_mean_mbps")
        self._off_mean = ensure_non_negative(off_mean_mbps, "off_mean_mbps")
        self._std = ensure_non_negative(std_mbps, "std_mbps")
        if not 0.0 <= p_on_to_off <= 1.0 or not 0.0 <= p_off_to_on <= 1.0:
            raise ValueError("transition probabilities must be in [0, 1]")
        self._p_on_to_off = p_on_to_off
        self._p_off_to_on = p_off_to_on
        self._state_cache: dict[int, bool] = {}

    def _state(self, epoch: int) -> bool:
        """True when the source is 'on' during ``epoch`` (memoised chain)."""
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        if epoch in self._state_cache:
            return self._state_cache[epoch]
        # Build the chain forward from the last known epoch for determinism.
        start = max(self._state_cache) + 1 if self._state_cache else 0
        state = self._state_cache.get(start - 1, True)
        for e in range(start, epoch + 1):
            flip = self._rng.random()
            if state:
                state = flip >= self._p_on_to_off
            else:
                state = flip < self._p_off_to_on
            self._state_cache[e] = state
        return self._state_cache[epoch]

    def mean_mbps(self, epoch: int) -> float:
        return self._on_mean if self._state(epoch) else self._off_mean

    def std_mbps(self, epoch: int) -> float:
        return self._std
