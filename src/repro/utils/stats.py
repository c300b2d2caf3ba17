"""Statistical helpers used across the evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class EmpiricalCDF:
    """Empirical cumulative distribution function of a sample.

    Used to reproduce the path-capacity and path-delay CDFs of Fig. 4(d)-(e).
    """

    values: tuple[float, ...]

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "EmpiricalCDF":
        ordered = tuple(sorted(float(s) for s in samples))
        if not ordered:
            raise ValueError("cannot build a CDF from an empty sample")
        return cls(values=ordered)

    def evaluate(self, x: float) -> float:
        """Return P[X <= x]."""
        return float(np.searchsorted(self.values, x, side="right")) / len(self.values)

    def quantile(self, q: float) -> float:
        """Return the q-quantile (0 <= q <= 1) of the sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(np.asarray(self.values), q))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (sorted values, cumulative probabilities) for plotting/tables."""
        xs = np.asarray(self.values)
        ps = np.arange(1, len(xs) + 1) / len(xs)
        return xs, ps


def mean_and_stderr(samples: Sequence[float]) -> tuple[float, float]:
    """Return the sample mean and its standard error.

    The paper runs each simulation "until the mean revenue has a standard
    error lower than 2%"; the simulation engine uses this helper for that
    stopping rule.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, float("inf")
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size))
    return mean, stderr


def relative_gain(value: float, baseline: float) -> float:
    """Percentage gain of ``value`` over ``baseline`` (Fig. 5's y-axis).

    Returns 0 when the baseline is zero and the value is also zero; raises if
    the baseline is zero but the value is not, because a relative gain is then
    undefined (the paper never hits that case: the no-overbooking baseline
    always earns something).
    """
    if baseline == 0:
        if value == 0:
            return 0.0
        raise ZeroDivisionError("relative gain undefined for a zero baseline")
    return 100.0 * (value - baseline) / abs(baseline)


def standard_error_below(samples: Sequence[float], threshold_fraction: float) -> bool:
    """True when the standard error of the mean is below a fraction of |mean|.

    ``threshold_fraction=0.02`` reproduces the paper's 2% stopping criterion.
    """
    if threshold_fraction <= 0:
        raise ValueError("threshold_fraction must be positive")
    mean, stderr = mean_and_stderr(samples)
    if mean == 0:
        return stderr == 0
    return stderr <= threshold_fraction * abs(mean)
