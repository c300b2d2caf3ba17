"""Shared utilities: seeded random streams, statistics helpers, validation."""

from repro.utils.rng import make_rng
from repro.utils.stats import (
    EmpiricalCDF,
    mean_and_stderr,
    relative_gain,
)
from repro.utils.validation import (
    ensure_positive,
    ensure_non_negative,
    ensure_in_range,
    ensure_probability,
)

__all__ = [
    "make_rng",
    "EmpiricalCDF",
    "mean_and_stderr",
    "relative_gain",
    "ensure_positive",
    "ensure_non_negative",
    "ensure_in_range",
    "ensure_probability",
]
