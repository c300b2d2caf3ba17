"""Small argument-validation helpers shared by the public API.

Every helper follows one contract: on success the validated value is
returned as a ``float`` (or ``int`` for the integer helpers); on failure a
``ValueError`` is raised whose message always names the offending argument,
states the admissible range and quotes the value received --
``"alpha must be in [0.0, 1.0], got 1.5"``.  Non-numeric and NaN inputs are
rejected with the same uniform message shape (instead of surfacing as
``TypeError`` from a comparison), so callers can rely on catching
``ValueError`` alone.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Sequence


def _as_real(value, name: str) -> float:
    """Coerce ``value`` to ``float``, rejecting non-numbers and NaN."""
    if type(value) is float and value == value:
        return value
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(
            f"{name} must be a real number, got {value!r} of type {type(value).__name__}"
        )
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{name} must be a real number, got NaN")
    return value


def ensure_finite(value: float, name: str) -> float:
    """Return ``value`` if a finite real number, otherwise raise ``ValueError``."""
    value = _as_real(value, name)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def ensure_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive, otherwise raise ``ValueError``."""
    value = _as_real(value, name)
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def ensure_non_negative(value: float, name: str) -> float:
    """Return ``value`` if >= 0, otherwise raise ``ValueError``."""
    value = _as_real(value, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def ensure_in_range(value: float, low: float, high: float, name: str) -> float:
    """Return ``value`` if within [low, high], otherwise raise ``ValueError``."""
    value = _as_real(value, name)
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def ensure_probability(value: float, name: str) -> float:
    """Return ``value`` if it is a valid probability in [0, 1]."""
    return ensure_in_range(value, 0.0, 1.0, name)


def _as_integral(value, name: str, kind: str) -> int:
    """Coerce ``value`` to ``int``, rejecting non-numbers, NaN/inf and fractions."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(
            f"{name} must be {kind}, got {value!r} of type {type(value).__name__}"
        )
    as_float = float(value)
    if not math.isfinite(as_float) or as_float != int(as_float):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(as_float)


def ensure_positive_int(value, name: str) -> int:
    """Return ``value`` as ``int`` if it is a strictly positive integer."""
    value = _as_integral(value, name, "a positive integer")
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def ensure_non_negative_int(value, name: str) -> int:
    """Return ``value`` as ``int`` if it is a non-negative integer."""
    value = _as_integral(value, name, "a non-negative integer")
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def ensure_choice(value, choices: Sequence, name: str):
    """Return ``value`` if it is one of ``choices``, otherwise raise ``ValueError``."""
    if value not in choices:
        rendered = ", ".join(repr(choice) for choice in choices)
        raise ValueError(f"{name} must be one of ({rendered}), got {value!r}")
    return value


def ensure_ordered_pair(
    value, name: str, low: float | None = None, high: float | None = None
) -> tuple[float, float]:
    """Validate a ``(min, max)`` pair, optionally bounded to [low, high].

    Used by the scenario-generation specs, whose knobs are ranges sampled
    uniformly; accepts any two-element sequence and returns a float tuple.
    """
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)) or len(value) != 2:
        raise ValueError(f"{name} must be a (min, max) pair, got {value!r}")
    lo = _as_real(value[0], f"{name}[0]")
    hi = _as_real(value[1], f"{name}[1]")
    if lo > hi:
        raise ValueError(f"{name} must satisfy min <= max, got {value!r}")
    if (low is not None and lo < low) or (high is not None and hi > high):
        bounds = f"[{'-inf' if low is None else low}, {'inf' if high is None else high}]"
        raise ValueError(f"{name} must lie within {bounds}, got {value!r}")
    return (lo, hi)
