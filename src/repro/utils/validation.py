"""Small argument-validation helpers shared by the public API.

Every helper follows one contract: on success the validated value is
returned plain (a ``float``, an ``int`` for the integer helpers); on failure a
``ValueError`` is raised whose message always names the offending argument,
states the admissible range and quotes the value received --
``"alpha must be in [0.0, 1.0], got 1.5"``.  Non-numeric and NaN inputs are
rejected with the same uniform message shape (instead of surfacing as
``TypeError`` from a comparison), so callers can rely on catching
``ValueError`` alone.  This is the northbound input contract (DESIGN.md,
"Input contract"): a bool or a numeric string is not a number, and ``2.0``
or a numpy scalar is the plain number it equals, which is what flows on.
"""

from __future__ import annotations

import dataclasses
import math
from numbers import Integral, Real
from typing import Mapping, Sequence

import numpy as np


def _as_real(value, name: str) -> float:
    """Coerce ``value`` to ``float``, rejecting non-numbers and NaN."""
    if type(value) is float and value == value:
        return value
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(
            f"{name} must be a real number, got {value!r} of type {type(value).__name__}"
        )
    try:
        value = float(value)
    except OverflowError:  # an int too large for a float is beyond every bound
        value = math.inf if value > 0 else -math.inf
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
    if type(value) is float and value >= 0.0:  # NaN fails the comparison
        return value
    value = _as_real(value, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def ensure_non_negative_finite(value: float, name: str) -> float:
    """Return ``value`` if a finite real number >= 0, otherwise raise ``ValueError``."""
    value = _as_real(value, name)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def ensure_in_range(value: float, low: float, high: float, name: str, *, closed=True) -> float:
    """Return ``value`` if within [low, high] (or (low, high)), else raise ``ValueError``."""
    value = _as_real(value, name)
    if not (low <= value <= high if closed else low < value < high):
        bounds = f"[{low}, {high}]" if closed else f"({low}, {high})"
        raise ValueError(f"{name} must be in {bounds}, got {value!r}")
    return value


def ensure_probability(value: float, name: str) -> float:
    """Return ``value`` if it is a valid probability in [0, 1]."""
    return ensure_in_range(value, 0.0, 1.0, name)


def _as_integral(value, name: str, kind: str) -> int:
    """Coerce ``value`` to ``int``, rejecting non-numbers, NaN/inf and fractions
    (an integer type is taken whole, however large)."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(
            f"{name} must be {kind}, got {value!r} of type {type(value).__name__}"
        )
    if isinstance(value, Integral):
        return int(value)
    as_float = float(value)
    if not as_float.is_integer():  # NaN and +-inf are not integers either
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


def ensure_int_in_range(value, low: int, high: int, name: str) -> int:
    """Return ``value`` as ``int`` if it is an integer within [low, high]."""
    value = _as_integral(value, name, f"an integer in [{low}, {high}]")
    if not low <= value <= high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return value


def ensure_text(value, name: str) -> str:
    """Return ``value`` if it is a non-empty ``str`` (a number is not text)."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string, got {value!r}")
    return value


def ensure_str(value, name: str) -> str:
    """Return ``value`` if it is a ``str``, the empty string included."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def ensure_bool(value, name: str) -> bool:
    """Return ``value`` as ``bool`` if it is a bool or a numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r} of type {type(value).__name__}")
    return bool(value)


def ensure_scalar(value, name: str):
    """Return ``value`` if it is a JSON scalar (``None``, bool, int, float, str)."""
    if value is not None and not isinstance(value, (bool, int, float, str)):
        raise ValueError(f"{name} must be a JSON scalar, got {value!r}")
    return value


def ensure_list(value, name: str) -> list | tuple:
    """Return ``value`` if it is a list or a tuple (a string is not a list)."""
    if type(value) is not list and type(value) is not tuple:
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def ensure_mapping(value, name: str) -> Mapping:
    """Return ``value`` if it is a mapping whose keys are all ``str``."""
    if isinstance(value, Mapping):
        for key in value:
            if type(key) is not str:
                break
        else:
            return value
    raise ValueError(f"{name} must be a mapping with str keys, got {value!r}")


def ensure_positive_count(value, name: str) -> int:
    """Return ``value`` as ``int`` if it is a positive integer *type*: an
    ``int`` or a numpy integer, not a bool.  Stricter than
    :func:`ensure_positive_int` for a count that sizes an array, which numpy
    refuses as a float (``12.0``) too."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


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


def ruled(rule, **options):
    """A dataclass field (``options`` as for :func:`dataclasses.field`) that
    :mod:`repro.api.wire` encodes and decodes by ``rule``: a helper above, a
    tuple of choices, an enum or wire record class, ``[rule]`` for a list of
    it or ``{str: rule}`` for a str-keyed mapping of it.  A field whose
    default is ``None`` also takes ``None``."""
    return dataclasses.field(metadata={"rule": rule}, **options)
