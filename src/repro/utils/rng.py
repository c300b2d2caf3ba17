"""Reproducible random number generation.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` that is created here.  Components never call
the module-level numpy functions, so two runs with the same seed produce
identical traces, forecasts and admission decisions.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from typing import Sequence

import numpy as np

_DEFAULT_SEED = 20181204  # CoNEXT'18 presentation date, purely cosmetic.


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a new :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        Seed for the underlying PCG64 bit generator.  ``None`` selects the
        library default so that examples are reproducible out of the box.
    """
    if seed is None:
        seed = _DEFAULT_SEED
    return np.random.default_rng(seed)


def derive_seed(seed: int | None, *labels: int | str) -> int:
    """Derive a deterministic child seed from a base seed and labels.

    The labels (e.g. tenant name, epoch index) are hashed into the seed
    sequence entropy so that distinct labels give independent streams.
    String labels use CRC32 rather than the built-in ``hash``: the latter is
    salted per process (PYTHONHASHSEED), which silently made every run draw
    different demand traces and oracle forecasts.
    """
    base = _DEFAULT_SEED if seed is None else seed
    entropy: list[int] = [base]
    for label in labels:
        if isinstance(label, int):
            entropy.append(label & 0xFFFFFFFF)
        else:
            entropy.append(zlib.crc32(str(label).encode("utf-8")) & 0xFFFFFFFF)
    seq = np.random.SeedSequence(entropy)
    return int(seq.generate_state(1)[0])


def normalize_spec(value):
    """Reduce a JSON-like spec tree to the shapes a JSON round trip produces.

    Tuples become lists, sets become sorted lists, numpy scalars unbox to
    Python scalars; mappings and sequences recurse.  Both the content hash
    (:func:`spec_hash`) and the campaign layer's serialisation route through
    this single helper, so a spec hashes, persists and reloads to exactly
    the same structure.  Values with no JSON shape raise ``TypeError``.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): normalize_spec(val) for key, val in value.items()}
    if isinstance(value, (set, frozenset)):
        return [normalize_spec(item) for item in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [normalize_spec(item) for item in value]
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    raise TypeError(f"cannot hash {type(value).__name__} values in a run spec")


def spec_hash(spec: object) -> str:
    """Content hash of a JSON-like object, stable across processes and runs.

    The object is normalised via :func:`normalize_spec`, serialised as
    canonical JSON (sorted keys, no whitespace) and hashed with SHA-256.
    The campaign layer keys its on-disk run cache by this hash, so two
    structurally identical specs -- built in different processes, sessions
    or machines -- resolve to the same cached record; ``(0.2, 0.5)`` and
    ``[0.2, 0.5]`` hash identically.
    """
    payload = json.dumps(
        normalize_spec(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def derive_spec_seed(seed: int | None, spec: object) -> int:
    """Derive a per-run seed from a base seed and a JSON-like spec.

    Equivalent to ``derive_seed(seed, spec_hash(spec))`` -- the spec's
    content hash is folded into the seed-sequence entropy, so every distinct
    grid point gets an independent, process-stable demand stream.
    """
    return derive_seed(seed, spec_hash(spec))


def choice_without_replacement(
    rng: np.random.Generator, items: Sequence, count: int
) -> list:
    """Sample ``count`` distinct items, preserving the original ordering."""
    if count > len(items):
        raise ValueError(
            f"cannot sample {count} items from a sequence of length {len(items)}"
        )
    indices = rng.choice(len(items), size=count, replace=False)
    return [items[i] for i in sorted(indices)]
