"""Shared plumbing for the differential / randomized-invariant harness.

Reproducibility contract: every test in this package derives its randomness
from ``REPRO_TEST_SEED`` (default 0).  The CI workflow exports the variable
and echoes it when a shard fails, so any failure is replayable locally with

    REPRO_TEST_SEED=<seed> pytest -m differential
"""

from __future__ import annotations

import os

import pytest

#: Base seed of the whole differential harness; folded into every sampled
#: scenario seed and echoed in failure messages.
BASE_SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))

#: How many scenarios the warm-start and LP-backend sweeps sample (the
#: exactness sweep in ``test_differential_solvers.py`` runs its own 128).
NUM_DIFFERENTIAL_SCENARIOS = 28


def seed_note(seed: int) -> str:
    """Failure-message suffix making the run reproducible from the log."""
    return (
        f"[REPRO_TEST_SEED={BASE_SEED}, scenario seed={seed}; rerun with "
        f"REPRO_TEST_SEED={BASE_SEED} pytest -m differential]"
    )


@pytest.fixture(scope="session")
def base_seed() -> int:
    return BASE_SEED
