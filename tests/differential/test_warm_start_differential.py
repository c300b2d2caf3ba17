"""Warm-vs-cold differential checking of the Benders warm-start layer.

One contract: the decisions of a warm-started solver carried across a drift
sequence are *bit-identical* to fresh cold solves of the same instances.  The
warm fast path accepts only a re-proposal -- a seeded master that closes the
solver's own stopping rule and proposes exactly the previous admission
vector -- and otherwise runs the cold loop from a virgin master.  Pinned as
equality of fingerprints on short, narrow drift (spread 0.02 x 2 epochs, the
28-scenario sweep) and on long, wide drift (spread 0.05 x 12 epochs): a
difference in either is a regression.  Warm starts must also never cost
extra master iterations.
"""

from __future__ import annotations

import pytest

from repro.core.benders import BendersSolver
from repro.scenarios import (
    DIFFERENTIAL_FAMILY,
    decision_fingerprint,
    sample_scenario,
    warm_start_check,
)
from repro.scenarios.oracle import (
    WarmStartOutcome,
    _perturbed_forecast_sequence,
    problem_for_scenario,
)
from repro.utils.rng import derive_seed
from tests.differential.conftest import (
    BASE_SEED,
    NUM_DIFFERENTIAL_SCENARIOS,
    seed_note,
)

pytestmark = pytest.mark.differential

SEEDS = [BASE_SEED + index for index in range(NUM_DIFFERENTIAL_SCENARIOS)]

#: Steady-state drift epochs checked per scenario (on top of the cold
#: epoch-0 instance).  Two keep the sweep inside the CI time cap while
#: still exercising consecutive fast-path hits.
_NUM_PERTURBATIONS = 2

#: Per-seed outcomes, shared across the tests in this module so the
#: aggregate assertions do not redo the sweep's solver work.
_OUTCOMES: dict[int, object] = {}


def _outcome(seed):
    if seed not in _OUTCOMES:
        scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=seed)
        _OUTCOMES[seed] = warm_start_check(
            scenario, num_perturbations=_NUM_PERTURBATIONS
        )
    return _OUTCOMES[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_warm_start_is_bit_identical_to_cold(seed):
    outcome = _outcome(seed)
    assert outcome.identical, (
        f"warm-started Benders diverged from cold solves: {outcome.describe()} "
        f"{seed_note(seed)}"
    )
    assert outcome.warm_iterations <= outcome.cold_iterations, (
        f"warm start cost extra master iterations: {outcome.describe()} "
        f"{seed_note(seed)}"
    )


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_warm_start_is_bit_identical_under_exact_tolerances(seed):
    """Same claim under the harness's near-exact stopping rule (1e-9)."""
    scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=seed)
    outcome = warm_start_check(
        scenario, num_perturbations=_NUM_PERTURBATIONS, exact_tolerances=True
    )
    assert outcome.identical, f"{outcome.describe()} {seed_note(seed)}"


def test_warm_start_fast_path_engages_somewhere():
    """The sweep exercises the fast path, not just the cold fallback."""
    hits = sum(_outcome(seed).fast_path_hits for seed in SEEDS[:8])
    assert hits > 0


def test_warm_start_check_is_reproducible():
    scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=BASE_SEED)
    first = warm_start_check(scenario, num_perturbations=1)
    second = warm_start_check(scenario, num_perturbations=1)
    assert first == second


# --------------------------------------------------------------------- #
# Long, wide drift: the same contract
# --------------------------------------------------------------------- #
#: 48 scenarios x (1 + 12) instances, each solved cold and warm: ~12 s.  The
#: window holds the seeds whose fingerprints differed while the fast path
#: also accepted certified previous decisions the master did not re-propose
#: (32, 35, 41, 46, 79 at base seed 0) as well as ones that never did.
_DRIFT_SEEDS = [BASE_SEED + 32 + index for index in range(48)]
_DRIFT_EPOCHS = 12
_DRIFT_SPREAD = 0.05


def _drift_solver(warm: bool) -> BendersSolver:
    return BendersSolver(
        max_iterations=60, master_time_limit_s=None, time_limit_s=None, warm_start=warm
    )


@pytest.mark.parametrize("seed", _DRIFT_SEEDS)
def test_long_wide_drift_returns_certified_decisions(seed):
    scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=seed)
    base = problem_for_scenario(scenario)
    instances = [base] + _perturbed_forecast_sequence(
        base,
        count=_DRIFT_EPOCHS,
        spread=_DRIFT_SPREAD,
        seed=derive_seed(scenario.seed, "warm-start-oracle", scenario.name),
    )
    warm_solver = _drift_solver(True)
    for epoch, instance in enumerate(instances):
        cold = _drift_solver(False).solve(instance)
        warm = warm_solver.solve(instance)
        note = f"epoch {epoch}: warm {warm.stats.message} / cold {cold.stats.message} {seed_note(seed)}"
        assert cold.stats.optimal and warm.stats.optimal, note
        assert warm.stats.iterations <= cold.stats.iterations, note
        assert decision_fingerprint(warm) == decision_fingerprint(cold), note


def test_the_failure_message_names_the_mismatched_instances():
    outcome = WarmStartOutcome("s", 4, (2,), cold_iterations=9, warm_iterations=7, fast_path_hits=1)
    assert not outcome.identical
    assert outcome.describe() == (
        "s: 4 instances, 1 fast-path hits, iterations cold=9 warm=7, MISMATCH at [2]"
    )
