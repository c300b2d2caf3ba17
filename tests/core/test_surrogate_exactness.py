"""The invariant that makes Benders optimality-cut-only, executed.

The master carries the floor-footprint capacity surrogate
``A_x x + A_z (floor . x) <= cap`` (``_MasterState``).  It is an exact
projection of slave feasibility onto binary admission vectors, so every
master candidate has a feasible slave and the loop never needs a
feasibility cut.  The property test below checks the projection on random
vectors of generated instances; the forced break checks what the loop does
when the invariant is broken: a typed numerical error the safeguard chain
degrades on, never a cut.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.core.benders import BendersSolver
from repro.core.decomposition import SlaveNumericalError, SlaveProblem
from repro.core.problem import ACRRProblem
from repro.faults import TIER_PRIMARY, SafeguardedSolver
from repro.scenarios import DIFFERENTIAL_FAMILY, problem_for_scenario, sample_scenario
from repro.utils.rng import derive_seed
from tests.differential.conftest import BASE_SEED, seed_note

SEEDS = [BASE_SEED + index for index in range(12)]

#: Random admission vectors drawn per instance.
VECTORS_PER_INSTANCE = 16

#: Vectors whose footprint lies this close (relative) to a capacity bound are
#: skipped: there the verdict is the LP solver's tolerance, not the algebra.
BOUND_MARGIN = 1e-6


def differential_problem(seed: int) -> ACRRProblem:
    return problem_for_scenario(sample_scenario(DIFFERENTIAL_FAMILY, seed=seed))


def test_slave_feasible_exactly_when_the_floor_footprint_fits():
    verdicts = {True: 0, False: 0}
    for seed in SEEDS:
        problem = differential_problem(seed)
        slave = SlaveProblem(problem)
        footprint, capacity = problem.floor_footprint(), problem.capacity_block().upper
        rng = np.random.default_rng(derive_seed(seed, "surrogate-exactness"))
        for _ in range(VECTORS_PER_INSTANCE):
            # Low densities fit, high ones overload: both verdicts get drawn.
            density = rng.uniform(0.0, 0.6)
            x = (rng.random(problem.num_items) < density).astype(float)
            load = footprint.dot(x)
            if np.any(np.abs(load - capacity) <= BOUND_MARGIN * np.maximum(1.0, capacity)):
                continue
            fits = bool(np.all(load <= capacity))
            assert slave.evaluate(x).feasible == fits, seed_note(seed)
            verdicts[fits] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts


def test_a_broken_surrogate_raises_and_the_safeguard_degrades_without_retry(monkeypatch):
    problem = differential_problem(BASE_SEED)
    everything = np.ones(problem.num_items)
    assert np.any(problem.floor_footprint().dot(everything) > problem.capacity_block().upper)
    shape = problem.floor_footprint().shape
    monkeypatch.setattr(ACRRProblem, "floor_footprint", lambda self: sparse.csc_matrix(shape))

    with pytest.raises(SlaveNumericalError, match="infeasible at a master candidate"):
        BendersSolver(warm_start=False).solve(problem)

    primary = BendersSolver(warm_start=False)
    attempts = []
    real_solve = primary.solve
    monkeypatch.setattr(primary, "solve", lambda p: attempts.append(p) or real_solve(p))
    decision = SafeguardedSolver(primary).solve(problem)
    assert len(attempts) == 1
    assert decision.stats.tier != TIER_PRIMARY
    assert decision.stats.retries == 0
    assert decision.stats.fallback_reason.startswith("SlaveNumericalError")
