"""Differential checking of the solver layer on generated scenarios.

For every sampled small scenario, the Benders decomposition must reproduce
the exact MILP optimum (Theorem 2) within 1e-6 relative tolerance, and the
overbooking optimum must dominate the no-overbooking baseline.  This is the
refinement-check that caught the pre-surrogate Benders failure mode: on
transport-constrained instances the master cycled through weak phase-1
feasibility cuts and never produced an incumbent (fixed by the
floor-footprint capacity surrogates in ``_MasterState``).

The same sweep shadows every stacked block-pricing call with the per-block
reference: at every candidate a solve visits, the one block-diagonal LP that
prices all blocks must return what pricing each block with its own LP
returns -- bit-identical multipliers, objectives within 1e-12.

Seeds on which the claim is known *not* to hold are listed in
:data:`KNOWN_OPEN` by absolute scenario seed, each a strict xfail carrying
its measured gap, so the list is executed, not just documented.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.errors import SolverError
from repro.core.benders import BendersSolver
from repro.core.decomposition import SlaveProblem
from repro.scenarios import (
    DIFFERENTIAL_FAMILY,
    SEASONAL_ONLINE_FAMILY,
    differential_check,
    problem_for_scenario,
    sample_scenario,
)
from repro.simulation.runner import run_scenario
from tests.differential.conftest import BASE_SEED, seed_note

pytestmark = pytest.mark.differential

#: The exactness sweep covers the first 128 seeds of the family.
NUM_SWEEP_SCENARIOS = 128

#: Absolute scenario seeds on which Benders misses the MILP optimum at 1e-6
#: within the harness's 12-iteration budget, with the measured relative gap.
#: On 38 / 49 the incumbent does not move after 200 iterations either (lower
#: bound stalled at -6.2 / -14.4); on 98 / 107 Benders earns less than the
#: no-overbooking optimum, so dominance fails too.  The single-cut master had
#: the same gaps on all four: deleting it did not cure them.
KNOWN_OPEN = {38: 4.1e-6, 49: 2.1e-6, 98: 8.1e-6, 107: 2.1e-6}

#: How far a known-open seed may drift before it counts as a regression.
KNOWN_OPEN_CEILING = 1e-5


def _sweep_param(seed: int):
    gap = KNOWN_OPEN.get(seed)
    if gap is None:
        return seed
    return pytest.param(
        seed,
        marks=pytest.mark.xfail(
            strict=True,
            reason=f"known open: relative gap {gap:.1e} against the MILP at 1e-6",
        ),
    )


SEEDS = [BASE_SEED + index for index in range(NUM_SWEEP_SCENARIOS)]


@pytest.fixture
def stacked_vs_reference(monkeypatch):
    """Shadow every ``evaluate_blocks`` call with the per-block reference.

    Returns ``(candidates visited, descriptions of every disagreement)``.
    """
    stacked_pricing = SlaveProblem.evaluate_blocks
    visited: list[int] = []
    disagreements: list[str] = []

    def shadowed(slave: SlaveProblem, x: np.ndarray):
        outcomes = stacked_pricing(slave, x)
        visited.append(len(outcomes))
        for block, got in zip(slave.blocks(), outcomes):
            want = slave.evaluate_block(block, x)
            same = (
                got.block_index == want.block_index
                and np.array_equal(got.duals, want.duals)
                and abs(got.objective - want.objective) <= 1e-12
            )
            if not same:
                disagreements.append(
                    f"candidate {len(visited)} block {block.index}: "
                    f"stacked {got} != reference {want}"
                )
        return outcomes

    monkeypatch.setattr(SlaveProblem, "evaluate_blocks", shadowed)
    return visited, disagreements


@pytest.mark.parametrize("seed", [_sweep_param(seed) for seed in SEEDS])
def test_benders_matches_milp_and_dominates_baseline(seed, stacked_vs_reference):
    visited, disagreements = stacked_vs_reference
    scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=seed)
    outcome = differential_check(scenario, rel_tolerance=1e-6)
    assert outcome.benders_matches_milp, (
        f"Benders disagrees with the exact MILP: {outcome.describe()} {seed_note(seed)}"
    )
    assert outcome.dominates_baseline, (
        f"overbooking fails to dominate the baseline: {outcome.describe()} "
        f"{seed_note(seed)}"
    )
    assert len(visited) == outcome.benders_iterations
    assert not disagreements, (
        f"stacked block pricing departs from the per-block reference: "
        f"{disagreements[0]} {seed_note(seed)}"
    )


@pytest.mark.parametrize("seed", sorted(KNOWN_OPEN))
def test_known_open_seeds_do_not_worsen(seed):
    """The strict xfails above say "still open"; this says "no worse"."""
    scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=seed)
    outcome = differential_check(scenario, rel_tolerance=KNOWN_OPEN_CEILING)
    assert outcome.benders_matches_milp, outcome.describe()
    assert outcome.dominates_baseline, outcome.describe()


class TestFormerlyBadSeedsStayFixed:
    """Inputs ``benchmarks/e2e/README.md`` lists as defects of the deleted
    single-cut master, pinned as passing."""

    def test_seed_36_certifies_in_two_iterations_at_default_tolerance(self):
        # Single-cut needed 186 iterations and the 120 s cut-off here.
        problem = problem_for_scenario(sample_scenario(DIFFERENTIAL_FAMILY, seed=36))
        decision = BendersSolver(
            master_time_limit_s=None, time_limit_s=None, warm_start=False
        ).solve(problem)
        assert decision.stats.optimal
        assert decision.stats.iterations == 2

    def test_seed_72_no_longer_raises(self):
        outcome = differential_check(sample_scenario(DIFFERENTIAL_FAMILY, seed=72))
        assert outcome.benders_matches_milp, outcome.describe()

    def test_seed_100_milp_dominates_the_baseline(self):
        # At mip_rel_gap=1e-6 the MILP "optimum" earned less than the
        # no-overbooking solver; the oracle certifies at 1e-9.
        outcome = differential_check(sample_scenario(DIFFERENTIAL_FAMILY, seed=100))
        slack = outcome.rel_tolerance * max(abs(outcome.baseline_net_revenue), 1.0)
        assert outcome.milp_net_revenue >= outcome.baseline_net_revenue - slack
        assert outcome.dominates_baseline, outcome.describe()


@pytest.mark.xfail(
    strict=True,
    raises=SolverError,
    reason=(
        "BendersSolver never builds the Section 3.4 deficit columns (only "
        "DirectMILPSolver reads options.allow_deficit; optimal / kac / "
        "no-overbooking all complete this scenario), so the first epoch whose "
        "committed slices need slack makes the master infeasible"
    ),
)
def test_seasonal_online_seed_0_runs_under_benders():
    run_scenario(sample_scenario(SEASONAL_ONLINE_FAMILY, 0), "benders")


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_differential_outcome_is_reproducible(seed):
    """The whole check is a pure function of (family, seed)."""
    first = differential_check(sample_scenario(DIFFERENTIAL_FAMILY, seed=seed))
    second = differential_check(sample_scenario(DIFFERENTIAL_FAMILY, seed=seed))
    assert first == second, seed_note(seed)


def test_family_covers_enough_scenarios():
    """The sweep size stays at or above the 128-scenario acceptance bar."""
    assert len(SEEDS) >= 128
