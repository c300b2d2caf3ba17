"""Differential certification of the multi-cut Benders master.

Two claims over the full generated-scenario sweep:

* **exactness** -- the disaggregated (multi-cut) master converges to the
  same optimum as the exact MILP, and hence the single-cut master: the
  per-block cuts are derived from relaxed per-tenant sub-LPs
  (``q(x) >= sum_b q_b(x)``) and ride alongside the classic aggregate cut,
  so they tighten the trajectory without perturbing the fixed point;
* **stacked pricing** -- at every candidate a multi-cut solve visits, the
  one block-diagonal LP that prices all blocks returns what pricing each
  block with its own LP returns: the same feasibility verdicts, bit-identical
  multipliers, objectives within 1e-12.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decomposition import SlaveProblem
from repro.scenarios import DIFFERENTIAL_FAMILY, multi_cut_check, sample_scenario
from tests.differential.conftest import (
    BASE_SEED,
    NUM_DIFFERENTIAL_SCENARIOS,
    seed_note,
)

pytestmark = pytest.mark.differential

SEEDS = [BASE_SEED + index for index in range(NUM_DIFFERENTIAL_SCENARIOS)]


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
                and got.feasible == want.feasible
                and np.array_equal(got.duals, want.duals)
                and np.array_equal(got.ray, want.ray)
                and (not got.feasible or abs(got.objective - want.objective) <= 1e-12)
            )
            if not same:
                disagreements.append(
                    f"candidate {len(visited)} block {block.index}: "
                    f"stacked {got} != reference {want}"
                )
        return outcomes

    monkeypatch.setattr(SlaveProblem, "evaluate_blocks", shadowed)
    return visited, disagreements


@pytest.mark.parametrize("seed", SEEDS)
def test_multi_cut_matches_milp_and_stacked_pricing_matches_reference(
    seed, stacked_vs_reference
):
    visited, disagreements = stacked_vs_reference
    scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=seed)
    outcome = multi_cut_check(scenario, rel_tolerance=1e-6)
    assert outcome.multi_cut_matches_milp, (
        f"multi-cut Benders disagrees with the exact MILP: {outcome.describe()} "
        f"{seed_note(seed)}"
    )
    assert outcome.matches_single_cut, (
        f"multi-cut and single-cut Benders disagree: {outcome.describe()} "
        f"{seed_note(seed)}"
    )
    assert len(visited) == outcome.multi_cut_iterations
    assert not disagreements, (
        f"stacked block pricing departs from the per-block reference: "
        f"{disagreements[0]} {seed_note(seed)}"
    )


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_multi_cut_outcome_is_reproducible(seed):
    """The whole check is a pure function of (family, seed)."""
    first = multi_cut_check(sample_scenario(DIFFERENTIAL_FAMILY, seed=seed))
    second = multi_cut_check(sample_scenario(DIFFERENTIAL_FAMILY, seed=seed))
    assert first == second, seed_note(seed)
