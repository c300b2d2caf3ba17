"""The cut pool is a working set: a steady-state epoch's master does not
grow with the age of the solver.  Counts, never timings.

One structure, 150 forecast drifts (``benchmarks/bench_warm_start.py``'s
sweep scenario: ``DIFFERENTIAL_FAMILY`` seed 0, spread 0.02) through one
pooled ``BendersSolver``.  Every drift epoch certifies in one round whether
the pool ages its multipliers or hoards them; what ageing changes is the
size of the master HiGHS is handed to get there.  Hit counts of *other*
instances move both ways with the re-proposal rule and are deliberately not
asserted here.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.core.lpsolver as lpsolver
from repro.core.benders import (
    _MAX_CUTS_PER_STRUCTURE,
    _MAX_IDLE_SOLVES,
    BendersSolver,
    CutPool,
)
from repro.scenarios import DIFFERENTIAL_FAMILY, decision_fingerprint, sample_scenario
from repro.scenarios.oracle import _perturbed_forecast_sequence, problem_for_scenario
from repro.utils.rng import derive_seed

DRIFT_EPOCHS = 150


def drift_instances(seed: int) -> list:
    scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=seed)
    base = problem_for_scenario(scenario, epoch=0)
    return [base] + _perturbed_forecast_sequence(
        base,
        count=DRIFT_EPOCHS,
        spread=0.02,
        seed=derive_seed(scenario.seed, "warm-start-bench", scenario.name),
    )


@pytest.fixture(scope="module")
def instances():
    return drift_instances(0)


real_record = CutPool.record


def record_every_multiplier(self, key, num_rows, new_multipliers, best_x):
    """``CutPool.record`` without its deduplication: every multiplier stored."""
    real_record(self, key, num_rows, [], best_x)
    entry = self._entries[key]
    fresh = tuple((np.array(mu), block_id) for mu, block_id in new_multipliers)
    multipliers = entry.multipliers + fresh
    idle = entry.idle + (0,) * len(new_multipliers)
    excess = max(0, len(multipliers) - _MAX_CUTS_PER_STRUCTURE)
    self._entries[key] = replace(entry, multipliers=multipliers[excess:], idle=idle[excess:])


def sweep(instances, ageing: bool, deduplicate: bool = True):
    """Per epoch ``(iterations, rows of the master handed to HiGHS, decision
    fingerprint)``, and the pool the sweep leaves behind."""
    master_rows: list[int] = []
    real_run = lpsolver._run

    def recording_run(highs, model, is_mip):
        if is_mip:
            master_rows.append(model.matrix.shape[0])
        return real_run(highs, model, is_mip)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lpsolver, "_run", recording_run)
        if not ageing:
            patch.setattr(CutPool, "age", lambda self, key, master, values: None)
        if not deduplicate:
            patch.setattr(CutPool, "record", record_every_multiplier)
        solver = BendersSolver(master_time_limit_s=None, time_limit_s=None)
        epochs = []
        for problem in instances:
            del master_rows[:]
            decision = solver.solve(problem)
            assert decision.stats.optimal
            epochs.append(
                (decision.stats.iterations, master_rows[0], decision_fingerprint(decision))
            )
    return epochs, solver.cut_pool


@pytest.fixture(scope="module")
def aged(instances):
    return sweep(instances, ageing=True)


def test_the_seeded_master_stops_growing(aged):
    epochs, pool = aged
    (entry,) = pool._entries.values()
    assert [iterations for iterations, _, _ in epochs[1:]] == [1] * DRIFT_EPOCHS
    rows = [rows for _, rows, _ in epochs]
    # A hit records one cut and nothing leaves before it has idled, so the
    # master may breathe by the idle constant; it may not trend.
    assert max(rows[100:]) <= max(rows[50:100]) + _MAX_IDLE_SOLVES
    # Everything a hoarding pool would hold by now is 1 cut per hit on top of
    # the cold epoch's; the working set is a fraction of that and of the cap.
    hoard = min(_MAX_CUTS_PER_STRUCTURE, len(epochs) + rows[1] - rows[0])
    assert len(entry.multipliers) == len(entry.idle)
    assert 0 < len(entry.multipliers) <= hoard // 4
    assert len(entry.multipliers) <= _MAX_CUTS_PER_STRUCTURE // 4
    assert max(entry.idle) <= _MAX_IDLE_SOLVES


def test_a_hoarding_pool_certifies_the_same_epochs_with_a_growing_master(instances, aged):
    epochs, pool = sweep(instances, ageing=False)
    (entry,) = pool._entries.values()
    assert [iterations for iterations, _, _ in epochs[1:]] == [1] * DRIFT_EPOCHS
    rows = [rows for _, rows, _ in epochs]
    assert max(rows[100:]) >= max(rows[50:100]) + 40  # one more row per epoch
    assert len(entry.multipliers) > 150
    # Same decisions, epoch for epoch: ageing changed the work, not the answer.
    assert [fp for _, _, fp in epochs] == [fp for _, _, fp in aged[0]]


def test_the_pool_stores_each_multiplier_once():
    """Seed 3 re-derives the same multipliers epoch after epoch: without
    deduplication about half of what the pool holds is copies (150 of 78
    distinct after 50 drifts, 204 of 105 after 150)."""
    instances = drift_instances(3)[:51]
    epochs, pool = sweep(instances, ageing=True)
    (entry,) = pool._entries.values()
    stored = [(block_id, mu.tobytes()) for mu, block_id in entry.multipliers]
    assert len(set(stored)) == len(stored)
    copies, copied_pool = sweep(instances, ageing=True, deduplicate=False)
    (copied,) = copied_pool._entries.values()
    assert len(copied.multipliers) > len(entry.multipliers)
    # Same iterations and decisions, epoch for epoch: the copies seeded
    # duplicate rows, nothing else.
    assert [(it, fp) for it, _, fp in epochs] == [(it, fp) for it, _, fp in copies]
