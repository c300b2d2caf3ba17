"""The cut pool holds one certificate: a steady-state epoch's master does
not grow with the age of the solver.  Counts, never timings.

One structure, 150 forecast drifts (``benchmarks/bench_warm_start.py``'s
sweep scenario: ``DIFFERENTIAL_FAMILY`` seed 0, spread 0.02) through one
pooled ``BendersSolver``.  Every drift epoch certifies in one round whether
the pool keeps only the last decision's certificate or hoards every
multiplier it has seen; what that changes is the size of the master HiGHS is
handed to get there.  Hit counts of *other* instances move both ways with
the re-proposal rule and are deliberately not asserted here.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.core.lpsolver as lpsolver
from repro.core.benders import _MAX_CUTS_PER_STRUCTURE, BendersSolver, CutPool
from repro.scenarios import DIFFERENTIAL_FAMILY, decision_fingerprint, sample_scenario
from repro.scenarios.oracle import _perturbed_forecast_sequence, problem_for_scenario
from repro.utils.journal import assign
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


def hoarding_record(self, key, num_rows, multipliers, best_x, *basis):
    """``CutPool.record`` that keeps what the slot held for ``key`` too."""
    held = list(self._slot[1].multipliers) if key in self else []
    real_record(self, key, num_rows, held + list(multipliers), best_x, *basis)


def record_every_multiplier(self, key, num_rows, multipliers, best_x, *basis):
    """``CutPool.record`` without its deduplication: every multiplier stored."""
    real_record(self, key, num_rows, [], best_x, *basis)
    fresh = tuple((np.array(mu), block_id) for mu, block_id in multipliers)
    excess = max(0, len(fresh) - _MAX_CUTS_PER_STRUCTURE)
    assign(self, "_slot", (key, replace(self._slot[1], multipliers=fresh[excess:])))


def sweep(instances, hoarding: bool = False, deduplicate: bool = True):
    """Per epoch ``(iterations, rows of the master handed to HiGHS, decision
    fingerprint)``, and the certificate the sweep leaves behind."""
    master_rows: list[int] = []
    real_run = lpsolver._run

    def recording_run(highs, model, is_mip, basis=None):
        if is_mip:
            master_rows.append(model.matrix.shape[0])
        return real_run(highs, model, is_mip, basis)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lpsolver, "_run", recording_run)
        if hoarding:
            patch.setattr(CutPool, "record", hoarding_record)
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
    key, entry = solver.cut_pool._slot
    assert key == instances[-1].identity()
    return epochs, entry


@pytest.fixture(scope="module")
def certified(instances):
    return sweep(instances)


def test_the_seeded_master_stops_growing(certified):
    epochs, entry = certified
    assert [iterations for iterations, _, _ in epochs[1:]] == [1] * DRIFT_EPOCHS
    rows = [rows for _, rows, _ in epochs]
    # A hit keeps the cuts that bound it and adds one: the master may
    # breathe, it may not trend.
    assert max(rows[100:]) <= max(rows[1:50])
    # Everything a hoarding pool would hold by now is 1 cut per hit on top of
    # the cold epoch's; the certificate is a fraction of that and of the cap.
    hoard = min(_MAX_CUTS_PER_STRUCTURE, len(epochs) + rows[1] - rows[0])
    assert 0 < len(entry.multipliers) <= hoard // 4
    assert len(entry.multipliers) <= _MAX_CUTS_PER_STRUCTURE // 4


def test_a_hoarding_pool_certifies_the_same_epochs_with_a_growing_master(
    instances, certified
):
    epochs, entry = sweep(instances, hoarding=True)
    assert [iterations for iterations, _, _ in epochs[1:]] == [1] * DRIFT_EPOCHS
    rows = [rows for _, rows, _ in epochs]
    assert max(rows[100:]) >= max(rows[50:100]) + 40  # one more row per epoch
    assert len(entry.multipliers) > 150
    # Same decisions, epoch for epoch: the certificate changed the work, not
    # the answer.
    assert [fp for _, _, fp in epochs] == [fp for _, _, fp in certified[0]]


def test_the_pool_stores_each_multiplier_once():
    """Seed 3 re-derives the same multipliers epoch after epoch: without
    deduplication the certificate fills with copies."""
    instances = drift_instances(3)[:51]
    epochs, entry = sweep(instances)
    stored = [(block_id, mu.tobytes()) for mu, block_id in entry.multipliers]
    assert len(set(stored)) == len(stored)
    copies, copied = sweep(instances, deduplicate=False)
    assert len(copied.multipliers) > len(entry.multipliers)
    # Same iterations and decisions, epoch for epoch: the copies seeded
    # duplicate rows, nothing else.
    assert [(it, fp) for it, _, fp in epochs] == [(it, fp) for it, _, fp in copies]
