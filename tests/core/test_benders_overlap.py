"""The concurrency contract of overlapped Benders pricing.

Each round solves two HiGHS models that do not depend on each other on two
threads: the joint slave LP here while the helper prices the stacked block
LP (cold rounds), or the seeded master here while the helper prices the
previous decision (the warm fast path).  Read as a data refinement of the
serial loop, the overlapped one must match it on every observable: the same
decisions and cuts, the same errors in the same order, and no helper work
outliving ``solve()``.

Nothing here asserts on time.  Threads are ordered by ``threading.Event``
gates; the timeout on each wait only keeps a broken build from hanging the
suite.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import repro.core.benders as benders
from repro.core.benders import BendersSolver
from repro.core.decomposition import SlaveNumericalError, SlaveProblem
from repro.scenarios import DIFFERENTIAL_FAMILY, decision_fingerprint, sample_scenario
from repro.scenarios.oracle import _perturbed_forecast_sequence, problem_for_scenario
from repro.utils.rng import derive_seed
from tests.differential.conftest import BASE_SEED, seed_note

#: How long a gate may stay shut before the test counts as hung.
HANG_GUARD_S = 60.0

SWEEP_SEEDS = [BASE_SEED + index for index in range(128)]


@pytest.fixture
def threaded_helper(monkeypatch):
    """A helper thread whatever the host's CPU count."""
    worker = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(benders, "_helper", lambda: worker)
    yield worker
    worker.shutdown(wait=True)


@pytest.fixture
def inline_helper(monkeypatch):
    """No helper: every overlapped call runs inline, in the serial order."""
    monkeypatch.setattr(benders, "_helper", lambda: None)


def exact_solver(warm_start: bool = True) -> BendersSolver:
    return BendersSolver(
        max_iterations=12, master_time_limit_s=None, time_limit_s=None, warm_start=warm_start
    )


def base_and_drifted(seed: int):
    """A differential instance and one steady-state drift of it."""
    scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=seed)
    base = problem_for_scenario(scenario)
    (drifted,) = _perturbed_forecast_sequence(
        base, count=1, spread=0.02, seed=derive_seed(scenario.seed, "overlap", scenario.name)
    )
    return base, drifted


def solve_trace(solver: BendersSolver, problem) -> tuple:
    decision = solver.solve(problem)
    stats = decision.stats
    return (
        decision_fingerprint(decision),
        stats.iterations,
        stats.cuts_optimality,
        stats.cuts_feasibility,
        stats.cuts_warm,
    )


class TestErrorOrder:
    def test_joint_error_wins_and_solve_waits_for_the_parked_block_lp(
        self, monkeypatch, threaded_helper
    ):
        problem, _ = base_and_drifted(BASE_SEED)
        parked, joint_raised, released, finished = (threading.Event() for _ in range(4))
        error = SlaveNumericalError("joint slave LP broke down")
        real_blocks = SlaveProblem._evaluate_blocks

        def parked_blocks(slave, x):
            parked.set()
            assert released.wait(HANG_GUARD_S)
            try:
                return real_blocks(slave, x)
            finally:
                finished.set()

        def failing_joint(slave, x):
            assert parked.wait(HANG_GUARD_S)  # the stacked LP is in flight
            joint_raised.set()
            raise error

        def release_after_the_raise():
            joint_raised.wait(HANG_GUARD_S)
            released.set()

        monkeypatch.setattr(SlaveProblem, "_evaluate_blocks", parked_blocks)
        monkeypatch.setattr(SlaveProblem, "_evaluate", failing_joint)
        releaser = threading.Thread(target=release_after_the_raise)
        releaser.start()
        try:
            with pytest.raises(SlaveNumericalError) as raised:
                exact_solver(warm_start=False).solve(problem)
        finally:
            released.set()
            releaser.join(HANG_GUARD_S)
        assert not releaser.is_alive()
        assert raised.value is error
        # The helper's task had run to its end before solve() raised.
        assert finished.is_set()

    def test_inline_joint_error_never_runs_the_block_lp(self, monkeypatch, inline_helper):
        problem, _ = base_and_drifted(BASE_SEED)
        block_calls = []
        error = SlaveNumericalError("joint slave LP broke down")

        def failing_joint(slave, x):
            raise error

        monkeypatch.setattr(SlaveProblem, "_evaluate", failing_joint)
        monkeypatch.setattr(
            SlaveProblem, "_evaluate_blocks", lambda slave, x: block_calls.append(x)
        )
        with pytest.raises(SlaveNumericalError) as raised:
            exact_solver(warm_start=False).solve(problem)
        assert raised.value is error and block_calls == []

    @pytest.mark.parametrize("helper", ["threaded_helper", "inline_helper"])
    def test_block_error_after_a_feasible_joint_solve_propagates_unchanged(
        self, helper, request, monkeypatch
    ):
        request.getfixturevalue(helper)
        problem, _ = base_and_drifted(BASE_SEED)
        error = SlaveNumericalError("block 0 violates strong duality")
        joint_feasible = []
        real_joint = SlaveProblem._evaluate

        def noting_joint(slave, x):
            outcome = real_joint(slave, x)
            joint_feasible.append(outcome.feasible)
            return outcome

        def failing_blocks(slave, x):
            raise error

        monkeypatch.setattr(SlaveProblem, "_evaluate", noting_joint)
        monkeypatch.setattr(SlaveProblem, "_evaluate_blocks", failing_blocks)
        with pytest.raises(SlaveNumericalError) as raised:
            exact_solver(warm_start=False).solve(problem)
        assert raised.value is error
        assert joint_feasible == [True]  # surfaced after the joint solve succeeded


class TestFastPathMiss:
    def test_failed_master_leaves_no_task_pending_and_the_cold_loop_is_exact(
        self, monkeypatch, threaded_helper
    ):
        base, drifted = base_and_drifted(BASE_SEED)
        hit = exact_solver()
        hit.solve(base)
        assert hit.solve(drifted).stats.cuts_warm > 0  # unpatched, a fast-path hit

        solver = exact_solver()
        solver.solve(base)
        calling = threading.get_ident()
        parked, released, finished = (threading.Event() for _ in range(3))
        real_evaluate = SlaveProblem._evaluate
        real_master = BendersSolver._solve_master
        real_fast_path = BendersSolver._warm_fast_path
        masters, pending_at_miss = [], []

        def gated_evaluate(slave, x, basis=None):
            if threading.get_ident() == calling:
                return real_evaluate(slave, x, basis)
            parked.set()
            assert released.wait(HANG_GUARD_S)
            try:
                return real_evaluate(slave, x, basis)
            finally:
                finished.set()

        def failing_seeded_master(self, master):
            masters.append(master.num_cuts)
            if len(masters) == 1:  # the fast path's seeded master
                assert parked.wait(HANG_GUARD_S)  # previous x is being priced
                released.set()
                return replace(real_master(self, master), success=False)
            return real_master(self, master)

        def noting_fast_path(self, *args):
            result = real_fast_path(self, *args)
            pending_at_miss.append((result, finished.is_set()))
            return result

        monkeypatch.setattr(SlaveProblem, "_evaluate", gated_evaluate)
        monkeypatch.setattr(BendersSolver, "_solve_master", failing_seeded_master)
        monkeypatch.setattr(BendersSolver, "_warm_fast_path", noting_fast_path)
        decision = solver.solve(drifted)
        assert masters[0] > 0 and masters[1] == 0  # the seeded master failed, cold ran
        assert pending_at_miss == [(None, True)]

        # The cold loop then priced on the slave the helper had used.
        cold = exact_solver(warm_start=False).solve(drifted)
        assert decision.stats.cuts_warm == 0
        assert decision.stats.iterations == cold.stats.iterations
        assert decision_fingerprint(decision) == decision_fingerprint(cold)


def sweep(seeds) -> dict[int, list[tuple]]:
    """Per seed: a cold solve, then the drifted instance on the same
    solver (a fast-path hit or its cold fallback)."""
    traces = {}
    for seed in seeds:
        base, drifted = base_and_drifted(seed)
        solver = exact_solver()
        traces[seed] = [solve_trace(solver, base), solve_trace(solver, drifted)]
    return traces


def test_differential_family_under_a_tiny_switch_interval_matches_inline(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(benders, "_helper", lambda: None)
        inline = sweep(SWEEP_SEEDS)
    worker = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(benders, "_helper", lambda: worker)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = sweep(SWEEP_SEEDS)
    finally:
        sys.setswitchinterval(interval)
        worker.shutdown(wait=True)
    assert any(trace[1][4] > 0 for trace in inline.values())  # fast paths were taken
    for seed in SWEEP_SEEDS:
        assert threaded[seed] == inline[seed], seed_note(seed)
