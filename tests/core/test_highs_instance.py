"""One HiGHS instance per thread, and reusing it is invisible.

``repro.core.lpsolver`` keeps one native instance per thread and passes
options and model into it on every solve; ``passOptions`` / ``passModel``
replace everything a run reads, so each solve is the cold solve a fresh
instance runs.  The tests below solve one mixed sequence -- LPs and MILPs
interleaved, so the instance alternates option sets -- on the thread's
instance and on a fresh instance per model, and compare every field of
every result byte for byte.  A forked child inherits the parent's memory,
not its native state: it must build its own instance (pid guard) and
return the same bytes.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading

import numpy as np
import pytest
from scipy import sparse

from repro.core import lpsolver
from repro.core.benders import BendersSolver
from repro.core.decomposition import SlaveProblem
from repro.core.lpsolver import (
    Basis,
    CompiledLP,
    LPSolution,
    MILPSolution,
    Phase1Problem,
    solve_milp,
)
from repro.scenarios import DIFFERENTIAL_FAMILY, decision_fingerprint, sample_scenario
from repro.scenarios.oracle import problem_for_scenario


def knapsack(num_items: int, seed: int) -> tuple:
    """``(cost, matrix, row lower, row upper, integrality, lower, upper)``."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(10, 60, num_items).astype(float)
    cost = -(weights + rng.integers(0, 10, num_items))
    ones = np.ones(num_items)
    return (
        cost, sparse.csr_matrix(weights.reshape(1, -1)), np.array([-np.inf]),
        np.array([weights.sum() / 2]), ones, np.zeros(num_items), ones,
    )


def subset_sum() -> tuple:
    """Odd weights, even capacity: heuristics find an incumbent at once,
    closing a zero gap takes branch-and-bound far longer than 0.1 s."""
    rng = np.random.default_rng(5)
    weights = rng.integers(10**5, 10**6, 60).astype(float) * 2 + 1
    ones = np.ones(60)
    return (
        -weights, sparse.csr_matrix(weights.reshape(1, -1)), np.array([-np.inf]),
        np.array([weights.sum() / 2 // 2 * 2]), ones, np.zeros(60), ones,
    )


def mixed_sequence(problem) -> list:
    """Every kind of solve the code base issues, LPs and MILPs interleaved."""
    slave = SlaveProblem(problem)
    n = problem.num_items
    lp = CompiledLP(slave.d, slave.g_columns, slave.u_lower, slave.u_upper)
    feasible_rhs = slave.rhs(np.zeros(n))
    # Every column admitted: the capacity rows cannot hold it.
    infeasible_rhs = slave.rhs(np.ones(n))
    phase1 = Phase1Problem(slave.g_columns, slave.u_lower, slave.u_upper)
    cost, matrix, row_lower, row_upper, kinds, lower, upper = knapsack(5, seed=5)
    infeasible = (
        cost,
        sparse.vstack([matrix, sparse.csr_matrix(np.ones((1, 5)))], format="csr"),
        np.append(row_lower, 6.0), np.append(row_upper, np.inf), kinds, lower, upper,
    )
    first = lp.solve(feasible_rhs)
    return [
        first,
        solve_milp(*knapsack(40, seed=1)),
        lp.solve(infeasible_rhs),
        phase1.certificate(infeasible_rhs),
        # A time limit the solve never reaches, then the next solve: a
        # limit must not outlive its call.
        solve_milp(*knapsack(40, seed=2), time_limit_s=60.0, mip_rel_gap=0.0),
        solve_milp(*infeasible),
        lp.solve(feasible_rhs),
        solve_milp(*knapsack(40, seed=3)),
        # A hot start: the slave LP at another right-hand side from its
        # first solve's basis.
        lp.solve(slave.rhs(np.eye(n)[0]), basis=first.basis),
    ]


def as_bytes(result) -> tuple:
    """Every field of a result as bytes (NaN and -0.0 compare as bits)."""
    if isinstance(result, (LPSolution, MILPSolution)):
        return tuple(as_bytes(value) for value in vars(result).values())
    if isinstance(result, tuple):
        return tuple(as_bytes(value) for value in result)
    if isinstance(result, Basis):
        return as_bytes(result.statuses())
    if isinstance(result, np.ndarray):
        return (result.dtype.str, result.shape, result.tobytes())
    if isinstance(result, float):
        return np.float64(result).tobytes()
    return result


@pytest.fixture
def sequence_problem():
    return problem_for_scenario(sample_scenario(DIFFERENTIAL_FAMILY, seed=3))


def thread_instance() -> tuple[int, object] | None:
    return getattr(lpsolver._local, "highs", None)


class TestReuseIsInvisible:
    def test_mixed_sequence_equals_a_fresh_instance_per_model(self, sequence_problem, monkeypatch):
        reused = [as_bytes(result) for result in mixed_sequence(sequence_problem)]
        assert thread_instance()[0] == os.getpid()
        with monkeypatch.context() as patch:
            patch.setattr(lpsolver, "_instance", lambda: lpsolver._Highs())
            fresh = [as_bytes(result) for result in mixed_sequence(sequence_problem)]
        assert reused == fresh
        # The sequence is what it claims to be.
        results = mixed_sequence(sequence_problem)
        assert results[0].success and not results[2].success and results[2].infeasible
        assert results[3][0] > 0.0 and results[3][1].any()
        assert results[4].success and results[5].infeasible
        assert results[8].success and results[8].basis is not None

    def test_a_time_limited_incumbent_and_what_follows(self, sequence_problem, monkeypatch):
        # Where a wall-clock limit stops branch-and-bound is not reproducible
        # even between two fresh instances, so the limited solve is compared
        # by what does not depend on the clock; everything after it by bytes.
        def run():
            limited = solve_milp(*subset_sum(), time_limit_s=0.1, mip_rel_gap=0.0)
            return limited, [as_bytes(result) for result in mixed_sequence(sequence_problem)]

        limited, reused = run()
        with monkeypatch.context() as patch:
            patch.setattr(lpsolver, "_instance", lambda: lpsolver._Highs())
            fresh_limited, fresh = run()
        assert reused == fresh
        weights, capacity = -subset_sum()[0], subset_sum()[3][0]
        for got in (limited, fresh_limited):
            assert not got.success and not got.infeasible
            assert got.status == "Time limit reached. (HiGHS Status 13: Time limit reached)"
            assert np.array_equal(got.values, np.round(got.values))
            assert weights @ got.values <= capacity
            assert 0.0 < got.mip_gap < 1e-3

    def test_benders_decisions_equal_a_fresh_instance_per_model(self, sequence_problem, monkeypatch):
        def decide():
            solver = BendersSolver(master_time_limit_s=None, time_limit_s=None)
            first = solver.solve(sequence_problem)
            again = solver.solve(sequence_problem)  # the warm fast path
            return [(decision_fingerprint(d), d.stats.iterations) for d in (first, again)]

        reused = decide()
        with monkeypatch.context() as patch:
            patch.setattr(lpsolver, "_instance", lambda: lpsolver._Highs())
            assert decide() == reused

    def test_each_thread_has_its_own_instance(self):
        instances = {}

        def record(name):
            solve_milp(*knapsack(5, seed=5))
            instances[name] = thread_instance()

        threads = [threading.Thread(target=record, args=(name,)) for name in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        record("main")
        assert len({id(held[1]) for held in instances.values()}) == 3


def _solve_in_child(problem) -> tuple:
    inherited = thread_instance()
    results = [as_bytes(result) for result in mixed_sequence(problem)]
    return None if inherited is None else inherited[0], thread_instance()[0], os.getpid(), results


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_a_forked_child_builds_its_own_instance_and_gets_the_same_bytes(sequence_problem):
    parent = [as_bytes(result) for result in mixed_sequence(sequence_problem)]
    assert thread_instance()[0] == os.getpid()
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inherited, rebuilt, child, results = pool.apply(_solve_in_child, (sequence_problem,))
    assert child != os.getpid()
    # The child's pool thread inherits nothing, or the parent's entry from
    # the forking thread; either way it solves on an instance of its own.
    assert inherited in (None, os.getpid())
    assert rebuilt == child
    assert results == parent


def test_the_native_instance_is_the_thread_one_only(sequence_problem):
    # A native instance does not pickle; everything compiled does, so no
    # object of the solve holds one.
    with pytest.raises(TypeError):
        pickle.dumps(lpsolver._instance())
    slave = SlaveProblem(sequence_problem)
    n = slave.num_items
    slave.evaluate(np.ones(n))  # infeasible: compiles the phase-1 problem too
    slave.evaluate_blocks(np.zeros(n))
    assert isinstance(slave._lp, CompiledLP) and isinstance(slave._stack_lp, CompiledLP)
    assert isinstance(slave._phase1, Phase1Problem)
    revived = pickle.loads(pickle.dumps(slave))
    rhs = slave.rhs(np.zeros(n))
    assert as_bytes(revived._lp.solve(rhs)) == as_bytes(slave._lp.solve(rhs))
    assert as_bytes(revived._phase1.certificate(slave.rhs(np.ones(n)))) == as_bytes(
        slave._phase1.certificate(slave.rhs(np.ones(n)))
    )
