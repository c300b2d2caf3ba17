"""Benchmarks for the multi-cut parallel Benders master (see DESIGN.md).

The headline claim: disaggregating the slave by per-tenant resource block --
one optimality cut per block and iteration, alongside the classic aggregate
cut -- cuts the steady-state epoch latency of the 28-scenario differential
sweep by >= 3x at the oracle's near-exact tolerances, while reaching the
same optimum (the sweep in ``tests/differential`` certifies every scenario
against the exact MILP, and the stacked block pricing against the per-block
reference).  The lazy cut-row accumulator that makes the extra cuts
affordable is guarded alongside.

Record/compare a baseline with::

    PYTHONPATH=src python -m pytest benchmarks/bench_multi_cut.py \
        --benchmark-json=BENCH_multi_cut.json -q
"""

import time

import numpy as np
import pytest
from scipy import sparse

from repro.core.benders import BendersSolver, _MasterState
from repro.core.decomposition import SlaveProblem
from repro.scenarios import DIFFERENTIAL_FAMILY, sample_scenario
from repro.scenarios.oracle import (
    _BENDERS_MAX_ITERATIONS,
    _BENDERS_TOLERANCE,
    problem_for_scenario,
)

pytestmark = pytest.mark.perf

#: The full differential-sweep instance set (28 scenarios, seeds 0..27 --
#: the same family/size the oracle harness certifies).
_NUM_SWEEP_SCENARIOS = 28


def sweep_problems():
    return [
        problem_for_scenario(sample_scenario(DIFFERENTIAL_FAMILY, seed=seed))
        for seed in range(_NUM_SWEEP_SCENARIOS)
    ]


def solver(multi_cut: bool) -> BendersSolver:
    # Oracle settings: near-exact stopping rule, iteration-capped, no
    # wall-clock cutoffs -- the regime where the single-cut master pays its
    # one-cut-per-iteration tail and the disaggregation pays off.
    return BendersSolver(
        tolerance=_BENDERS_TOLERANCE,
        relative_tolerance=_BENDERS_TOLERANCE,
        max_iterations=_BENDERS_MAX_ITERATIONS,
        master_time_limit_s=None,
        time_limit_s=None,
        warm_start=False,
        multi_cut=multi_cut,
    )


def test_multi_cut_sweep_latency_vs_single_cut(benchmark):
    """>= 3x epoch-latency cut over the 28-scenario sweep, same optima."""
    problems = sweep_problems()

    started = time.perf_counter()
    single_decisions = [solver(False).solve(problem) for problem in problems]
    single_s = time.perf_counter() - started

    def multi_sweep():
        return [solver(True).solve(problem) for problem in problems]

    multi_decisions = benchmark.pedantic(multi_sweep, rounds=1, iterations=1)
    multi_s = benchmark.stats.stats.mean if benchmark.stats is not None else (
        time.perf_counter() - started - single_s
    )

    for single, multi in zip(single_decisions, multi_decisions):
        assert multi.expected_net_reward == pytest.approx(
            single.expected_net_reward, abs=1e-6
        )
    speedup = single_s / multi_s
    assert speedup >= 3.0, (
        f"multi-cut must cut the sweep latency >= 3x: single={single_s:.2f}s "
        f"multi={multi_s:.2f}s ({speedup:.2f}x)"
    )
    benchmark.extra_info["num_scenarios"] = len(problems)
    benchmark.extra_info["single_cut_sweep_s"] = single_s
    benchmark.extra_info["multi_cut_sweep_s"] = multi_s
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["single_cut_iterations"] = sum(
        d.stats.iterations for d in single_decisions
    )
    benchmark.extra_info["multi_cut_iterations"] = sum(
        d.stats.iterations for d in multi_decisions
    )


def test_single_cut_sweep_latency(benchmark):
    """Reference: the same sweep through the classic aggregate-cut master."""
    problems = sweep_problems()

    def single_sweep():
        return [solver(False).solve(problem) for problem in problems]

    decisions = benchmark.pedantic(single_sweep, rounds=1, iterations=1)
    benchmark.extra_info["num_scenarios"] = len(problems)
    benchmark.extra_info["iterations"] = sum(d.stats.iterations for d in decisions)


def test_cut_accumulation_is_not_quadratic(benchmark, monkeypatch):
    """Guard for the lazy cut store: nothing sparse per cut, one fold per batch.

    The pre-fix ``add_cut`` re-stacked the whole CSR matrix on every call,
    making a k-cut master round O(k^2) in row copies; its successor still
    built one single-row CSR matrix per cut.  The store now queues dense
    rows and folds them once per ``cut_rows()`` call; this benchmark pins
    both the invariant (zero sparse constructions per ``add_cut``, at most
    one conversion and one stack per ``cut_rows()``) and the latency of a
    realistic 512-cut accumulation.
    """
    problem = problem_for_scenario(sample_scenario(DIFFERENTIAL_FAMILY, seed=0))
    slave = SlaveProblem(problem)
    lowers = np.array([block.theta_lower for block in slave.blocks()])
    num_cuts = 512
    rng = np.random.default_rng(7)
    coefficients = rng.normal(size=(num_cuts, problem.num_items))

    constructions = []
    real_csr, real_vstack = sparse.csr_matrix, sparse.vstack

    def counting_csr(*args, **kwargs):
        constructions.append("csr_matrix")
        return real_csr(*args, **kwargs)

    def counting_vstack(blocks, *args, **kwargs):
        constructions.append("vstack")
        return real_vstack(blocks, *args, **kwargs)

    def accumulate():
        master = _MasterState(problem, problem.objective_x(), lowers)
        del constructions[:]
        for row in coefficients[: num_cuts // 2]:
            master.add_cut(row, 0.0, True)
        assert constructions == [], "add_cut must not build anything sparse"
        master.cut_rows()
        assert constructions == ["csr_matrix"], constructions
        for row in coefficients[num_cuts // 2 :]:
            master.add_cut(row, 0.0, True)
        assert constructions == ["csr_matrix"], "add_cut must not build anything sparse"
        matrix, rhs = master.cut_rows()
        assert constructions == ["csr_matrix", "csr_matrix", "vstack"], constructions
        return matrix.shape[0]

    # _MasterState's own skeleton uses sparse.csr_matrix; count only what
    # the cut store does after it is built (``del constructions[:]`` above).
    monkeypatch.setattr("repro.core.benders.sparse.csr_matrix", counting_csr)
    monkeypatch.setattr("repro.core.benders.sparse.vstack", counting_vstack)
    folded = benchmark.pedantic(accumulate, rounds=3, iterations=1)
    assert folded == num_cuts
    benchmark.extra_info["num_cuts"] = num_cuts
    benchmark.extra_info["sparse_constructions_per_add_cut"] = 0
    benchmark.extra_info["folds_per_cut_rows"] = 1
