"""Benchmarks for the cross-epoch warm-start layer (see DESIGN.md).

The headline claim: on perturbed steady-state epoch sweeps -- the regime the
Fig. 5/6/8 campaigns spend thousands of epochs in -- the warm-started
Benders solver certifies the previous epoch's optimum in a single
master/slave round, cutting master iterations by at least 2x against cold
solves while returning bit-identical decisions.  The monitoring layer's
write-then-read path is tracked alongside, since every steady-state epoch
reports each slice's samples and then reads its peak history.

Record/compare a baseline with::

    PYTHONPATH=src python -m pytest benchmarks/bench_warm_start.py \
        --benchmark-json=BENCH_warm_start.json -q
"""

import numpy as np
import pytest

from repro.controlplane.monitoring import MonitoringService
from repro.core.benders import BendersSolver
from repro.scenarios import (
    DIFFERENTIAL_FAMILY,
    decision_fingerprint,
    sample_scenario,
)
from repro.scenarios.oracle import _perturbed_forecast_sequence, problem_for_scenario
from repro.utils.rng import derive_seed

pytestmark = pytest.mark.perf

#: Scenario used for the perturbed steady-state sweep: a generated instance
#: whose cold Benders solve needs two master iterations per perturbed epoch
#: and whose warm fast path certifies every drift epoch in one.
_SWEEP_SCENARIO_SEED = 0
_SWEEP_EPOCHS = 7  # 1 cold warm-up epoch + 6 perturbed steady-state epochs


def perturbed_sweep():
    """The benchmark's instance sequence: epoch 0 plus steady-state drift."""
    scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=_SWEEP_SCENARIO_SEED)
    base = problem_for_scenario(scenario, epoch=0)
    drift = _perturbed_forecast_sequence(
        base,
        count=_SWEEP_EPOCHS - 1,
        spread=0.02,
        seed=derive_seed(scenario.seed, "warm-start-bench", scenario.name),
    )
    return [base] + drift


def solver(warm: bool) -> BendersSolver:
    return BendersSolver(master_time_limit_s=None, time_limit_s=None, warm_start=warm)


# --------------------------------------------------------------------- #
# Solver layer
# --------------------------------------------------------------------- #
def test_warm_start_iteration_reduction(benchmark):
    """Warm sweep: >= 2x fewer steady-state master iterations, bit-identical
    decisions.

    The first epoch is the unavoidable cold warm-up (the pool is empty); the
    headline ratio is measured on the steady-state tail, which is the regime
    a thousands-of-epochs campaign actually lives in.
    """
    instances = perturbed_sweep()

    cold_decisions = [solver(False).solve(problem) for problem in instances]
    cold_iterations = sum(d.stats.iterations for d in cold_decisions)
    cold_tail = sum(d.stats.iterations for d in cold_decisions[1:])

    def warm_sweep():
        warm_solver = solver(True)
        return [warm_solver.solve(problem) for problem in instances]

    warm_decisions = benchmark.pedantic(warm_sweep, rounds=3, iterations=1)
    warm_iterations = sum(d.stats.iterations for d in warm_decisions)
    warm_tail = sum(d.stats.iterations for d in warm_decisions[1:])
    fast_path_hits = sum(1 for d in warm_decisions if d.stats.cuts_warm > 0)

    for cold, warm in zip(cold_decisions, warm_decisions):
        assert decision_fingerprint(cold) == decision_fingerprint(warm)
    assert fast_path_hits == len(instances) - 1  # every drift epoch certifies
    assert 2 * warm_tail <= cold_tail, (
        f"warm start must cut steady-state master iterations >= 2x: "
        f"cold tail={cold_tail} warm tail={warm_tail}"
    )
    benchmark.extra_info["num_epochs"] = len(instances)
    benchmark.extra_info["cold_iterations"] = cold_iterations
    benchmark.extra_info["warm_iterations"] = warm_iterations
    benchmark.extra_info["steady_state_iteration_ratio"] = cold_tail / warm_tail
    benchmark.extra_info["fast_path_hits"] = fast_path_hits


def test_cold_sweep_latency(benchmark):
    """Reference: the same sweep with warm starts disabled."""
    instances = perturbed_sweep()

    def cold_sweep():
        return [solver(False).solve(problem) for problem in instances]

    decisions = benchmark.pedantic(cold_sweep, rounds=3, iterations=1)
    benchmark.extra_info["num_epochs"] = len(instances)
    benchmark.extra_info["cold_iterations"] = sum(
        d.stats.iterations for d in decisions
    )


# --------------------------------------------------------------------- #
# Monitoring layer
# --------------------------------------------------------------------- #
def _loaded_monitoring(num_slices=8, num_bs=6, num_epochs=200, samples=12):
    monitoring = MonitoringService()
    rng = np.random.default_rng(5)
    for epoch in range(num_epochs):
        for s in range(num_slices):
            for b in range(num_bs):
                monitoring.record_samples(
                    f"slice-{s}", f"bs-{b}", epoch, rng.uniform(5.0, 50.0, samples)
                )
    return monitoring


def test_peak_history_after_write(benchmark):
    """One epoch's reports at six stations plus the next read."""
    monitoring = _loaded_monitoring()
    monitoring.peak_history("slice-0")
    samples = np.full(12, 25.0)
    epochs = iter(range(200, 100_000))

    def write_and_query():
        epoch = next(epochs)
        for b in range(6):
            monitoring.record_samples("slice-0", f"bs-{b}", epoch, samples)
        return monitoring.peak_history("slice-0")

    history = benchmark.pedantic(write_and_query, rounds=5, iterations=20)
    assert history.size >= 200
    benchmark.extra_info["base_stations"] = 6
