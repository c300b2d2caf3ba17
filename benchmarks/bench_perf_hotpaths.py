"""Microbenchmarks for the per-epoch hot paths (see DESIGN.md).

Four layers are tracked, matching the epoch cycle the evaluation runs
thousands of times: the work-conserving multiplexer (data plane), the
parametric slave LP (solver core), the Benders master with a large
accumulated cut pool (solver core), and the full decision epoch through
the simulation engine (control plane).  Each benchmark stores its headline
numbers in ``benchmark.extra_info`` so the perf trajectory is visible in
the pytest-benchmark JSON output.

Record/compare a baseline with::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_hotpaths.py \
        --benchmark-json=BENCH_perf.json -q
"""

import numpy as np
import pytest

from repro.core.benders import BendersSolver, _MasterState
from repro.core.decomposition import SlaveProblem
from repro.core.problem import ACRRProblem
from repro.core.slices import EMBB_TEMPLATE, make_requests
from repro.core.solution import TenantAllocation
from repro.dataplane.multiplexing import SliceMultiplexer
from repro.simulation.runner import run_scenario
from repro.simulation.scenario import homogeneous_scenario
from repro.topology.elements import (
    BaseStation,
    ComputeUnit,
    ComputeUnitKind,
    TransportLink,
    TransportSwitch,
)
from repro.topology.network import NetworkTopology
from repro.topology.paths import compute_path_sets

pytestmark = pytest.mark.perf


# --------------------------------------------------------------------- #
# Instance builders
# --------------------------------------------------------------------- #
def star_topology(
    num_base_stations: int,
    bs_capacity_mhz: float,
    link_capacity_mbps: float,
    edge_cpus: float = 10_000.0,
    core_cpus: float = 10_000.0,
) -> NetworkTopology:
    topology = NetworkTopology(name="bench-star")
    topology.add_switch(TransportSwitch(name="sw"))
    topology.add_compute_unit(
        ComputeUnit(name="edge-cu", capacity_cpus=edge_cpus, kind=ComputeUnitKind.EDGE)
    )
    topology.add_compute_unit(
        ComputeUnit(
            name="core-cu",
            capacity_cpus=core_cpus,
            kind=ComputeUnitKind.CORE,
            access_latency_ms=20.0,
        )
    )
    for i in range(num_base_stations):
        topology.add_base_station(
            BaseStation(name=f"bs-{i}", capacity_mhz=bs_capacity_mhz)
        )
        topology.add_link(
            TransportLink(
                endpoint_a=f"bs-{i}", endpoint_b="sw", capacity_mbps=link_capacity_mbps
            )
        )
    # The switch-to-CU links aggregate every base station's traffic.
    topology.add_link(
        TransportLink(
            endpoint_a="sw",
            endpoint_b="edge-cu",
            capacity_mbps=link_capacity_mbps * num_base_stations,
        )
    )
    topology.add_link(
        TransportLink(
            endpoint_a="sw",
            endpoint_b="core-cu",
            capacity_mbps=link_capacity_mbps * num_base_stations,
        )
    )
    topology.validate()
    return topology


def multiplexer_case(num_tenants=15, num_bs=20, num_samples=288, saturated=True, seed=3):
    """Many tenants per BS; with ``saturated`` the radio/link layers bind."""
    capacity_scale = 0.45 if saturated else 2.0
    sla = EMBB_TEMPLATE.sla_mbps
    topology = star_topology(
        num_base_stations=num_bs,
        bs_capacity_mhz=capacity_scale * num_tenants * sla / 7.5,
        link_capacity_mbps=1.1 * capacity_scale * num_tenants * sla,
    )
    path_set = compute_path_sets(topology, k=1)
    requests = make_requests(EMBB_TEMPLATE, num_tenants, duration_epochs=24)
    allocations = {}
    for t, request in enumerate(requests):
        cu = "edge-cu" if t % 2 == 0 else "core-cu"
        paths = {bs: path_set.paths(bs, cu)[0] for bs in topology.base_station_names}
        reservations = {bs: 0.4 * request.sla_mbps for bs in paths}
        allocations[request.name] = TenantAllocation(
            request=request,
            accepted=True,
            compute_unit=cu,
            paths=paths,
            reservations_mbps=reservations,
        )
    rng = np.random.default_rng(seed)
    offered = {
        (request.name, bs): rng.uniform(0.2 * sla, sla, size=num_samples)
        for request in requests
        for bs in topology.base_station_names
    }
    return topology, allocations, offered


def solver_problem(num_bs=3, num_tenants=10, load_fraction=0.25) -> ACRRProblem:
    """A tiny-star AC-RR instance on which the Benders loop converges."""
    from repro.core.forecast_inputs import ForecastInput

    topology = star_topology(
        num_base_stations=num_bs, bs_capacity_mhz=20.0, link_capacity_mbps=1000.0,
        edge_cpus=40.0, core_cpus=200.0,
    )
    path_set = compute_path_sets(topology, k=3)
    requests = make_requests(EMBB_TEMPLATE, num_tenants, duration_epochs=24)
    forecasts = {
        request.name: ForecastInput(
            lambda_hat_mbps=load_fraction * request.sla_mbps, sigma_hat=0.25
        )
        for request in requests
    }
    return ACRRProblem(
        topology=topology, path_set=path_set, requests=requests, forecasts=forecasts
    )


def epoch_scenario(num_epochs=8):
    return homogeneous_scenario(
        "romanian",
        EMBB_TEMPLATE,
        num_tenants=12,
        mean_load_fraction=0.55,
        relative_std=0.25,
        num_epochs=num_epochs,
        num_base_stations=12,
        seed=7,
        forecast_mode="oracle",
    )


# --------------------------------------------------------------------- #
# Data plane
# --------------------------------------------------------------------- #
def test_multiplexer_saturated_throughput(benchmark):
    topology, allocations, offered = multiplexer_case(saturated=True)
    mux = SliceMultiplexer(topology, allocations)
    result = benchmark.pedantic(
        mux.unserved_traffic, args=(offered,), rounds=5, iterations=1
    )
    num_samples = len(next(iter(offered.values())))
    benchmark.extra_info["num_keys"] = len(offered)
    benchmark.extra_info["num_samples"] = num_samples
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["key_samples_per_s"] = (
            len(offered) * num_samples / benchmark.stats.stats.mean
        )
    benchmark.extra_info["total_unserved_mbps"] = result.total_unserved()
    benchmark.extra_info["overloaded_resources"] = len(result.overloaded_resources)
    assert result.total_unserved() > 0.0


def test_multiplexer_unsaturated_throughput(benchmark):
    topology, allocations, offered = multiplexer_case(saturated=False)
    mux = SliceMultiplexer(topology, allocations)
    result = benchmark.pedantic(
        mux.unserved_traffic, args=(offered,), rounds=5, iterations=1
    )
    benchmark.extra_info["num_keys"] = len(offered)
    benchmark.extra_info["total_unserved_mbps"] = result.total_unserved()
    assert result.total_unserved() == 0.0


# --------------------------------------------------------------------- #
# Solver core
# --------------------------------------------------------------------- #
def test_slave_evaluate_feasible(benchmark):
    problem = solver_problem()
    slave = SlaveProblem(problem)
    x = np.zeros(problem.num_items)
    outcome = benchmark.pedantic(slave.evaluate, args=(x,), rounds=5, iterations=2)
    benchmark.extra_info["num_items"] = problem.num_items
    benchmark.extra_info["num_rows"] = slave.g_matrix.shape[0]
    assert outcome.feasible


def test_slave_evaluate_infeasible_certificate(benchmark):
    """The phase-1 path: every call previously re-hstacked [G | -I]."""
    problem = solver_problem()
    slave = SlaveProblem(problem)
    x = np.ones(problem.num_items)
    outcome = benchmark.pedantic(slave.evaluate, args=(x,), rounds=5, iterations=2)
    benchmark.extra_info["num_items"] = problem.num_items
    benchmark.extra_info["infeasibility"] = outcome.infeasibility
    assert not outcome.feasible


def test_benders_master_with_accumulated_cuts(benchmark):
    """One master solve late in the Benders loop, cut pool already large."""
    problem = solver_problem()
    solver = BendersSolver()
    slave = SlaveProblem(problem)
    master = _MasterState(
        problem,
        problem.objective_x(),
        [block.theta_lower for block in slave.blocks()],
    )
    rng = np.random.default_rng(11)
    num_cuts = 60
    # Optimality cuts only, as in the loop: every master candidate is
    # slave-feasible, so random candidates that are not are redrawn.
    while master.num_cuts < num_cuts:
        x = (rng.random(problem.num_items) < 0.5).astype(float)
        outcome = slave.evaluate(x)
        if outcome.feasible:
            coefficients = slave.cut_coefficients([(outcome.duals, slice(None))])
            master.add_cuts(coefficients, [-float(np.dot(slave.h0, outcome.duals))], [None])

    solution = benchmark.pedantic(
        solver._solve_master, args=(master,), rounds=5, iterations=1
    )
    assert solution.success
    benchmark.extra_info["num_cuts"] = master.num_cuts
    benchmark.extra_info["num_items"] = problem.num_items
    benchmark.extra_info["master_objective"] = solution.objective


def test_benders_full_solve(benchmark):
    problem = solver_problem()
    decision = benchmark.pedantic(
        lambda: BendersSolver(max_iterations=200).solve(problem),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["iterations"] = decision.stats.iterations
    benchmark.extra_info["objective"] = decision.objective_value
    benchmark.extra_info["accepted"] = decision.num_accepted
    assert decision.num_accepted > 0


# --------------------------------------------------------------------- #
# Control plane: the full decision epoch
# --------------------------------------------------------------------- #
def _run_epochs():
    result = run_scenario(epoch_scenario(), policy="optimal")
    return result


def test_steady_state_epoch_latency(benchmark):
    """Marginal cost of one decision epoch once admission has settled.

    This is the latency the evaluation pays thousands of times per sweep:
    epoch 0 (the cold-start admission solve) runs once in the setup, the
    timed region is one full epoch -- forecast refresh, problem build,
    solve/reuse, data plane, revenue accounting -- in steady state.
    """
    from repro.core.milp_solver import DirectMILPSolver
    from repro.simulation.engine import SimulationEngine

    engine = SimulationEngine(epoch_scenario(num_epochs=60), DirectMILPSolver(), "optimal")
    for warmup_epoch in range(3):
        engine._run_one_epoch(warmup_epoch)
    epochs = iter(range(3, 60))

    def one_epoch():
        return engine._run_one_epoch(next(epochs))

    record = benchmark.pedantic(one_epoch, rounds=20, iterations=1)
    benchmark.extra_info["net_revenue_last_epoch"] = record.net_revenue
    benchmark.extra_info["active_slices"] = len(record.active_slices)
    assert record.active_slices


def test_full_epoch_latency(benchmark):
    result = benchmark.pedantic(_run_epochs, rounds=3, iterations=1)
    num_epochs = len(result.epoch_records)
    benchmark.extra_info["num_epochs"] = num_epochs
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["epoch_latency_s"] = benchmark.stats.stats.mean / num_epochs
    benchmark.extra_info["net_revenue"] = result.net_revenue
    benchmark.extra_info["num_admitted"] = result.num_admitted
    assert num_epochs == 8


def test_full_epoch_latency_without_decision_reuse(benchmark):
    """Raw per-epoch solver cost: decision reuse disabled."""
    from dataclasses import replace

    from repro.core.milp_solver import DirectMILPSolver
    from repro.simulation.engine import SimulationEngine

    def run():
        engine = SimulationEngine(epoch_scenario(), DirectMILPSolver(), "optimal")
        engine.orchestrator.config = replace(
            engine.orchestrator.config, reuse_unchanged_decisions=False
        )
        return engine.run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    num_epochs = len(result.epoch_records)
    benchmark.extra_info["num_epochs"] = num_epochs
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["epoch_latency_s"] = benchmark.stats.stats.mean / num_epochs
    benchmark.extra_info["net_revenue"] = result.net_revenue


def test_decision_reuse_preserves_results():
    """The reuse fast path must not change any simulation output."""
    from dataclasses import replace

    from repro.core.milp_solver import DirectMILPSolver
    from repro.simulation.engine import SimulationEngine

    with_reuse = SimulationEngine(epoch_scenario(), DirectMILPSolver(), "optimal")
    result_reuse = with_reuse.run()

    without = SimulationEngine(epoch_scenario(), DirectMILPSolver(), "optimal")
    without.orchestrator.config = replace(
        without.orchestrator.config, reuse_unchanged_decisions=False
    )
    result_cold = without.run()

    assert result_reuse.net_revenue == result_cold.net_revenue
    assert result_reuse.final_admitted == result_cold.final_admitted
    assert result_reuse.final_rejected == result_cold.final_rejected
    assert [r.net_revenue for r in result_reuse.epoch_records] == [
        r.net_revenue for r in result_cold.epoch_records
    ]
