"""Tests for the AC-RR solvers: direct MILP, Benders, KAC and the baseline.

The central correctness claims are:

* the Benders decomposition converges to the same optimum as the direct MILP
  (Theorem 2);
* the KAC heuristic always returns a feasible admission set and is never
  better than the optimum;
* the no-overbooking baseline reserves the full SLA and therefore admits
  fewer tenants when the system is loaded.
"""

import pytest

from repro.core.baseline import NoOverbookingSolver
from repro.core.benders import BendersSolver
from repro.core.forecast_inputs import ForecastInput
from repro.core.kac import MAX_ITERATIONS, KACSolver
from repro.core.milp_solver import DirectMILPSolver
from repro.core.problem import ACRRProblem, InfeasibleProblemError, ProblemOptions
from repro.core.slices import EMBB_TEMPLATE, MMTC_TEMPLATE, URLLC_TEMPLATE, make_requests
from repro.topology.paths import compute_path_sets
from tests.conftest import build_tiny_topology, low_load_forecasts


def assert_decision_feasible(problem, decision):
    """Re-check every capacity constraint of the original problem."""
    caps = problem.topology.capacities()
    radio = {bs: 0.0 for bs in caps.radio_mhz}
    transport = {key: 0.0 for key in caps.transport_mbps}
    compute = {cu: 0.0 for cu in caps.compute_cpus}
    for name, alloc in decision.allocations.items():
        if not alloc.accepted:
            continue
        request = alloc.request
        for bs, mbps in alloc.reservations_mbps.items():
            radio[bs] += problem.topology.base_station(bs).mhz_for_bitrate(mbps)
            compute[alloc.compute_unit] += request.compute_cpus(mbps)
            for link in alloc.paths[bs].links:
                transport[link.key] += mbps * link.overhead
    slack = 1e-6
    for bs, used in radio.items():
        assert used <= caps.radio_mhz[bs] + slack
    for key, used in transport.items():
        assert used <= caps.transport_mbps[key] + slack
    for cu, used in compute.items():
        assert used <= caps.compute_cpus[cu] + slack


class TestDirectMILP:
    def test_radio_bound_admission_with_and_without_overbooking(self, embb_problem):
        overbooked = DirectMILPSolver().solve(embb_problem)
        baseline = NoOverbookingSolver().solve(embb_problem)
        # 150 Mb/s per BS fits 3 full 50 Mb/s SLAs, but 6 slices at ~20 % load.
        assert baseline.num_accepted == 3
        assert overbooked.num_accepted == 6
        assert_decision_feasible(embb_problem, overbooked)
        assert_decision_feasible(embb_problem, baseline)

    def test_reservations_between_forecast_and_sla(self, embb_problem):
        decision = DirectMILPSolver().solve(embb_problem)
        for name, alloc in decision.allocations.items():
            if not alloc.accepted:
                continue
            forecast = embb_problem.forecast(name)
            for mbps in alloc.reservations_mbps.values():
                assert forecast.lambda_hat_mbps - 1e-6 <= mbps <= alloc.request.sla_mbps + 1e-6

    def test_accepted_tenant_present_at_every_base_station(self, embb_problem):
        decision = DirectMILPSolver().solve(embb_problem)
        for alloc in decision.allocations.values():
            if alloc.accepted:
                assert set(alloc.paths) == set(embb_problem.base_station_names)
                cu_set = {path.compute_unit for path in alloc.paths.values()}
                assert len(cu_set) == 1  # constraint (6): one anchoring CU

    def test_urllc_anchored_at_edge(self, mixed_problem):
        decision = DirectMILPSolver().solve(mixed_problem)
        for alloc in decision.allocations.values():
            if alloc.accepted and alloc.request.template.name == "uRLLC":
                assert alloc.compute_unit == "edge-cu"

    def test_deficit_relaxation_keeps_committed_feasible(self, tiny_topology, tiny_path_set):
        # Eight committed mMTC slices need ~8 * 40 = 320 CPUs at (almost) full
        # load, but edge + core CUs only offer 40 + 200 = 240: without the
        # big-M relaxation of Section 3.4 this instance is infeasible.
        requests = [r.as_committed() for r in make_requests(MMTC_TEMPLATE, 8)]
        forecasts = {
            r.name: ForecastInput(lambda_hat_mbps=9.99, sigma_hat=0.1) for r in requests
        }
        problem = ACRRProblem(
            tiny_topology,
            tiny_path_set,
            requests,
            forecasts,
            options=ProblemOptions(allow_deficit=True),
        )
        decision = DirectMILPSolver().solve(problem)
        assert decision.num_accepted == 8
        assert decision.total_deficit > 0.0
        assert decision.deficits["compute"] > 0.0


class TestBenders:
    def test_matches_milp_on_radio_bound_instance(self, embb_problem):
        milp = DirectMILPSolver().solve(embb_problem)
        benders = BendersSolver(max_iterations=200).solve(embb_problem)
        assert benders.objective_value == pytest.approx(milp.objective_value, abs=1e-3)
        assert benders.num_accepted == milp.num_accepted
        assert benders.stats.optimal
        assert_decision_feasible(embb_problem, benders)

    def test_matches_milp_on_mixed_instance(self, mixed_problem):
        milp = DirectMILPSolver().solve(mixed_problem)
        benders = BendersSolver(max_iterations=200).solve(mixed_problem)
        assert benders.objective_value == pytest.approx(milp.objective_value, abs=1e-3)
        assert_decision_feasible(mixed_problem, benders)

    def test_generates_cuts(self, embb_problem):
        decision = BendersSolver(max_iterations=200).solve(embb_problem)
        assert decision.stats.cuts_optimality + decision.stats.cuts_feasibility > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BendersSolver(tolerance=0.0)
        with pytest.raises(ValueError):
            BendersSolver(max_iterations=0)


class TestKAC:
    def test_feasible_and_not_better_than_optimal(self, embb_problem):
        optimal = DirectMILPSolver().solve(embb_problem)
        kac = KACSolver().solve(embb_problem)
        assert_decision_feasible(embb_problem, kac)
        # Minimisation problem: the heuristic can never beat the optimum.
        assert kac.objective_value >= optimal.objective_value - 1e-6

    def test_capacity_bound_instance(self, tiny_topology, tiny_path_set):
        # Heavy uRLLC load: only a subset fits in the edge CU.
        requests = make_requests(URLLC_TEMPLATE, 8)
        forecasts = low_load_forecasts(requests, fraction=0.8, sigma=0.2)
        problem = ACRRProblem(tiny_topology, tiny_path_set, requests, forecasts)
        optimal = DirectMILPSolver().solve(problem)
        kac = KACSolver().solve(problem)
        assert_decision_feasible(problem, kac)
        assert 0 < kac.num_accepted <= optimal.num_accepted

    def test_committed_slices_always_kept(self, tiny_topology, tiny_path_set):
        committed = [r.as_committed() for r in make_requests(EMBB_TEMPLATE, 2)]
        new = make_requests(EMBB_TEMPLATE, 4, prefix="new")
        requests = committed + new
        problem = ACRRProblem(
            tiny_topology, tiny_path_set, requests, low_load_forecasts(requests)
        )
        decision = KACSolver().solve(problem)
        for request in committed:
            assert decision.is_accepted(request.name)

    @staticmethod
    def _pinned_to_edge_problem(**capacities):
        """One committed mMTC slice pinned to the edge CU (20 CPUs at its SLA,
        8 at the forecast) on a tiny topology sized by ``capacities``."""
        topology = build_tiny_topology(**capacities)
        committed = make_requests(MMTC_TEMPLATE, 1)[0].as_committed()
        committed.metadata["preferred_compute_unit"] = "edge-cu"
        return ACRRProblem(
            topology,
            compute_path_sets(topology, k=3),
            [committed],
            low_load_forecasts([committed]),
        )

    def test_committed_slice_reanchored_off_a_saturated_compute_unit(self):
        # Every knapsack round forces the slice onto the 2-CPU edge CU, so
        # only the repair's re-anchoring moves it to the core CU.
        problem = self._pinned_to_edge_problem(edge_cpus=2.0)
        decision = KACSolver().solve(problem)
        allocation = decision.allocations["mMTC-0"]
        assert allocation.accepted
        assert allocation.compute_unit == "core-cu"
        assert decision.stats.cuts_feasibility == MAX_ITERATIONS
        assert_decision_feasible(problem, decision)
        for mbps in allocation.reservations_mbps.values():
            assert 2.0 - 1e-9 <= mbps <= 10.0 + 1e-9

    def test_committed_slice_that_fits_nowhere_is_infeasible(self):
        problem = self._pinned_to_edge_problem(edge_cpus=2.0, core_cpus=2.0)
        with pytest.raises(InfeasibleProblemError, match="committed slices alone"):
            KACSolver().solve(problem)

    def test_stats_identify_heuristic(self, embb_problem):
        decision = KACSolver().solve(embb_problem)
        assert decision.stats.solver == "kac"
        assert not decision.stats.optimal


class TestNoOverbooking:
    def test_reserves_full_sla(self, embb_problem):
        decision = NoOverbookingSolver().solve(embb_problem)
        for alloc in decision.allocations.values():
            if alloc.accepted:
                for mbps in alloc.reservations_mbps.values():
                    assert mbps == pytest.approx(alloc.request.sla_mbps)

    def test_idempotent_on_no_overbooking_problem(self, embb_problem):
        baseline_problem = embb_problem.without_overbooking()
        a = NoOverbookingSolver().solve(baseline_problem)
        b = NoOverbookingSolver().solve(embb_problem)
        assert a.num_accepted == b.num_accepted

    def test_stats_renamed(self, embb_problem):
        decision = NoOverbookingSolver().solve(embb_problem)
        assert decision.stats.solver == "no-overbooking"
