"""Tests for the shared Benders/KAC slave-problem machinery."""

import numpy as np
import pytest

from repro.core.decomposition import SlaveProblem
from repro.core.milp_solver import DirectMILPSolver
from repro.core.problem import ACRRProblem
from repro.core.slices import URLLC_TEMPLATE, make_requests
from tests.conftest import low_load_forecasts


@pytest.fixture
def urllc_problem(tiny_topology, tiny_path_set):
    requests = make_requests(URLLC_TEMPLATE, 6)
    return ACRRProblem(
        tiny_topology,
        tiny_path_set,
        requests,
        low_load_forecasts(requests, fraction=0.8, sigma=0.2),
    )


def accept_all_edge(problem) -> np.ndarray:
    x = np.zeros(problem.num_items)
    for item in problem.items:
        if item.path.compute_unit == "edge-cu":
            x[item.index] = 1.0
    return x


class TestSlaveEvaluation:
    def test_feasible_for_empty_admission(self, urllc_problem):
        slave = SlaveProblem(urllc_problem)
        outcome = slave.evaluate(np.zeros(urllc_problem.num_items))
        assert outcome.feasible
        assert outcome.objective == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(outcome.z, 0.0)

    def test_infeasible_when_over_admitting(self, urllc_problem):
        # 6 uRLLC slices at ~80% load need more edge CPUs than available.
        slave = SlaveProblem(urllc_problem)
        outcome = slave.evaluate(accept_all_edge(urllc_problem))
        assert not outcome.feasible
        assert outcome.infeasibility > 0
        assert np.any(outcome.ray > 0)

    def test_feasible_outcome_reservations_within_bounds(self, embb_problem):
        slave = SlaveProblem(embb_problem)
        x = accept_all_edge(embb_problem)
        outcome = slave.evaluate(x)
        assert outcome.feasible
        for item in embb_problem.items:
            if x[item.index] > 0.5:
                assert item.lambda_hat_mbps - 1e-6 <= outcome.z[item.index]
                assert outcome.z[item.index] <= item.sla_mbps + 1e-6
            else:
                assert outcome.z[item.index] == pytest.approx(0.0, abs=1e-6)

    def test_block_theta_lowers_are_valid(self, embb_problem):
        # The surrogate bounds the master starts from: each underestimates
        # its block's optimum, and their sum the joint slave optimum.
        slave = SlaveProblem(embb_problem)
        x = accept_all_edge(embb_problem)
        for block, outcome in zip(slave.blocks(), slave.evaluate_blocks(x)):
            assert outcome.objective >= block.theta_lower - 1e-9
        bound = sum(block.theta_lower for block in slave.blocks())
        assert slave.evaluate(x).objective >= bound - 1e-9


def feasibility_cut(slave: SlaveProblem, ray: np.ndarray) -> tuple[np.ndarray, float]:
    """``(H' ray)' x >= -h0' ray``: coefficients over x and right-hand side."""
    return slave.cut_coefficients([(ray, slice(None))])[:, 0], -float(np.dot(slave.h0, ray))


class TestCuts:
    def test_feasibility_cut_separates_infeasible_point(self, urllc_problem):
        slave = SlaveProblem(urllc_problem)
        x_bad = accept_all_edge(urllc_problem)
        outcome = slave.evaluate(x_bad)
        coeff, rhs = feasibility_cut(slave, outcome.ray)
        # The cut must be violated by the infeasible point...
        assert float(coeff @ x_bad) < rhs - 1e-9
        # ...and satisfied by the optimal (feasible) admission vector.
        optimal = DirectMILPSolver().solve(urllc_problem)
        x_opt = np.zeros(urllc_problem.num_items)
        for tenant_index, request in enumerate(urllc_problem.requests):
            alloc = optimal.allocations[request.name]
            if not alloc.accepted:
                continue
            for item in urllc_problem.items_of_tenant(tenant_index):
                if item.path.base_station in alloc.paths and (
                    alloc.paths[item.path.base_station].nodes == item.path.nodes
                ):
                    x_opt[item.index] = 1.0
        assert float(coeff @ x_opt) >= rhs - 1e-6

    def test_knapsack_weights_are_cut_rearrangement(self, urllc_problem):
        slave = SlaveProblem(urllc_problem)
        outcome = slave.evaluate(accept_all_edge(urllc_problem))
        coeff, rhs = feasibility_cut(slave, outcome.ray)
        weights, capacity = slave.knapsack_weights(outcome.ray)
        assert np.allclose(weights, -coeff)
        assert capacity == pytest.approx(-rhs)

    def test_rhs_parametrisation(self, embb_problem):
        slave = SlaveProblem(embb_problem)
        x = np.zeros(embb_problem.num_items)
        assert np.allclose(slave.rhs(x), slave.h0)
        x[0] = 1.0
        assert not np.allclose(slave.rhs(x), slave.h0)
