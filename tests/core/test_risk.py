"""Tests for the risk-cost function of Section 3.1."""

import numpy as np
import pytest

from repro.core.forecast_inputs import ForecastInput
from repro.core.problem import ACRRProblem
from repro.core.risk import deficit_probability_proxy
from repro.core.slices import EMBB_TEMPLATE, SliceRequest
from repro.topology.paths import compute_path_sets
from tests.conftest import build_tiny_topology


class TestDeficitProbabilityProxy:
    def test_full_reservation_has_zero_risk(self):
        assert deficit_probability_proxy(50.0, 10.0, 50.0) == 0.0

    def test_forecast_only_reservation_has_max_risk(self):
        assert deficit_probability_proxy(10.0, 10.0, 50.0) == pytest.approx(1.0)

    def test_linear_in_between(self):
        assert deficit_probability_proxy(30.0, 10.0, 50.0) == pytest.approx(0.5)

    def test_clipped_to_unit_interval(self):
        assert deficit_probability_proxy(60.0, 10.0, 50.0) == 0.0
        assert deficit_probability_proxy(0.0, 10.0, 50.0) == 1.0

    def test_forecast_at_sla(self):
        # No overbooking headroom: reserving the SLA is safe, anything less is
        # maximal risk.
        assert deficit_probability_proxy(50.0, 50.0, 50.0) == 0.0
        assert deficit_probability_proxy(49.0, 50.0, 50.0) == 1.0

    def test_sla_must_be_positive(self):
        with pytest.raises(ValueError):
            deficit_probability_proxy(1.0, 1.0, 0.0)


def _one_slice_problem(sigma_hat=0.5, duration_epochs=24, penalty_factor=1.0):
    """One eMBB slice (SLA 50 Mb/s, forecast 10 Mb/s) on the tiny topology,
    24 epochs per day: its xi is ``sigma_hat * duration_epochs / 24``."""
    topology = build_tiny_topology()
    request = SliceRequest(
        name="s",
        template=EMBB_TEMPLATE,
        duration_epochs=duration_epochs,
        penalty_factor=penalty_factor,
    )
    return ACRRProblem(
        topology,
        compute_path_sets(topology, k=3),
        [request],
        {"s": ForecastInput(lambda_hat_mbps=10.0, sigma_hat=sigma_hat)},
    )


def _risk(problem, reservation_mbps):
    """K * rho of column 0 at ``reservation_mbps``: Psi(x, z) + R."""
    x = np.zeros(problem.num_items)
    x[0] = 1.0
    z = x * reservation_mbps
    return problem.evaluate_objective(x, z) + problem.items[0].reward_per_path


class TestSolverRiskTerm:
    """xi = sigma_hat * L as the solver uses it (L in days), through the
    objective the solvers minimise."""

    def test_xi_is_sigma_times_duration_in_days(self):
        assert _one_slice_problem(0.5, duration_epochs=48).items[0].xi == pytest.approx(1.0)

    def test_monotone_decreasing_in_reservation(self):
        problem = _one_slice_problem()
        costs = [_risk(problem, z) for z in (10.0, 20.0, 30.0, 40.0, 50.0)]
        assert costs == sorted(costs, reverse=True)
        assert costs[-1] == 0.0

    def test_bounded_by_penalty_times_xi(self):
        problem = _one_slice_problem()
        item = problem.items[0]
        assert _risk(problem, 10.0) == pytest.approx(item.penalty_rate_per_path * item.xi)
        assert _risk(problem, 0.0) == pytest.approx(item.penalty_rate_per_path * item.xi)
        assert _risk(problem, 60.0) == 0.0

    def test_scales_with_uncertainty_and_duration(self):
        low = _risk(_one_slice_problem(sigma_hat=0.1), 20.0)
        assert _risk(_one_slice_problem(sigma_hat=0.9), 20.0) == pytest.approx(9 * low)
        assert _risk(_one_slice_problem(0.1, duration_epochs=48), 20.0) == pytest.approx(2 * low)

    def test_linearised_objective_equals_psi_between_forecast_and_sla(self):
        problem = _one_slice_problem()
        for z in (10.0, 25.0, 50.0):
            x = np.zeros(problem.num_items)
            x[0] = 1.0
            linear = problem.objective_x()[0] + problem.objective_y()[0] * z
            assert linear == pytest.approx(problem.evaluate_objective(x, x * z))

    def test_full_reservation_cost_is_minus_reward(self):
        problem = _one_slice_problem(sigma_hat=0.3)
        x = np.zeros(problem.num_items)
        x[0] = 1.0
        reward = problem.items[0].reward_per_path
        assert problem.evaluate_objective(x, x * 50.0) == pytest.approx(-reward)

    def test_aggressive_reservation_can_be_unprofitable(self):
        problem = _one_slice_problem(sigma_hat=1.0, duration_epochs=240, penalty_factor=16.0)
        x = np.zeros(problem.num_items)
        x[0] = 1.0
        assert problem.evaluate_objective(x, x * 10.0) > 0.0


class TestForecastInput:
    def test_clamped_keeps_headroom(self):
        forecast = ForecastInput(lambda_hat_mbps=50.0, sigma_hat=0.0).clamped(50.0)
        assert forecast.lambda_hat_mbps < 50.0
        assert forecast.sigma_hat > 0.0

    def test_pessimistic_is_near_sla(self):
        forecast = ForecastInput.pessimistic(50.0)
        assert forecast.lambda_hat_mbps == pytest.approx(49.95)
        assert forecast.sigma_hat == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ForecastInput(lambda_hat_mbps=-1.0, sigma_hat=0.5)
        with pytest.raises(ValueError):
            ForecastInput(lambda_hat_mbps=1.0, sigma_hat=1.5)
