"""Tests for the AC-RR problem builder (objective, constraints, indexing)."""

import numpy as np
import pytest

from repro.core.forecast_inputs import ForecastInput
from repro.core.problem import ACRRProblem, InfeasibleProblemError, ProblemOptions
from repro.core.risk import deficit_probability_proxy
from repro.core.slices import EMBB_TEMPLATE, URLLC_TEMPLATE, make_requests
from tests.conftest import build_tiny_topology, low_load_forecasts
from repro.topology.paths import compute_path_sets


class TestItemConstruction:
    def test_item_count(self, embb_problem):
        # 6 tenants x 2 BSs x 2 CUs x 1 path each.
        assert embb_problem.num_items == 24
        assert embb_problem.num_tenants == 6

    def test_delay_filtering_removes_core_for_urllc(self, tiny_topology, tiny_path_set):
        requests = make_requests(URLLC_TEMPLATE, 2)
        problem = ACRRProblem(
            tiny_topology, tiny_path_set, requests, low_load_forecasts(requests)
        )
        # The core CU sits behind a 20 ms link, above the 5 ms uRLLC budget.
        assert all(item.path.compute_unit == "edge-cu" for item in problem.items)

    def test_duplicate_tenant_names_rejected(self, tiny_topology, tiny_path_set):
        requests = make_requests(EMBB_TEMPLATE, 2)
        duplicated = [requests[0], requests[0]]
        with pytest.raises(ValueError, match="unique"):
            ACRRProblem(tiny_topology, tiny_path_set, duplicated, {})

    def test_empty_requests_rejected(self, tiny_topology, tiny_path_set):
        with pytest.raises(ValueError):
            ACRRProblem(tiny_topology, tiny_path_set, [], {})

    def test_missing_forecast_defaults_to_pessimistic(self, tiny_topology, tiny_path_set):
        requests = make_requests(EMBB_TEMPLATE, 1)
        problem = ACRRProblem(tiny_topology, tiny_path_set, requests, forecasts={})
        forecast = problem.forecast(requests[0].name)
        assert forecast.lambda_hat_mbps > 0.99 * requests[0].sla_mbps * 0.999
        assert forecast.sigma_hat == 1.0

    def test_reward_spread_over_base_stations(self, embb_problem):
        item = embb_problem.items[0]
        num_bs = len(embb_problem.base_station_names)
        assert item.reward_per_path == pytest.approx(item.tenant.reward / num_bs)
        assert item.penalty_rate_per_path == pytest.approx(
            item.tenant.penalty_rate_per_mbps / num_bs
        )

    def test_xi_uses_days(self, tiny_topology, tiny_path_set):
        requests = make_requests(EMBB_TEMPLATE, 1, duration_epochs=48)
        forecasts = {requests[0].name: ForecastInput(lambda_hat_mbps=10.0, sigma_hat=0.5)}
        problem = ACRRProblem(
            tiny_topology,
            tiny_path_set,
            requests,
            forecasts,
            options=ProblemOptions(epochs_per_day=24),
        )
        # 48 epochs = 2 days, so xi = 0.5 * 2.
        assert problem.items[0].xi == pytest.approx(1.0)


class TestObjective:
    def test_no_overbooking_objective_is_pure_reward(self, embb_problem):
        baseline = embb_problem.without_overbooking()
        cx = baseline.objective_x()
        cy = baseline.objective_y()
        assert np.allclose(cy, 0.0)
        for item in baseline.items:
            assert cx[item.index] == pytest.approx(-item.reward_per_path)

    def test_overbooking_y_coefficients_negative(self, embb_problem):
        assert np.all(embb_problem.objective_y() < 0.0)

    def test_evaluate_objective_full_reservation(self, embb_problem):
        # Accept one tenant on the edge CU at full SLA: objective = -R.
        x = np.zeros(embb_problem.num_items)
        z = np.zeros(embb_problem.num_items)
        tenant0 = embb_problem.items_of_tenant(0)
        for item in tenant0:
            if item.path.compute_unit == "edge-cu":
                x[item.index] = 1.0
                z[item.index] = item.sla_mbps
        value = embb_problem.evaluate_objective(x, z)
        assert value == pytest.approx(-embb_problem.requests[0].reward)

    def test_evaluate_objective_aggressive_reservation_costs_more(self, embb_problem):
        x = np.zeros(embb_problem.num_items)
        z_full = np.zeros(embb_problem.num_items)
        z_tight = np.zeros(embb_problem.num_items)
        for item in embb_problem.items_of_tenant(0):
            if item.path.compute_unit == "edge-cu":
                x[item.index] = 1.0
                z_full[item.index] = item.sla_mbps
                z_tight[item.index] = item.lambda_hat_mbps
        assert embb_problem.evaluate_objective(x, z_tight) > embb_problem.evaluate_objective(
            x, z_full
        )


def scalar_objective(problem: ACRRProblem, x: np.ndarray, z: np.ndarray) -> float:
    """``evaluate_objective`` as it was: one scalar ``deficit_probability_proxy``
    per chosen column, summed left to right -- the reference the array
    version must equal bit for bit."""
    total = 0.0
    for item in problem.items:
        if x[item.index] < 0.5:
            continue
        if problem.options.overbooking:
            rho = item.xi * deficit_probability_proxy(
                reservation_mbps=float(z[item.index]),
                lambda_hat_mbps=item.lambda_hat_mbps,
                sla_mbps=item.sla_mbps,
            )
            total += item.penalty_rate_per_path * rho - item.reward_per_path
        else:
            total += -item.reward_per_path
    return total


class TestObjectiveEqualsTheScalarReference:
    """The per-item terms are arrays now; the sum is still the scalar one."""

    @staticmethod
    def vectors(problem: ACRRProblem, rng: np.random.Generator):
        """Admission vectors (NaN counts as chosen, as ``~(x < 0.5)`` says)
        and reservations on every clipping edge: zeros of either sign,
        below the floor, at it, between it and the SLA, at the SLA and
        beyond it."""
        n = problem.num_items
        sla = np.array([item.sla_mbps for item in problem.items])
        floor = np.array([item.lambda_hat_mbps for item in problem.items])
        choices = np.stack(
            [
                np.zeros(n),
                np.full(n, -0.0),
                0.5 * floor,
                floor,
                floor + rng.random(n) * (sla - floor),
                sla,
                1.5 * sla,
            ]
        )
        for _ in range(4):
            x = (rng.random(n) < 0.5).astype(float)
            x[rng.random(n) < 0.05] = np.nan
            yield x, choices[rng.integers(len(choices), size=n), np.arange(n)]

    @pytest.mark.parametrize("seed", range(64))
    def test_differential_family(self, seed):
        from repro.scenarios import DIFFERENTIAL_FAMILY, sample_scenario
        from repro.scenarios.oracle import problem_for_scenario

        problem = problem_for_scenario(sample_scenario(DIFFERENTIAL_FAMILY, seed=seed))
        requests = problem.requests
        # Half the tenants forecast at their SLA: no overbooking headroom.
        pessimistic = problem.with_forecasts(
            requests,
            {
                r.name: ForecastInput.pessimistic(r.sla_mbps) if i % 2 else problem.forecast(r.name)
                for i, r in enumerate(requests)
            },
        )
        rng = np.random.default_rng(seed)
        for instance in (problem, pessimistic, problem.without_overbooking()):
            for x, z in self.vectors(instance, rng):
                got, want = instance.evaluate_objective(x, z), scalar_objective(instance, x, z)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


class TestConstraintBlocks:
    def test_capacity_block_shapes(self, embb_problem):
        block = embb_problem.capacity_block()
        expected_rows = 2 + len(embb_problem.topology.links) + 2  # CUs + links + BSs
        assert block.num_rows == expected_rows
        assert block.a_z.shape == (expected_rows, embb_problem.num_items)
        assert len(block.labels) == expected_rows

    def test_capacity_rhs_matches_topology(self, embb_problem):
        block = embb_problem.capacity_block()
        caps = embb_problem.topology.capacities()
        by_label = dict(zip(block.labels, block.upper))
        assert by_label["radio:bs-0"] == caps.radio_mhz["bs-0"]
        assert by_label["compute:edge-cu"] == caps.compute_cpus["edge-cu"]

    def test_deficit_domains_align_with_capacity_rows(self, embb_problem):
        block = embb_problem.capacity_block()
        domains = embb_problem.deficit_domains()
        assert len(domains) == block.num_rows
        assert domains[0] == "compute"
        assert domains[-1] == "radio"

    def test_selection_block_rows(self, embb_problem):
        block = embb_problem.selection_block()
        # (5): one row per (tenant, BS) = 6 x 2; (6): per tenant, per CU, one
        # chained equality between the two BSs = 6 x 2.
        assert block.num_rows == 12 + 12

    def test_committed_tenant_forces_equality(self, tiny_topology, tiny_path_set):
        requests = [r.as_committed() for r in make_requests(EMBB_TEMPLATE, 1)]
        problem = ACRRProblem(
            tiny_topology, tiny_path_set, requests, low_load_forecasts(requests)
        )
        block = problem.selection_block()
        select_rows = [i for i, label in enumerate(block.labels) if label.startswith("select:")]
        assert all(block.lower[i] == 1.0 for i in select_rows)

    def test_coupling_block_has_five_rows_per_item(self, embb_problem):
        block = embb_problem.coupling_block()
        assert block.num_rows == 5 * embb_problem.num_items


class TestInfeasibleConstruction:
    def test_unreachable_latency_raises(self):
        from repro.core.slices import SliceRequest, SliceTemplate

        topology = build_tiny_topology()
        path_set = compute_path_sets(topology, k=2)
        # A template whose latency tolerance is below the delay of every
        # candidate path: no admissible (tenant, path) pair can exist.
        impossible = SliceTemplate(
            name="impossible",
            reward=1.0,
            latency_tolerance_ms=1e-6,
            sla_mbps=10.0,
            compute_baseline_cpus=0.0,
            compute_cpus_per_mbps=0.0,
        )
        request = SliceRequest(name="t", template=impossible)
        with pytest.raises(InfeasibleProblemError):
            ACRRProblem(
                topology,
                path_set,
                [request],
                {request.name: ForecastInput(lambda_hat_mbps=1.0, sigma_hat=0.5)},
            )
