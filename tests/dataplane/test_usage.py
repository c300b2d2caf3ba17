"""Tests for per-domain usage accounting (Fig. 8 quantities)."""

import pytest

from repro.core.milp_solver import DirectMILPSolver
from repro.dataplane.usage import UsageAccountant


@pytest.fixture
def decision_and_accountant(mixed_problem):
    decision = DirectMILPSolver().solve(mixed_problem)
    return decision, UsageAccountant(mixed_problem, decision)


def uniform_served(problem, decision, mbps):
    served = {}
    for name, alloc in decision.allocations.items():
        if not alloc.accepted:
            continue
        for bs in alloc.paths:
            served[(name, bs)] = mbps
    return served


class TestRadioUsage:
    def test_usage_below_reservation_when_load_low(self, mixed_problem, decision_and_accountant):
        decision, accountant = decision_and_accountant
        served = uniform_served(mixed_problem, decision, 1.0)
        usage = accountant.radio_usage(served)
        for bs_usage in usage.values():
            assert bs_usage.used <= bs_usage.reserved + 1e-9
            assert 0 <= bs_usage.used <= bs_usage.capacity

    def test_capacity_matches_topology(self, mixed_problem, decision_and_accountant):
        decision, accountant = decision_and_accountant
        usage = accountant.radio_usage({})
        for bs_name, bs_usage in usage.items():
            assert bs_usage.capacity == mixed_problem.topology.base_station(bs_name).capacity_mhz


class TestTransportUsage:
    def test_reservations_aggregate_per_link(self, mixed_problem, decision_and_accountant):
        decision, accountant = decision_and_accountant
        served = uniform_served(mixed_problem, decision, 2.0)
        usage = accountant.transport_usage(served)
        reservations = decision.transport_reservations_mbps(mixed_problem)
        for key, link_usage in usage.items():
            assert link_usage.reserved == pytest.approx(sum(reservations[key].values()))


class TestComputeUsage:
    def test_used_cpu_follows_served_traffic(self, mixed_problem, decision_and_accountant):
        decision, accountant = decision_and_accountant
        served = uniform_served(mixed_problem, decision, 5.0)
        usage = accountant.compute_usage(served)
        for cu, cu_usage in usage.items():
            expected = 0.0
            for name, alloc in decision.allocations.items():
                if alloc.accepted and alloc.compute_unit == cu:
                    expected += sum(
                        alloc.request.compute_cpus(5.0) for _ in alloc.paths
                    )
            assert cu_usage.used == pytest.approx(expected)

    def test_overbooked_flag(self, mixed_problem, decision_and_accountant):
        decision, accountant = decision_and_accountant
        # Load every slice at its full SLA: usage can exceed the reservation
        # (that is exactly what overbooking means).
        served = {}
        for name, alloc in decision.allocations.items():
            if not alloc.accepted:
                continue
            for bs in alloc.paths:
                served[(name, bs)] = alloc.request.sla_mbps
        usage = [*accountant.compute_usage(served).values(), *accountant.radio_usage(served).values()]
        assert any(u.used > u.reserved + 1e-9 for u in usage if u.reserved > 0)
