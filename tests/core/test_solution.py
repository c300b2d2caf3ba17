"""Tests for orchestration decisions and per-domain reservation views."""

import numpy as np
import pytest

from repro.core.milp_solver import DirectMILPSolver
from repro.core.slices import SliceRequest, SliceTemplate
from repro.core.solution import SolverStats, TenantAllocation, decision_from_vectors


class TestDecisionFromVectors:
    def test_round_trip_accepts_marked_items(self, embb_problem):
        x = np.zeros(embb_problem.num_items)
        z = np.zeros(embb_problem.num_items)
        for item in embb_problem.items_of_tenant(0):
            if item.path.compute_unit == "edge-cu":
                x[item.index] = 1.0
                z[item.index] = 30.0
        decision = decision_from_vectors(
            embb_problem, x, z, SolverStats(solver="test")
        )
        assert decision.num_accepted == 1
        name = embb_problem.requests[0].name
        alloc = decision.allocations[name]
        assert alloc.compute_unit == "edge-cu"
        assert alloc.total_reserved_mbps == pytest.approx(60.0)
        assert decision.is_accepted(name)
        assert not decision.is_accepted(embb_problem.requests[1].name)

    def test_expected_reward_counts_accepted_only(self, embb_problem):
        decision = DirectMILPSolver().solve(embb_problem)
        expected = sum(
            alloc.request.reward
            for alloc in decision.allocations.values()
            if alloc.accepted
        )
        assert decision.expected_reward == pytest.approx(expected)


class TestPerDomainReservations:
    def test_radio_reservations_match_eta(self, embb_problem):
        decision = DirectMILPSolver().solve(embb_problem)
        radio = decision.radio_reservations_mhz(embb_problem)
        for bs_name, per_tenant in radio.items():
            bs = embb_problem.topology.base_station(bs_name)
            for tenant, mhz in per_tenant.items():
                mbps = decision.allocations[tenant].reservations_mbps[bs_name]
                assert mhz == pytest.approx(bs.mhz_for_bitrate(mbps))

    def test_transport_reservations_cover_path_links(self, embb_problem):
        decision = DirectMILPSolver().solve(embb_problem)
        transport = decision.transport_reservations_mbps(embb_problem)
        # Every accepted tenant's traffic crosses its BS access links.
        for name, alloc in decision.allocations.items():
            if not alloc.accepted:
                continue
            for bs, path in alloc.paths.items():
                for link in path.links:
                    assert name in transport[link.key]

    def test_compute_reservations_follow_service_model(self, mixed_problem):
        decision = DirectMILPSolver().solve(mixed_problem)
        compute = decision.compute_reservations_cpus(mixed_problem)
        for cu, per_tenant in compute.items():
            for tenant, cpus in per_tenant.items():
                alloc = decision.allocations[tenant]
                expected = sum(
                    alloc.request.compute_cpus(mbps)
                    for mbps in alloc.reservations_mbps.values()
                )
                assert cpus == pytest.approx(expected)

    def test_embb_consumes_no_compute(self, embb_problem):
        decision = DirectMILPSolver().solve(embb_problem)
        compute = decision.compute_reservations_cpus(embb_problem)
        total = sum(sum(v.values()) for v in compute.values())
        assert total == pytest.approx(0.0)


BASELINE_TEMPLATE = SliceTemplate(
    name="baseline",
    reward=2.0,
    latency_tolerance_ms=30.0,
    sla_mbps=40.0,
    compute_baseline_cpus=1.5,
    compute_cpus_per_mbps=0.5,
)


class TestTenantAllocation:
    """A slice's CPU budget is ``TenantAllocation.reserved_cpus``: one
    baseline plus the per-Mb/s share for every base station it serves."""

    def test_reserved_cpus_count_a_baseline_per_base_station(self):
        request = SliceRequest(name="s", template=BASELINE_TEMPLATE)
        allocation = TenantAllocation(
            request=request,
            accepted=True,
            compute_unit="edge-cu",
            reservations_mbps={"bs-0": 10.0, "bs-1": 20.0},
        )
        assert allocation.total_reserved_mbps == pytest.approx(30.0)
        assert allocation.reserved_cpus == pytest.approx(2 * 1.5 + 0.5 * 30.0)
        assert allocation.reserved_cpus == pytest.approx(
            request.compute_cpus(10.0) + request.compute_cpus(20.0)
        )

    def test_rejected_allocation_reserves_no_cpus(self):
        allocation = TenantAllocation(
            request=SliceRequest(name="s", template=BASELINE_TEMPLATE),
            accepted=False,
            compute_unit=None,
            reservations_mbps={"bs-0": 10.0},
        )
        assert allocation.reserved_cpus == 0.0

    def test_accepted_paths_run_from_each_base_station_to_the_anchor(self, mixed_problem):
        decision = DirectMILPSolver().solve(mixed_problem)
        assert decision.num_accepted > 0
        for name, alloc in decision.allocations.items():
            if not alloc.accepted:
                assert alloc.compute_unit is None and not alloc.paths
                continue
            assert set(alloc.paths) == set(alloc.reservations_mbps)
            assert set(alloc.paths) == set(mixed_problem.base_station_names)
            for bs, path in alloc.paths.items():
                assert path.base_station == bs
                assert path.compute_unit == alloc.compute_unit
