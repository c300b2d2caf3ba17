"""Tests for the RAN / transport / cloud domain controllers."""

import pytest

from repro.controlplane.controllers import ControllerSet
from repro.core.milp_solver import DirectMILPSolver
from repro.core.problem import ACRRProblem
from repro.core.slices import EMBB_TEMPLATE, make_requests
from repro.core.solution import OrchestrationDecision, SolverStats, TenantAllocation
from repro.topology.elements import PRBS_PER_MHZ
from repro.topology.paths import compute_path_sets
from tests.conftest import build_tiny_topology, low_load_forecasts


@pytest.fixture
def applied_controllers(mixed_problem):
    decision = DirectMILPSolver().solve(mixed_problem)
    controllers = ControllerSet.for_topology(mixed_problem.topology)
    controllers.apply(mixed_problem, decision)
    return mixed_problem, decision, controllers


class TestRanController:
    def test_shares_granted_for_accepted_slices(self, applied_controllers):
        problem, decision, controllers = applied_controllers
        for bs in problem.topology.base_station_names:
            shares = controllers.ran.shares(bs)
            accepted_at_bs = {
                name
                for name, alloc in decision.allocations.items()
                if alloc.accepted and bs in alloc.reservations_mbps
            }
            assert set(shares) == accepted_at_bs

    def test_served_bitrate_clipped_to_share(self, applied_controllers):
        problem, decision, controllers = applied_controllers
        name = decision.accepted_tenants[0]
        bs = next(iter(decision.allocation(name).reservations_mbps))
        reservation = decision.allocation(name).reservations_mbps[bs]
        assert controllers.ran.served_bitrate(bs, name, reservation * 2) == pytest.approx(
            reservation, rel=1e-6
        )

    def test_reapplying_revokes_stale_shares(self, applied_controllers):
        problem, decision, controllers = applied_controllers
        # Re-apply a decision where nothing is accepted: all shares revoked.
        import copy

        empty = copy.deepcopy(decision)
        for alloc in empty.allocations.values():
            object.__setattr__(alloc, "accepted", False)
        controllers.ran.apply(problem, empty)
        for bs in problem.topology.base_station_names:
            assert controllers.ran.shares(bs) == {}


class TestRanAgreesWithTheSolver:
    """The RAN controller enforces the spectrum the solver reserved: PRB
    shares come from the base station's own spectral efficiency (eta_b of
    constraint (4)), not from a second radio model."""

    def test_shares_are_the_reserved_spectrum_at_non_default_efficiency(self):
        topology = build_tiny_topology(bs_spectral_efficiency=5.0)
        requests = make_requests(EMBB_TEMPLATE, 2, duration_epochs=24)
        problem = ACRRProblem(
            topology=topology,
            path_set=compute_path_sets(topology, k=3),
            requests=requests,
            forecasts=low_load_forecasts(requests),
        )
        decision = DirectMILPSolver().solve(problem)
        controllers = ControllerSet.for_topology(topology)
        controllers.apply(problem, decision)

        reserved_mhz = decision.radio_reservations_mhz(problem)
        assert len(decision.accepted_tenants) == 2
        for bs in topology.base_station_names:
            shares = controllers.ran.shares(bs)
            assert set(shares) == set(reserved_mhz[bs]) == set(decision.accepted_tenants)
            for name, mhz in reserved_mhz[bs].items():
                assert mhz > 0.0
                assert shares[name] == pytest.approx(PRBS_PER_MHZ * mhz, rel=1e-12)

    @pytest.mark.parametrize("efficiency", [5.0, 7.5, 10.0])
    def test_reserved_bitrate_is_served_in_full(self, efficiency):
        topology = build_tiny_topology(bs_spectral_efficiency=efficiency)
        requests = make_requests(EMBB_TEMPLATE, 2, duration_epochs=24)
        problem = ACRRProblem(
            topology=topology,
            path_set=compute_path_sets(topology, k=3),
            requests=requests,
            forecasts=low_load_forecasts(requests),
        )
        decision = DirectMILPSolver().solve(problem)
        controllers = ControllerSet.for_topology(topology)
        controllers.apply(problem, decision)

        assert len(decision.accepted_tenants) == 2
        for name in decision.accepted_tenants:
            for bs, mbps in decision.allocation(name).reservations_mbps.items():
                # The air interface carries exactly the reservation: no more,
                # and -- whatever eta_b is -- no less.
                served = controllers.ran.served_bitrate(bs, name, 2 * mbps)
                assert served == pytest.approx(mbps, rel=1e-12)

    def test_grants_beyond_the_carrier_are_clamped(self, embb_problem):
        # Under the deficit relaxation a decision may nominally reserve more
        # than the carrier holds: 2 x 100 Mb/s on a 150 Mb/s (100-PRB) cell.
        decision = OrchestrationDecision(
            allocations={
                request.name: TenantAllocation(
                    request=request,
                    accepted=True,
                    compute_unit="edge-cu",
                    reservations_mbps={"bs-0": 100.0},
                )
                for request in embb_problem.requests[:2]
            },
            objective_value=0.0,
            stats=SolverStats(solver="test"),
        )
        controllers = ControllerSet.for_topology(embb_problem.topology)
        controllers.ran.apply(embb_problem, decision)

        first, second = (request.name for request in embb_problem.requests[:2])
        shares = controllers.ran.shares("bs-0")
        assert shares[first] == pytest.approx(100.0 / 7.5 * PRBS_PER_MHZ)
        assert shares[second] == pytest.approx(50.0 / 7.5 * PRBS_PER_MHZ)
        capacity = embb_problem.topology.base_station("bs-0").capacity_prbs
        assert sum(shares.values()) == pytest.approx(capacity)
        assert controllers.ran.shares("bs-1") == {}


class TestTransportController:
    def test_link_reservation_and_headroom(self, applied_controllers):
        problem, decision, controllers = applied_controllers
        for link in problem.topology.links:
            reserved = controllers.transport.link_reservation(link.key)
            headroom = controllers.transport.link_headroom(link.key)
            assert reserved >= 0.0
            assert headroom == pytest.approx(link.capacity_mbps - reserved)
            assert headroom >= -1e-6


class TestCloudController:
    def test_cu_reservation_within_capacity(self, applied_controllers):
        problem, decision, controllers = applied_controllers
        for cu in problem.topology.compute_units:
            reserved = controllers.cloud.cu_reservation(cu.name)
            assert 0.0 <= reserved <= cu.capacity_cpus + 1e-6
            assert controllers.cloud.cu_headroom(cu.name) == pytest.approx(
                cu.capacity_cpus - reserved
            )

    def test_each_slice_reserves_its_cpu_budget_on_its_anchor(self, applied_controllers):
        problem, decision, controllers = applied_controllers
        for name, alloc in decision.allocations.items():
            for cu, per_slice in controllers.cloud.reservations_cpus.items():
                if alloc.accepted and cu == alloc.compute_unit:
                    assert per_slice[name] == pytest.approx(alloc.reserved_cpus)
                else:
                    assert name not in per_slice


class TestClear:
    def test_clear_releases_every_domain(self, applied_controllers):
        problem, decision, controllers = applied_controllers
        controllers.clear()
        for bs in problem.topology.base_station_names:
            assert controllers.ran.shares(bs) == {}
        for link in problem.topology.links:
            assert controllers.transport.link_reservation(link.key) == 0.0
        for cu in problem.topology.compute_units:
            assert controllers.cloud.cu_reservation(cu.name) == 0.0


def enforced_state(controllers: ControllerSet) -> tuple:
    """What the three domains enforce: PRB shares, link and CPU reservations."""
    return (
        {bs: enforcer.shares() for bs, enforcer in controllers.ran.enforcers.items()},
        controllers.transport.reservations_mbps,
        controllers.cloud.reservations_cpus,
    )


class TestAtomicApply:
    """ControllerSet.apply is all-or-nothing across the three domains."""

    @pytest.mark.parametrize(
        "crash_at",
        [
            "controller.ran.apply",
            "controller.transport.apply",
            "controller.cloud.apply",
        ],
        ids=lambda hook: hook.split(".")[1],
    )
    def test_crash_in_any_domain_rolls_all_domains_back(
        self, mixed_problem, crash_at
    ):
        decision = DirectMILPSolver().solve(mixed_problem)
        controllers = ControllerSet.for_topology(mixed_problem.topology)

        def hook(name: str) -> None:
            if name == crash_at:
                raise RuntimeError(f"injected crash before {name}")

        controllers.fault_hook = hook
        before = enforced_state(controllers)
        with pytest.raises(RuntimeError, match="injected crash"):
            controllers.apply(mixed_problem, decision)
        # No domain keeps a partial enforcement: the domains that applied
        # before the crash were rolled back with the rest.
        assert enforced_state(controllers) == before

        # A clean retry enforces the full decision.
        controllers.fault_hook = None
        controllers.apply(mixed_problem, decision)
        assert any(
            controllers.ran.shares(bs)
            for bs in mixed_problem.topology.base_station_names
        )

    def test_partial_apply_never_mixes_two_decisions(self, mixed_problem):
        # Enforce decision A, then crash halfway through decision B: the
        # controllers must still enforce exactly A, not a RAN-of-B /
        # transport-of-A hybrid.
        decision = DirectMILPSolver().solve(mixed_problem)
        controllers = ControllerSet.for_topology(mixed_problem.topology)
        controllers.apply(mixed_problem, decision)
        enforced = enforced_state(controllers)

        import copy

        empty = copy.deepcopy(decision)
        for alloc in empty.allocations.values():
            object.__setattr__(alloc, "accepted", False)

        def crash_transport(name: str) -> None:
            if name == "controller.transport.apply":
                raise RuntimeError("injected")

        controllers.fault_hook = crash_transport
        with pytest.raises(RuntimeError):
            controllers.apply(mixed_problem, empty)
        assert enforced_state(controllers) == enforced
