"""Shared fixtures: small hand-built topologies and workloads.

The fixtures deliberately use a tiny, fully-understood topology (two base
stations, one switch, an edge and a core compute unit) so tests can assert
exact admission counts and reservations.
"""

from __future__ import annotations

import zlib

import pytest

from repro.core.forecast_inputs import ForecastInput
from repro.core.problem import ACRRProblem, ProblemOptions
from repro.core.solution import OrchestrationDecision, SolverStats, TenantAllocation
from repro.core.slices import (
    EMBB_TEMPLATE,
    MMTC_TEMPLATE,
    URLLC_TEMPLATE,
    SliceRequest,
    make_requests,
)
from repro.topology.elements import (
    BaseStation,
    ComputeUnit,
    ComputeUnitKind,
    TransportLink,
    TransportSwitch,
)
from repro.topology.network import NetworkTopology
from repro.topology.paths import compute_path_sets


def build_tiny_topology(
    num_base_stations: int = 2,
    bs_capacity_mhz: float = 20.0,
    link_capacity_mbps: float = 1000.0,
    edge_cpus: float = 40.0,
    core_cpus: float = 200.0,
    core_latency_ms: float = 20.0,
    bs_spectral_efficiency: float = 7.5,
) -> NetworkTopology:
    """A star topology: BSs -- switch -- {edge CU, core CU}."""
    topology = NetworkTopology(name="tiny")
    topology.add_switch(TransportSwitch(name="sw"))
    topology.add_compute_unit(
        ComputeUnit(name="edge-cu", capacity_cpus=edge_cpus, kind=ComputeUnitKind.EDGE)
    )
    topology.add_compute_unit(
        ComputeUnit(
            name="core-cu",
            capacity_cpus=core_cpus,
            kind=ComputeUnitKind.CORE,
            access_latency_ms=core_latency_ms,
        )
    )
    for i in range(num_base_stations):
        topology.add_base_station(
            BaseStation(
                name=f"bs-{i}",
                capacity_mhz=bs_capacity_mhz,
                spectral_efficiency_mbps_per_mhz=bs_spectral_efficiency,
            )
        )
        topology.add_link(
            TransportLink(
                endpoint_a=f"bs-{i}", endpoint_b="sw", capacity_mbps=link_capacity_mbps
            )
        )
    topology.add_link(
        TransportLink(endpoint_a="sw", endpoint_b="edge-cu", capacity_mbps=link_capacity_mbps)
    )
    topology.add_link(
        TransportLink(endpoint_a="sw", endpoint_b="core-cu", capacity_mbps=link_capacity_mbps)
    )
    topology.validate()
    return topology


@pytest.fixture
def tiny_topology() -> NetworkTopology:
    return build_tiny_topology()


@pytest.fixture
def tiny_path_set(tiny_topology):
    return compute_path_sets(tiny_topology, k=3)


@pytest.fixture
def embb_requests() -> list[SliceRequest]:
    return make_requests(EMBB_TEMPLATE, 6, duration_epochs=24, penalty_factor=1.0)


@pytest.fixture
def mixed_requests() -> list[SliceRequest]:
    return (
        make_requests(EMBB_TEMPLATE, 2, duration_epochs=24)
        + make_requests(MMTC_TEMPLATE, 2, duration_epochs=24)
        + make_requests(URLLC_TEMPLATE, 2, duration_epochs=24)
    )


def low_load_forecasts(requests, fraction: float = 0.2, sigma: float = 0.25):
    """Forecast each request at ``fraction`` of its SLA with uncertainty sigma."""
    return {
        request.name: ForecastInput(
            lambda_hat_mbps=fraction * request.sla_mbps, sigma_hat=sigma
        )
        for request in requests
    }


@pytest.fixture
def embb_problem(tiny_topology, tiny_path_set, embb_requests) -> ACRRProblem:
    """Six eMBB tenants at 20 % load on the tiny topology (radio-bound)."""
    return ACRRProblem(
        topology=tiny_topology,
        path_set=tiny_path_set,
        requests=embb_requests,
        forecasts=low_load_forecasts(embb_requests),
    )


@pytest.fixture
def mixed_problem(tiny_topology, tiny_path_set, mixed_requests) -> ACRRProblem:
    return ACRRProblem(
        topology=tiny_topology,
        path_set=tiny_path_set,
        requests=mixed_requests,
        forecasts=low_load_forecasts(mixed_requests, fraction=0.5, sigma=0.3),
    )


@pytest.fixture
def problem_options() -> ProblemOptions:
    return ProblemOptions()


class CoinSolver:
    """Stub solver for lifecycle tests: keeps every committed slice and
    admits a new request when a CRC of its name and arrival epoch is even.
    No reservations, no LP: the control plane runs, the solver costs
    nothing."""

    def solve(self, problem: ACRRProblem) -> OrchestrationDecision:
        allocations = {}
        for request in problem.requests:
            coin = zlib.crc32(f"{request.name}@{request.arrival_epoch}".encode()) % 2 == 0
            allocations[request.name] = TenantAllocation(
                request=request, accepted=request.committed or coin, compute_unit=None
            )
        return OrchestrationDecision(
            allocations=allocations, objective_value=0.0, stats=SolverStats(solver="coin")
        )
