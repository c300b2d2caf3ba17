"""Orchestration decisions: the output of the AC-RR solvers.

An :class:`OrchestrationDecision` records, for one decision epoch, which
tenants were admitted, which compute unit anchors each admitted slice, which
path serves it from every base station, and the bitrate reserved on each of
those paths.  It also derives the per-domain reservations that the domain
controllers enforce (PRB shares, transport-link bandwidth, CPU cores), which
is what Fig. 8(b)-(d) plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.problem import ACRRProblem
from repro.core.slices import SliceRequest
from repro.topology.paths import Path


@dataclass(frozen=True)
class SolverStats:
    """Diagnostics describing how a solver produced a decision."""

    solver: str
    iterations: int = 0
    runtime_s: float = 0.0
    optimal: bool = True
    gap: float = 0.0
    cuts_optimality: int = 0
    cuts_feasibility: int = 0
    #: Stored warm-start cuts seeded into the master that re-certified this
    #: decision; 0 on cold solves.
    cuts_warm: int = 0
    message: str = ""
    #: Safeguard-chain tier that produced this decision ("primary" when the
    #: normal solver succeeded; see repro.faults.safeguard for the others).
    tier: str = "primary"
    #: Transient-failure retries the safeguard chain spent before success.
    retries: int = 0
    #: Why the chain fell past the primary tier ("" on a clean solve).
    fallback_reason: str = ""
    #: True when the solver stopped on its wall-clock budget before closing
    #: the optimality gap: the decision is the best incumbent, not a
    #: certificate.
    time_truncated: bool = False


@dataclass(frozen=True)
class TenantAllocation:
    """Admission outcome of one tenant in one epoch."""

    request: SliceRequest
    accepted: bool
    compute_unit: str | None
    # One path and one bitrate reservation per base station (Mb/s).
    paths: dict[str, Path] = field(default_factory=dict)
    reservations_mbps: dict[str, float] = field(default_factory=dict)

    @property
    def total_reserved_mbps(self) -> float:
        return float(sum(self.reservations_mbps.values()))

    @property
    def reserved_cpus(self) -> float:
        """CPU cores reserved at the anchoring compute unit for this tenant."""
        if not self.accepted:
            return 0.0
        total = 0.0
        for mbps in self.reservations_mbps.values():
            total += self.request.compute_baseline_cpus
            total += self.request.compute_cpus_per_mbps * mbps
        return total


@dataclass
class OrchestrationDecision:
    """Admission + reservation decision for one decision epoch."""

    allocations: dict[str, TenantAllocation]
    objective_value: float
    stats: SolverStats
    deficits: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Admission summary
    # ------------------------------------------------------------------ #
    @property
    def accepted_tenants(self) -> list[str]:
        return [name for name, alloc in self.allocations.items() if alloc.accepted]

    @property
    def rejected_tenants(self) -> list[str]:
        return [name for name, alloc in self.allocations.items() if not alloc.accepted]

    @property
    def num_accepted(self) -> int:
        return len(self.accepted_tenants)

    def is_accepted(self, tenant_name: str) -> bool:
        allocation = self.allocations.get(tenant_name)
        return bool(allocation and allocation.accepted)

    @property
    def expected_reward(self) -> float:
        """Total admission reward of the accepted tenants (per epoch)."""
        return float(
            sum(a.request.reward for a in self.allocations.values() if a.accepted)
        )

    @property
    def expected_net_reward(self) -> float:
        """Negative of the optimisation objective: reward minus estimated risk."""
        return -self.objective_value

    @property
    def total_deficit(self) -> float:
        return float(sum(self.deficits.values()))

    # ------------------------------------------------------------------ #
    # Per-domain reservations (what the controllers enforce)
    # ------------------------------------------------------------------ #
    def radio_reservations_mhz(self, problem: ACRRProblem) -> dict[str, dict[str, float]]:
        """Per base station, per tenant: reserved spectrum in MHz."""
        reservations: dict[str, dict[str, float]] = {
            bs: {} for bs in problem.base_station_names
        }
        for name, alloc in self.allocations.items():
            if not alloc.accepted:
                continue
            for bs, mbps in alloc.reservations_mbps.items():
                bs_obj = problem.topology.base_station(bs)
                reservations[bs][name] = bs_obj.mhz_for_bitrate(mbps)
        return reservations

    def transport_reservations_mbps(
        self, problem: ACRRProblem
    ) -> dict[tuple[str, str], dict[str, float]]:
        """Per transport link, per tenant: reserved bandwidth in Mb/s."""
        reservations: dict[tuple[str, str], dict[str, float]] = {
            link.key: {} for link in problem.topology.links
        }
        for name, alloc in self.allocations.items():
            if not alloc.accepted:
                continue
            for bs, path in alloc.paths.items():
                mbps = alloc.reservations_mbps.get(bs, 0.0)
                for link in path.links:
                    reservations[link.key][name] = (
                        reservations[link.key].get(name, 0.0) + mbps * link.overhead
                    )
        return reservations

    def compute_reservations_cpus(self, problem: ACRRProblem) -> dict[str, dict[str, float]]:
        """Per compute unit, per tenant: reserved CPU cores."""
        reservations: dict[str, dict[str, float]] = {
            cu: {} for cu in problem.compute_unit_names
        }
        for name, alloc in self.allocations.items():
            if not alloc.accepted or alloc.compute_unit is None:
                continue
            reservations[alloc.compute_unit][name] = alloc.reserved_cpus
        return reservations


def decision_from_vectors(
    problem: ACRRProblem,
    x: np.ndarray,
    z: np.ndarray,
    stats: SolverStats,
    deficits: dict[str, float] | None = None,
) -> OrchestrationDecision:
    """Assemble an :class:`OrchestrationDecision` from raw solver vectors.

    A tenant counts as accepted when it holds a path (x = 1) at *every* base
    station that can reach its anchoring compute unit, which is what
    constraints (5)-(6) enforce; the helper simply reads the vectors back.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    reserved = z.tolist()
    allocations: dict[str, TenantAllocation] = {}
    for request, selected in zip(problem.requests, problem.selected(x)):
        paths = {path.base_station: path for _, path in selected}
        allocations[request.name] = TenantAllocation(
            request=request,
            accepted=bool(paths),
            compute_unit=selected[-1][1].compute_unit if selected else None,
            paths=paths,
            reservations_mbps={path.base_station: reserved[column] for column, path in selected},
        )
    objective = problem.evaluate_objective(x, z)
    return OrchestrationDecision(
        allocations=allocations,
        objective_value=objective,
        stats=stats,
        deficits=dict(deficits or {}),
    )
