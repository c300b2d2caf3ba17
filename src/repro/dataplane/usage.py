"""Per-domain usage accounting for the simulated data plane.

Fig. 8(b)-(d) of the paper plots, for every domain, the *reservation* decided
by the orchestrator next to the *actual utilisation* generated by the
tenants' traffic.  The :class:`UsageAccountant` computes both quantities from
an orchestration decision and the per-(tenant, base station) offered loads of
one epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.problem import ACRRProblem
from repro.core.solution import OrchestrationDecision


@dataclass(frozen=True)
class DomainUsage:
    """Reservation vs. utilisation of one resource in one epoch."""

    resource: str
    capacity: float
    reserved: float
    used: float
    per_slice_reserved: dict[str, float] = field(default_factory=dict)
    per_slice_used: dict[str, float] = field(default_factory=dict)


class UsageAccountant:
    """Derives per-domain reservation/utilisation snapshots for one epoch."""

    def __init__(self, problem: ACRRProblem, decision: OrchestrationDecision):
        self.problem = problem
        self.decision = decision
        self._capacities = problem.topology.capacities()

    # ------------------------------------------------------------------ #
    def radio_usage(
        self, served_mbps: dict[tuple[str, str], float]
    ) -> dict[str, DomainUsage]:
        """Per base station: PRB-equivalent (MHz) reservation vs. usage.

        ``served_mbps`` maps (tenant, base station) to the traffic actually
        carried over the air during the epoch.
        """
        reservations = self.decision.radio_reservations_mhz(self.problem)
        usage: dict[str, DomainUsage] = {}
        for bs_name, per_tenant in reservations.items():
            bs = self.problem.topology.base_station(bs_name)
            used_per_slice = {
                tenant: bs.mhz_for_bitrate(served_mbps.get((tenant, bs_name), 0.0))
                for tenant in per_tenant
            }
            usage[bs_name] = DomainUsage(
                resource=f"radio:{bs_name}",
                capacity=self._capacities.radio_mhz[bs_name],
                reserved=float(sum(per_tenant.values())),
                used=float(sum(used_per_slice.values())),
                per_slice_reserved=dict(per_tenant),
                per_slice_used=used_per_slice,
            )
        return usage

    def transport_usage(
        self, served_mbps: dict[tuple[str, str], float]
    ) -> dict[tuple[str, str], DomainUsage]:
        """Per transport link: bandwidth reservation vs. carried traffic."""
        reservations = self.decision.transport_reservations_mbps(self.problem)
        used: dict[tuple[str, str], dict[str, float]] = {
            key: {} for key in reservations
        }
        for name, alloc in self.decision.allocations.items():
            if not alloc.accepted:
                continue
            for bs, path in alloc.paths.items():
                carried = served_mbps.get((name, bs), 0.0)
                for link in path.links:
                    used[link.key][name] = used[link.key].get(name, 0.0) + carried * link.overhead
        usage: dict[tuple[str, str], DomainUsage] = {}
        for key, per_tenant in reservations.items():
            usage[key] = DomainUsage(
                resource=f"transport:{key[0]}--{key[1]}",
                capacity=self._capacities.transport_mbps[key],
                reserved=float(sum(per_tenant.values())),
                used=float(sum(used[key].values())),
                per_slice_reserved=dict(per_tenant),
                per_slice_used=dict(used[key]),
            )
        return usage

    def compute_usage(
        self, served_mbps: dict[tuple[str, str], float]
    ) -> dict[str, DomainUsage]:
        """Per compute unit: CPU reservation vs. CPU load driven by traffic."""
        reservations = self.decision.compute_reservations_cpus(self.problem)
        used: dict[str, dict[str, float]] = {cu: {} for cu in reservations}
        for name, alloc in self.decision.allocations.items():
            if not alloc.accepted or alloc.compute_unit is None:
                continue
            request = alloc.request
            cpu = 0.0
            for bs in alloc.paths:
                carried = served_mbps.get((name, bs), 0.0)
                cpu += request.compute_cpus(carried)
            used[alloc.compute_unit][name] = cpu
        usage: dict[str, DomainUsage] = {}
        for cu, per_tenant in reservations.items():
            usage[cu] = DomainUsage(
                resource=f"compute:{cu}",
                capacity=self._capacities.compute_cpus[cu],
                reserved=float(sum(per_tenant.values())),
                used=float(sum(used[cu].values())),
                per_slice_reserved=dict(per_tenant),
                per_slice_used=dict(used[cu]),
            )
        return usage
