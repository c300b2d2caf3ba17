"""Domain controllers: RAN, transport and cloud.

The E2E orchestrator never touches data-plane elements directly; it pushes
per-slice reservations to one controller per domain (Fig. 2), which translate
them into domain-specific artefacts -- PRB shares on base stations, per-link
bandwidth allocations on the SDN transport, CPU reservations on the compute
units -- exactly as the paper's prototype does with proprietary BS interfaces,
Floodlight flow rules and OpenStack Heat templates.  The controllers are
stateless between epochs apart from the currently enforced reservation, and
they expose the utilisation numbers the monitoring block collects.

Each controller's enforced state is one declared field (see
:mod:`repro.utils.journal`), replaced whole: what a decision asks of a
domain is computed first, then *enforced* in one write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.problem import ACRRProblem
from repro.core.solution import OrchestrationDecision
from repro.radio.ran_sharing import RanSlicingEnforcer
from repro.topology.network import NetworkTopology
from repro.utils.journal import assign


class RanController:
    """Grants PRB shares of every base station to the admitted slices."""

    JOURNALED = ("enforcers",)

    def __init__(self, topology: NetworkTopology):
        self.topology = topology
        #: Base station -> its enforcer; replaced whole, never granted into.
        self.enforcers: dict[str, RanSlicingEnforcer] = {
            bs.name: RanSlicingEnforcer(bs) for bs in topology.base_stations
        }

    def plan(self, decision: OrchestrationDecision) -> dict[str, RanSlicingEnforcer]:
        """Fresh enforcers holding exactly the decision's PRB shares.

        Granted from empty carriers: a re-orchestration can move capacity
        between slices, and granting the new shares on top of the stale ones
        could transiently exceed the carrier size even though the final
        allocation is feasible.
        """
        accepted = [
            (slice_name, alloc.reservations_mbps)
            for slice_name, alloc in decision.allocations.items()
            if alloc.accepted
        ]
        planned = {}
        for bs_name, current in self.enforcers.items():
            enforcer = RanSlicingEnforcer(current.base_station)
            for slice_name, reservations in accepted:
                mbps = reservations.get(bs_name)
                if mbps is None:
                    continue
                # Under the big-M deficit relaxation (Section 3.4) the decision
                # may nominally exceed the carrier; the base station can only
                # grant what physically exists, so clamp to the remaining PRBs.
                grantable_mbps = enforcer.bitrate_for_prbs(max(0.0, enforcer.free_prbs))
                enforcer.grant_bitrate(slice_name, min(mbps, grantable_mbps))
            planned[bs_name] = enforcer
        return planned

    def enforce(self, enforcers: dict[str, RanSlicingEnforcer]) -> None:
        assign(self, "enforcers", enforcers)

    def clear(self) -> None:
        """Revoke every PRB share (no slice is entitled to radio resources)."""
        self.enforce(
            {
                name: RanSlicingEnforcer(enforcer.base_station)
                for name, enforcer in self.enforcers.items()
            }
        )

    def served_bitrate(self, base_station: str, slice_name: str, offered_mbps: float) -> float:
        """Traffic the air interface actually carries for a slice at one BS."""
        return self.enforcers[base_station].served_bitrate(slice_name, offered_mbps)

    def shares(self, base_station: str) -> dict[str, float]:
        """Current PRB share per slice at one base station."""
        return {
            name: share.prbs
            for name, share in self.enforcers[base_station].shares().items()
        }


class TransportController:
    """Programs per-slice bandwidth on every transport link (SDN paths)."""

    JOURNALED = ("reservations_mbps",)

    def __init__(self, topology: NetworkTopology):
        self.topology = topology
        self.reservations_mbps: dict[tuple[str, str], dict[str, float]] = {
            link.key: {} for link in topology.links
        }

    def enforce(self, reservations: dict[tuple[str, str], dict[str, float]]) -> None:
        assign(self, "reservations_mbps", reservations)

    def clear(self) -> None:
        """Tear down every per-link bandwidth reservation."""
        self.enforce({link.key: {} for link in self.topology.links})

    def link_reservation(self, link_key: tuple[str, str]) -> float:
        key = tuple(sorted(link_key))
        return float(sum(self.reservations_mbps.get(key, {}).values()))

    def link_headroom(self, link_key: tuple[str, str]) -> float:
        key = tuple(sorted(link_key))
        capacity = self.topology.link(*key).capacity_mbps
        return capacity - self.link_reservation(key)


class CloudController:
    """Reserves CPU cores for each slice's network service on its compute unit."""

    JOURNALED = ("reservations_cpus",)

    def __init__(self, topology: NetworkTopology):
        self.topology = topology
        self.reservations_cpus: dict[str, dict[str, float]] = {
            cu.name: {} for cu in topology.compute_units
        }

    def enforce(self, reservations: dict[str, dict[str, float]]) -> None:
        assign(self, "reservations_cpus", reservations)

    def clear(self) -> None:
        """Release every CPU reservation."""
        self.enforce({cu.name: {} for cu in self.topology.compute_units})

    def cu_reservation(self, compute_unit: str) -> float:
        return float(sum(self.reservations_cpus.get(compute_unit, {}).values()))

    def cu_headroom(self, compute_unit: str) -> float:
        capacity = self.topology.compute_unit(compute_unit).capacity_cpus
        return capacity - self.cu_reservation(compute_unit)


@dataclass
class ControllerSet:
    """The three domain controllers the orchestrator drives."""

    ran: RanController
    transport: TransportController
    cloud: CloudController
    #: Optional chaos hook, called with the hook-point name right before each
    #: domain apply (see repro.faults for the hook catalogue).  ``None`` in
    #: production; a :class:`repro.faults.FaultInjector` under test.
    fault_hook: "Callable[[str], None] | None" = None

    JOURNALED_PARTS = ("ran", "transport", "cloud")

    @classmethod
    def for_topology(cls, topology: NetworkTopology) -> "ControllerSet":
        return cls(
            ran=RanController(topology),
            transport=TransportController(topology),
            cloud=CloudController(topology),
        )

    def apply(self, problem: ACRRProblem, decision: OrchestrationDecision) -> None:
        """Enforce one orchestration decision across all three domains.

        All-or-nothing by construction: every domain's part is computed
        first (a fault hook fires before each), and only then do the three
        switch to it, in writes that cannot fail -- so the controllers
        never enforce half of a decision (e.g. RAN shares from the new
        decision with transport reservations from the previous one).
        """
        self._fire("controller.ran.apply")
        shares = self.ran.plan(decision)
        self._fire("controller.transport.apply")
        links = decision.transport_reservations_mbps(problem)
        self._fire("controller.cloud.apply")
        cpus = decision.compute_reservations_cpus(problem)
        self.ran.enforce(shares)
        self.transport.enforce(links)
        self.cloud.enforce(cpus)

    def _fire(self, hook: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(hook)

    def clear(self) -> None:
        """Release every reservation in every domain.

        Called by the orchestrator on an idle epoch (no active or pending
        slice): without it, the controllers would keep enforcing the last
        decision's reservations forever after the final slice expired.
        """
        self.ran.clear()
        self.transport.clear()
        self.cloud.clear()
