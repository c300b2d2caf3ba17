"""Domain controllers: RAN, transport and cloud.

The E2E orchestrator never touches data-plane elements directly; it pushes
per-slice reservations to one controller per domain (Fig. 2), which translate
them into domain-specific artefacts -- PRB shares on base stations, per-link
bandwidth allocations on the SDN transport, CPU reservations on the compute
units -- exactly as the paper's prototype does with proprietary BS interfaces,
Floodlight flow rules and OpenStack Heat templates.  The controllers are
stateless between epochs apart from the currently enforced reservation, and
they expose the utilisation numbers the monitoring block collects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.problem import ACRRProblem
from repro.core.solution import OrchestrationDecision
from repro.radio.ran_sharing import RanSlicingEnforcer
from repro.topology.network import NetworkTopology


class RanController:
    """Grants PRB shares of every base station to the admitted slices."""

    def __init__(self, topology: NetworkTopology):
        self.topology = topology
        self.enforcers: dict[str, RanSlicingEnforcer] = {
            bs.name: RanSlicingEnforcer(bs) for bs in topology.base_stations
        }

    def apply(self, problem: ACRRProblem, decision: OrchestrationDecision) -> None:
        """Replace the current PRB shares with the new decision's reservations.

        The previous epoch's shares are released first: a re-orchestration can
        move capacity between slices, and granting the new shares on top of
        the stale ones could transiently exceed the carrier size even though
        the final allocation is feasible.
        """
        self.clear()
        for bs_name, enforcer in self.enforcers.items():
            for slice_name, alloc in decision.allocations.items():
                if not alloc.accepted:
                    continue
                mbps = alloc.reservations_mbps.get(bs_name)
                if mbps is None:
                    continue
                # Under the big-M deficit relaxation (Section 3.4) the decision
                # may nominally exceed the carrier; the base station can only
                # grant what physically exists, so clamp to the remaining PRBs.
                grantable_mbps = enforcer.bitrate_for_prbs(max(0.0, enforcer.free_prbs))
                enforcer.grant_bitrate(slice_name, min(mbps, grantable_mbps))

    def clear(self) -> None:
        """Revoke every PRB share (no slice is entitled to radio resources)."""
        for enforcer in self.enforcers.values():
            for slice_name in list(enforcer.shares()):
                enforcer.revoke(slice_name)

    def served_bitrate(self, base_station: str, slice_name: str, offered_mbps: float) -> float:
        """Traffic the air interface actually carries for a slice at one BS."""
        return self.enforcers[base_station].served_bitrate(slice_name, offered_mbps)

    def shares(self, base_station: str) -> dict[str, float]:
        """Current PRB share per slice at one base station."""
        return {
            name: share.prbs
            for name, share in self.enforcers[base_station].shares().items()
        }

    def snapshot(self) -> dict:
        """Per-BS granted shares (RadioShare objects are immutable)."""
        return {name: enforcer.shares() for name, enforcer in self.enforcers.items()}

    def restore(self, snapshot: dict) -> None:
        """Re-grant exactly the shares of a :meth:`snapshot`."""
        for name, enforcer in self.enforcers.items():
            enforcer._shares = dict(snapshot.get(name, {}))


class TransportController:
    """Programs per-slice bandwidth on every transport link (SDN paths)."""

    def __init__(self, topology: NetworkTopology):
        self.topology = topology
        self.reservations_mbps: dict[tuple[str, str], dict[str, float]] = {
            link.key: {} for link in topology.links
        }

    def apply(self, problem: ACRRProblem, decision: OrchestrationDecision) -> None:
        self.reservations_mbps = decision.transport_reservations_mbps(problem)

    def clear(self) -> None:
        """Tear down every per-link bandwidth reservation."""
        self.reservations_mbps = {link.key: {} for link in self.topology.links}

    def snapshot(self) -> dict:
        return {key: dict(slices) for key, slices in self.reservations_mbps.items()}

    def restore(self, snapshot: dict) -> None:
        self.reservations_mbps = {key: dict(slices) for key, slices in snapshot.items()}

    def link_reservation(self, link_key: tuple[str, str]) -> float:
        key = tuple(sorted(link_key))
        return float(sum(self.reservations_mbps.get(key, {}).values()))

    def link_headroom(self, link_key: tuple[str, str]) -> float:
        key = tuple(sorted(link_key))
        capacity = self.topology.link(*key).capacity_mbps
        return capacity - self.link_reservation(key)


class CloudController:
    """Reserves CPU cores for each slice's network service on its compute unit."""

    def __init__(self, topology: NetworkTopology):
        self.topology = topology
        self.reservations_cpus: dict[str, dict[str, float]] = {
            cu.name: {} for cu in topology.compute_units
        }

    def apply(self, problem: ACRRProblem, decision: OrchestrationDecision) -> None:
        self.reservations_cpus = decision.compute_reservations_cpus(problem)

    def clear(self) -> None:
        """Release every CPU reservation."""
        self.reservations_cpus = {cu.name: {} for cu in self.topology.compute_units}

    def snapshot(self) -> dict:
        return {name: dict(slices) for name, slices in self.reservations_cpus.items()}

    def restore(self, snapshot: dict) -> None:
        self.reservations_cpus = {name: dict(slices) for name, slices in snapshot.items()}

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

    @classmethod
    def for_topology(cls, topology: NetworkTopology) -> "ControllerSet":
        return cls(
            ran=RanController(topology),
            transport=TransportController(topology),
            cloud=CloudController(topology),
        )

    def snapshot(self) -> dict:
        """Capture the enforced reservations of all three domains."""
        return {
            "ran": self.ran.snapshot(),
            "transport": self.transport.snapshot(),
            "cloud": self.cloud.snapshot(),
        }

    def restore(self, snapshot: dict) -> None:
        """Reset all three domains to a :meth:`snapshot` taken earlier."""
        self.ran.restore(snapshot["ran"])
        self.transport.restore(snapshot["transport"])
        self.cloud.restore(snapshot["cloud"])

    def apply(self, problem: ACRRProblem, decision: OrchestrationDecision) -> None:
        """Enforce one orchestration decision across all three domains.

        All-or-nothing: if any domain apply raises, the domains that already
        applied are rolled back to their pre-call reservations before the
        exception propagates, so the controllers never enforce half of a
        decision (e.g. RAN shares from the new decision with transport
        reservations from the previous one).
        """
        before = self.snapshot()
        try:
            self._fire("controller.ran.apply")
            self.ran.apply(problem, decision)
            self._fire("controller.transport.apply")
            self.transport.apply(problem, decision)
            self._fire("controller.cloud.apply")
            self.cloud.apply(problem, decision)
        except BaseException:
            self.restore(before)
            raise

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
