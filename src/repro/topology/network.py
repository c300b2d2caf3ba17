"""The end-to-end network topology: RAN + transport + compute domains."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.topology.elements import (
    BaseStation,
    ComputeUnit,
    DomainCapacities,
    TransportLink,
    TransportSwitch,
)


@dataclass
class NetworkTopology:
    """Container for the full data plane of one mobile operator.

    The topology holds the three resource domains of the paper:

    * base stations (radio domain, capacity ``C_b``),
    * transport links between base stations, switches and compute units
      (transport domain, capacity ``C_e``),
    * compute units (compute domain, capacity ``C_c``).

    It exposes the per-domain capacity snapshot consumed by the AC-RR problem
    builder; the path search reads it through
    :class:`repro.topology.paths.TransportAdjacency`.
    """

    name: str = "topology"
    _base_stations: dict[str, BaseStation] = field(default_factory=dict)
    _compute_units: dict[str, ComputeUnit] = field(default_factory=dict)
    _switches: dict[str, TransportSwitch] = field(default_factory=dict)
    _links: dict[tuple[str, str], TransportLink] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_base_station(self, bs: BaseStation) -> None:
        """Register a base station; names must be unique across all nodes."""
        self._ensure_new_node(bs.name)
        self._base_stations[bs.name] = bs

    def add_compute_unit(self, cu: ComputeUnit) -> None:
        """Register a compute unit (edge or core cloud)."""
        self._ensure_new_node(cu.name)
        self._compute_units[cu.name] = cu

    def add_switch(self, switch: TransportSwitch) -> None:
        """Register a transport switch/router."""
        self._ensure_new_node(switch.name)
        self._switches[switch.name] = switch

    def add_link(self, link: TransportLink) -> None:
        """Register an undirected transport link between two known nodes."""
        for endpoint in (link.endpoint_a, link.endpoint_b):
            if not self.has_node(endpoint):
                raise KeyError(
                    f"cannot add link {link.key}: unknown node {endpoint!r}"
                )
        if link.key in self._links:
            raise ValueError(f"duplicate link between {link.key}")
        self._links[link.key] = link

    def replace_link(self, link: TransportLink) -> None:
        """Swap an existing link for a new one between the same endpoints.

        Used by degraded-capacity ("link failure") scenario variants, which
        rescale the capacity of a sampled subset of links.  The link must
        already exist; adding new edges goes through :meth:`add_link` so the
        path-diversity structure of a generated topology cannot change
        silently.
        """
        if link.key not in self._links:
            raise KeyError(f"cannot replace unknown link {link.key}")
        self._links[link.key] = link

    def _ensure_new_node(self, name: str) -> None:
        if self.has_node(name):
            raise ValueError(f"duplicate node name {name!r}")

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def has_node(self, name: str) -> bool:
        return (
            name in self._base_stations
            or name in self._compute_units
            or name in self._switches
        )

    @property
    def base_stations(self) -> list[BaseStation]:
        return list(self._base_stations.values())

    @property
    def compute_units(self) -> list[ComputeUnit]:
        return list(self._compute_units.values())

    @property
    def switches(self) -> list[TransportSwitch]:
        return list(self._switches.values())

    @property
    def links(self) -> list[TransportLink]:
        return list(self._links.values())

    def base_station(self, name: str) -> BaseStation:
        return self._base_stations[name]

    def compute_unit(self, name: str) -> ComputeUnit:
        return self._compute_units[name]

    def link(self, endpoint_a: str, endpoint_b: str) -> TransportLink:
        key = tuple(sorted((endpoint_a, endpoint_b)))
        return self._links[key]  # type: ignore[index]

    @property
    def base_station_names(self) -> list[str]:
        return list(self._base_stations)

    @property
    def compute_unit_names(self) -> list[str]:
        return list(self._compute_units)

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def capacities(self) -> DomainCapacities:
        """Snapshot of per-domain capacities consumed by the AC-RR problem."""
        return DomainCapacities(
            radio_mhz={name: bs.capacity_mhz for name, bs in self._base_stations.items()},
            transport_mbps={key: link.capacity_mbps for key, link in self._links.items()},
            compute_cpus={name: cu.capacity_cpus for name, cu in self._compute_units.items()},
        )

    def validate(self) -> None:
        """Check structural invariants required by the orchestration problem.

        Every base station must be able to reach at least one compute unit,
        otherwise no slice could ever be admitted (constraint (6) requires a
        path from *every* BS).  Reachability follows the path search's rule:
        no path transits another base station.
        """
        from repro.topology.paths import TransportAdjacency

        if not self._base_stations:
            raise ValueError("topology has no base stations")
        if not self._compute_units:
            raise ValueError("topology has no compute units")
        adjacency = TransportAdjacency(self)
        cu_names = set(self._compute_units)
        for bs_name in self._base_stations:
            if not adjacency.reachable(bs_name) & cu_names:
                raise ValueError(
                    f"base station {bs_name!r} cannot reach any compute unit"
                )

    # ------------------------------------------------------------------ #
    # Summary statistics (used by Fig. 4 reproduction and docs)
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, float]:
        """Aggregate statistics mirroring the description in Section 4.3.1."""
        import numpy as np

        link_caps = [link.capacity_mbps for link in self._links.values()]
        link_lens = [link.length_km for link in self._links.values()]
        return {
            "num_base_stations": float(len(self._base_stations)),
            "num_compute_units": float(len(self._compute_units)),
            "num_switches": float(len(self._switches)),
            "num_links": float(len(self._links)),
            "total_radio_mhz": float(sum(b.capacity_mhz for b in self._base_stations.values())),
            "total_compute_cpus": float(sum(c.capacity_cpus for c in self._compute_units.values())),
            "mean_link_capacity_mbps": float(np.mean(link_caps)) if link_caps else 0.0,
            "max_link_capacity_mbps": float(np.max(link_caps)) if link_caps else 0.0,
            "min_link_capacity_mbps": float(np.min(link_caps)) if link_caps else 0.0,
            "mean_link_length_km": float(np.mean(link_lens)) if link_lens else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"NetworkTopology(name={self.name!r}, base_stations={len(self._base_stations)}, "
            f"switches={len(self._switches)}, compute_units={len(self._compute_units)}, "
            f"links={len(self._links)})"
        )
