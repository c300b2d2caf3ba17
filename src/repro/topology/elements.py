"""Physical elements of the mobile system data plane.

Capacities follow the notation of Section 2.1.2 of the paper:

* ``C_b`` -- radio capacity of a base station, in MHz of spectrum (the paper
  uses 20 MHz channels equal to 100 physical resource blocks).
* ``C_e`` -- transport link capacity, in Mb/s.
* ``C_c`` -- compute-unit capacity, in CPU cores (shares of the aggregated
  CPU pool).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from repro.utils.validation import ensure_non_negative, ensure_positive

#: LTE numerology: a 20 MHz carrier contains 100 physical resource blocks.
PRBS_PER_MHZ = 5.0


class LinkTechnology(str, enum.Enum):
    """Transport link technology, which drives capacity and propagation delay.

    The three operator networks in the paper mix fiber, copper and wireless
    backhaul links (Section 4.3.1); the technology determines the per-km
    propagation delay used by the store-and-forward delay model.
    """

    FIBER = "fiber"
    COPPER = "copper"
    WIRELESS = "wireless"

    @property
    def propagation_us_per_km(self) -> float:
        """Per-kilometre propagation delay in microseconds (footnote 11)."""
        if self is LinkTechnology.WIRELESS:
            return 5.0
        return 4.0


class ComputeUnitKind(str, enum.Enum):
    """Whether a compute unit sits at the network edge or in the core cloud."""

    EDGE = "edge"
    CORE = "core"


@dataclass(frozen=True)
class BaseStation:
    """A (possibly sliced) base station of the radio access network.

    Attributes
    ----------
    name:
        Unique identifier within the topology.
    capacity_mhz:
        Radio capacity ``C_b`` in MHz of spectrum.
    position_km:
        Planar coordinates in kilometres, used to derive link lengths.
    spectral_efficiency_mbps_per_mhz:
        Achievable throughput per MHz under the assumed channel conditions.
        The paper assumes ideal 2x2 MIMO conditions giving 150 Mb/s over a
        20 MHz channel, i.e. 7.5 Mb/s per MHz (so that eta_b = 20/150 MHz per
        Mb/s).
    """

    name: str
    capacity_mhz: float
    position_km: tuple[float, float] = (0.0, 0.0)
    spectral_efficiency_mbps_per_mhz: float = 7.5

    def __post_init__(self) -> None:
        ensure_positive(self.capacity_mhz, "capacity_mhz")
        ensure_positive(
            self.spectral_efficiency_mbps_per_mhz, "spectral_efficiency_mbps_per_mhz"
        )

    @property
    def capacity_mbps(self) -> float:
        """Maximum aggregate throughput of the BS in Mb/s."""
        return self.capacity_mhz * self.spectral_efficiency_mbps_per_mhz

    @property
    def capacity_prbs(self) -> float:
        """Radio capacity expressed in LTE physical resource blocks (PRBs)."""
        return self.capacity_mhz * PRBS_PER_MHZ

    def mhz_for_bitrate(self, mbps: float) -> float:
        """Spectrum (MHz) needed to carry ``mbps`` of traffic (eta_{tau,b})."""
        ensure_non_negative(mbps, "mbps")
        return mbps / self.spectral_efficiency_mbps_per_mhz


@dataclass(frozen=True)
class ComputeUnit:
    """A compute unit (CU): an edge or core cloud with a pool of CPU cores."""

    name: str
    capacity_cpus: float
    kind: ComputeUnitKind = ComputeUnitKind.EDGE
    position_km: tuple[float, float] = (0.0, 0.0)
    # Extra one-way latency to reach the CU beyond the transport path itself
    # (the paper emulates the core CU behind a 20 ms backhaul link).
    access_latency_ms: float = 0.0

    def __post_init__(self) -> None:
        ensure_positive(self.capacity_cpus, "capacity_cpus")
        ensure_non_negative(self.access_latency_ms, "access_latency_ms")


@dataclass(frozen=True)
class TransportSwitch:
    """A transport-network switch/router (black dots in Fig. 4)."""

    name: str
    position_km: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class TransportLink:
    """An undirected transport link ``e`` between two data-plane nodes.

    Attributes
    ----------
    endpoint_a, endpoint_b:
        Names of the two nodes the link connects (base stations, switches or
        compute units).
    capacity_mbps:
        Link capacity ``C_e`` in Mb/s.
    length_km:
        Physical length, used by the propagation-delay model.
    technology:
        Fiber / copper / wireless; determines per-km propagation delay.
    overhead:
        Transport protocol overhead factor ``eta_e`` (VLAN/MPLS/GTP framing).
        A value of 1.05 means each service bit consumes 1.05 bits on the link.
    """

    endpoint_a: str
    endpoint_b: str
    capacity_mbps: float
    length_km: float = 1.0
    technology: LinkTechnology = LinkTechnology.FIBER
    overhead: float = 1.0

    def __post_init__(self) -> None:
        ensure_positive(self.capacity_mbps, "capacity_mbps")
        ensure_non_negative(self.length_km, "length_km")
        if self.overhead < 1.0:
            raise ValueError(f"overhead must be >= 1.0, got {self.overhead}")
        if self.endpoint_a == self.endpoint_b:
            raise ValueError("a link cannot connect a node to itself")

    @cached_property
    def key(self) -> tuple[str, str]:
        """Canonical (sorted) endpoint pair identifying the undirected link.

        Read per link per epoch by the controllers and the data plane, so
        built once.  The link is frozen, so the cached pair cannot go stale;
        equality, hash and repr stay the fields'."""
        return tuple(sorted((self.endpoint_a, self.endpoint_b)))  # type: ignore[return-value]


@dataclass
class DomainCapacities:
    """Snapshot of the capacities of every resource in the system.

    Convenience container consumed by the AC-RR problem builder; it decouples
    the optimisation layer from the topology object so that tests can build
    tiny hand-crafted instances.
    """

    radio_mhz: dict[str, float] = field(default_factory=dict)
    transport_mbps: dict[tuple[str, str], float] = field(default_factory=dict)
    compute_cpus: dict[str, float] = field(default_factory=dict)
