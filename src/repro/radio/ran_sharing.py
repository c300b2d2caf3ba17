"""RAN slicing enforcement: allocating PRB shares of a base station to slices.

The paper's testbed uses commercial base stations whose proprietary interface
grants shares of physical resource blocks (PRBs) to different mobile networks
(one PLMN-id per slice).  This module reproduces that behaviour for the
simulated data plane: the RAN controller converts the orchestrator's bitrate
reservations into PRB shares through the base station's own spectral
efficiency (the eta_b the solver reserved with), and the enforcer verifies
they fit into the carrier and computes the per-slice radio utilisation shown
in Fig. 8(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.topology.elements import PRBS_PER_MHZ, BaseStation
from repro.utils.validation import ensure_non_negative


@dataclass(frozen=True)
class RadioShare:
    """A PRB share granted to one slice on one base station."""

    slice_name: str
    base_station: str
    prbs: float

    def __post_init__(self) -> None:
        ensure_non_negative(self.prbs, "prbs")


@dataclass
class RanSlicingEnforcer:
    """Tracks per-slice PRB shares of one base station and enforces capacity.

    Mirrors the base-station-local behaviour: the sum of the granted shares
    can never exceed the carrier size, and traffic beyond a slice's share is
    reported as radio-limited.
    """

    base_station: BaseStation
    _shares: dict[str, RadioShare] = field(default_factory=dict)
    #: ``sum`` of the granted shares, kept as a running total: ``sum`` adds
    #: them in grant order from 0, so granting a new slice extends it to the
    #: same float; updating a slice's share re-sums.
    _allocated: float = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._allocated = sum(share.prbs for share in self._shares.values())

    @property
    def capacity_prbs(self) -> float:
        return self.base_station.capacity_prbs

    @property
    def allocated_prbs(self) -> float:
        return self._allocated

    @property
    def free_prbs(self) -> float:
        return self.base_station.capacity_prbs - self.allocated_prbs

    def shares(self) -> dict[str, RadioShare]:
        return dict(self._shares)

    def prbs_for_bitrate(self, mbps: float) -> float:
        """Physical resource blocks needed to carry ``mbps`` of traffic."""
        return self.base_station.mhz_for_bitrate(mbps) * PRBS_PER_MHZ

    def bitrate_for_prbs(self, prbs: float) -> float:
        """Traffic (Mb/s) that ``prbs`` physical resource blocks carry."""
        return prbs / PRBS_PER_MHZ * self.base_station.spectral_efficiency_mbps_per_mhz

    def grant_bitrate(self, slice_name: str, mbps: float) -> RadioShare:
        """Grant (or update) a slice's share sized for ``mbps`` of traffic.

        Raises ``ValueError`` when the requested share does not fit in the
        remaining carrier capacity; the orchestrator's admission control is
        responsible for never issuing such a grant.
        """
        station = self.base_station
        prbs = self.prbs_for_bitrate(mbps)
        currently = self._shares.get(slice_name)
        available = station.capacity_prbs - self._allocated + (currently.prbs if currently else 0.0)
        if prbs > available + 1e-9:
            raise ValueError(
                f"cannot grant {prbs:.1f} PRBs to {slice_name!r} on "
                f"{station.name!r}: only {available:.1f} PRBs available"
            )
        share = RadioShare(slice_name, station.name, prbs)
        self._shares[slice_name] = share
        if currently is None:
            self._allocated = self._allocated + prbs
        else:
            self._allocated = sum(granted.prbs for granted in self._shares.values())
        return share

    def served_bitrate(self, slice_name: str, offered_mbps: float) -> float:
        """Traffic actually carried over the air for a slice.

        The air interface cannot exceed the granted share, so the served
        traffic is the offered load clipped to the share's bitrate.
        """
        ensure_non_negative(offered_mbps, "offered_mbps")
        share = self._shares.get(slice_name)
        if share is None:
            return 0.0
        return min(offered_mbps, self.bitrate_for_prbs(share.prbs))

    def utilisation(self, offered_mbps: dict[str, float]) -> dict[str, float]:
        """Per-slice PRB usage given each slice's offered load (Fig. 8(b))."""
        usage: dict[str, float] = {}
        for slice_name in self._shares:
            served = self.served_bitrate(slice_name, offered_mbps.get(slice_name, 0.0))
            usage[slice_name] = self.prbs_for_bitrate(served)
        return usage
