"""Work-conserving statistical multiplexing of admitted slices.

Overbooking is profitable because reserved-but-unused capacity is not wasted:
the data plane is work-conserving, so a slice whose instantaneous load
exceeds its reservation is still served as long as the *aggregate* load on
every resource it traverses fits the physical capacity.  Only when a
resource saturates does the rate-control middlebox clamp the overbooked
slices back towards their reservations -- and only those slices: traffic
within a slice's reservation is always protected (that is the isolation
guarantee the reservation encodes).

This module computes, for the monitoring samples of one epoch, how much of
each slice's SLA-conformant traffic could not be served.  That quantity
drives both the SLA-violation statistics ("% of samples affected", "share of
traffic dropped") and the penalty charged to the operator.

The implementation is vectorized over the whole sample axis (see DESIGN.md,
"Vectorized data plane"): offered loads are stacked into one
``(num_keys, num_samples)`` array, the per-resource membership (which keys
load each radio / transport / compute resource, with which multiplier) is
compiled once per epoch into flat row / key / multiplier arrays, per-resource
demand is one weighted ``bincount`` over them, and the overload attribution
runs on whole sample vectors at once, for the overloaded resources only.  All
member-axis reductions accumulate sequentially in membership order, so the
results are bit-for-bit identical to the straight-line per-sample formulation
(kept as a reference implementation in
``tests/property/test_multiplexer_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.solution import TenantAllocation
from repro.topology.network import NetworkTopology

_EPSILON = 1e-12


@dataclass(frozen=True)
class ResourceLoadResult:
    """Unserved traffic per (slice, base station) for one epoch of samples."""

    unserved_mbps: dict[tuple[str, str], np.ndarray]
    overloaded_resources: tuple[str, ...]

    def total_unserved(self) -> float:
        return float(sum(arr.sum() for arr in self.unserved_mbps.values()))


@dataclass(frozen=True)
class _ResourceMembership:
    """Membership of every resource, compiled once per epoch.

    Entry ``i`` says that one Mb/s of key ``keys[i]``'s traffic consumes
    ``multipliers[i]`` units of resource ``rows[i]`` (1 for radio, the link
    overhead for transport, CPUs-per-Mb/s for compute).  A resource's entries
    appear in key order, so accumulating them in storage order adds its
    members in membership order.  ``base`` holds the load-independent demand
    (baseline CPUs) and ``capacity`` the physical capacity per row; rows are
    the radio resources, then the transport links, then the compute units.
    """

    rows: np.ndarray
    keys: np.ndarray
    multipliers: np.ndarray
    base: np.ndarray
    capacity: np.ndarray
    radio: tuple[str, ...]
    links: tuple[tuple[str, str], ...]
    compute: tuple[str, ...]

    def demand(self, loads: np.ndarray) -> np.ndarray:
        """``base[r] + sum_i multipliers[i] * loads[keys[i]]`` over the row's entries.

        ``bincount`` adds its weights one by one in index order, from 0 --
        the sequential sum of a sparse row times the sample matrix.
        """
        num_rows = len(self.base)
        num_samples = loads.shape[1]
        slots = (self.rows[:, np.newaxis] * num_samples + np.arange(num_samples)).ravel()
        weights = (self.multipliers[:, np.newaxis] * loads.take(self.keys, axis=0)).ravel()
        load = np.bincount(slots, weights=weights, minlength=num_rows * num_samples)
        return self.base[:, np.newaxis] + load.reshape(num_rows, num_samples)

    def members(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """(member key indices, multipliers) of one resource row, in key order."""
        entries = np.flatnonzero(self.rows == row)
        return self.keys[entries], self.multipliers[entries]

    def label(self, row: int) -> str:
        """The resource's name: ``radio:<bs>``, ``transport:<a>--<b>``, ``compute:<cu>``."""
        if row < len(self.radio):
            return f"radio:{self.radio[row]}"
        row -= len(self.radio)
        if row < len(self.links):
            a, b = self.links[row]
            return f"transport:{a}--{b}"
        return f"compute:{self.compute[row - len(self.links)]}"


class SliceMultiplexer:
    """Shares physical capacity among admitted slices, protecting reservations."""

    def __init__(
        self,
        topology: NetworkTopology,
        allocations: dict[str, TenantAllocation],
    ):
        self.topology = topology
        self.allocations = {
            name: alloc for name, alloc in allocations.items() if alloc.accepted
        }

    # ------------------------------------------------------------------ #
    def unserved_traffic(
        self, offered_samples_mbps: dict[tuple[str, str], np.ndarray]
    ) -> ResourceLoadResult:
        """Compute per-(slice, BS) unserved traffic for one epoch.

        ``offered_samples_mbps`` holds the SLA-conformant offered load samples
        per (slice name, base station).  The returned arrays have the same
        shape; entry ``i`` is how much of sample ``i`` could not be served
        because some resource along the slice's path was saturated.
        """
        keys = list(offered_samples_mbps.keys())
        if not keys:
            return ResourceLoadResult(unserved_mbps={}, overloaded_resources=())

        # Stack the offered loads into one (num_keys, num_samples) matrix;
        # each key's samples are converted to float64 exactly once.
        loads = np.array([offered_samples_mbps[key] for key in keys], dtype=float)
        num_keys, num_samples = loads.shape

        membership, reservations = self._membership(keys)
        overload = membership.demand(loads) - membership.capacity[:, np.newaxis]
        hot = overload > _EPSILON

        unserved = np.zeros((num_keys, num_samples))
        overloaded: list[str] = []
        for row in np.flatnonzero(hot.any(axis=1)).tolist():
            overloaded.append(membership.label(row))
            member_idx, multipliers = membership.members(row)
            cols = np.flatnonzero(hot[row])
            shortfall = _attribute_overload(
                overload[row, cols],
                loads[np.ix_(member_idx, cols)],
                reservations[member_idx][:, np.newaxis],
                multipliers[:, np.newaxis],
            )
            # Bottleneck-max semantics: a slice crossing several saturated
            # resources loses the max of the per-resource shortfalls.
            target = unserved[np.ix_(member_idx, cols)]
            unserved[np.ix_(member_idx, cols)] = np.maximum(target, shortfall)

        return ResourceLoadResult(
            unserved_mbps=dict(zip(keys, unserved)),
            overloaded_resources=tuple(sorted(overloaded)),
        )

    # ------------------------------------------------------------------ #
    # Resource membership table
    # ------------------------------------------------------------------ #
    def _membership(self, keys) -> tuple[_ResourceMembership, np.ndarray]:
        """Compile the resource table for one epoch, and each key's reservation.

        Rows are numbered per domain in order of first use by ``keys``.  One
        pass over the keys records, per served key, its radio row, its path
        and its compute row; a path's link rows and overheads are gathered
        once however many keys share it (within this call: nothing is kept
        between epochs).  The entries are then laid out key by key as flat
        arrays.  Capacities are read from the topology on every call, since
        a link failure rescales them between epochs.
        """
        radio_rows: dict[str, int] = {}
        link_rows: dict[tuple[str, str], int] = {}
        compute_rows: dict[str, int] = {}
        # Per distinct path (by identity, for this call): its link rows and
        # the overhead per row, in path order; a link listed twice adds its
        # overhead twice.
        path_slots: dict[int, int] = {}
        path_rows: list[list[int]] = []
        path_overheads: list[list[float]] = []
        # Per served key, in key order: its reservation, radio row, link
        # entries (laid end to end), compute row and compute multipliers.
        served: list[int] = []
        reserved_mbps: list[float] = []
        radio: list[int] = []
        links: list[int] = []
        overheads: list[float] = []
        hops: list[int] = []
        compute: list[int] = []
        multiplier: list[float] = []
        baseline: list[float] = []
        last_name = allocation = None
        for k, (name, bs) in enumerate(keys):
            if name != last_name:
                last_name = name
                allocation = self.allocations.get(name)
                if allocation is None:
                    continue
                paths = allocation.paths
                reserved = allocation.reservations_mbps
                unit = None
                cpus_per_mbps = allocation.request.compute_cpus_per_mbps
                baseline_cpus = allocation.request.compute_baseline_cpus
            elif allocation is None:
                continue
            path = paths.get(bs)
            if path is None:
                continue
            slot = path_slots.get(id(path))
            if slot is None:
                slot = path_slots[id(path)] = len(path_rows)
                hop_rows: list[int] = []
                hop_overheads: list[float] = []
                for link in path.links:
                    row = link_rows.setdefault(link.key, len(link_rows))
                    if row in hop_rows:
                        at = hop_rows.index(row)
                        hop_overheads[at] = hop_overheads[at] + link.overhead
                    else:
                        hop_rows.append(row)
                        hop_overheads.append(link.overhead)
                path_rows.append(hop_rows)
                path_overheads.append(hop_overheads)
            if unit is None:
                unit = compute_rows.setdefault(allocation.compute_unit, len(compute_rows))
            served.append(k)
            reserved_mbps.append(reserved.get(bs, 0.0))
            radio.append(radio_rows.setdefault(bs, len(radio_rows)))
            links += path_rows[slot]
            overheads += path_overheads[slot]
            hops.append(len(path_rows[slot]))
            compute.append(unit)
            multiplier.append(cpus_per_mbps)
            baseline.append(baseline_cpus)

        # Radio entries, then link entries, then compute entries, each block
        # key by key: every row's entries come from one block, in key order.
        num_radio, num_links = len(radio_rows), len(link_rows)
        num_rows = num_radio + num_links + len(compute_rows)
        first_link, first_compute = len(radio), len(radio) + len(links)
        rows = np.array(radio + links + compute, dtype=np.intp)
        rows[first_link:first_compute] += num_radio
        rows[first_compute:] += num_radio + num_links
        served_keys = np.array(served, dtype=np.intp)
        members = np.concatenate((served_keys, np.repeat(served_keys, hops), served_keys))
        multipliers = np.array([1.0] * len(served) + overheads + multiplier, dtype=float)
        # Baseline CPUs per compute unit, summed in key order from 0.
        base = np.bincount(rows[first_compute:], weights=baseline, minlength=num_rows)
        # Only member keys' reservations are ever read.
        reservations = np.zeros(len(keys))
        reservations[served_keys] = reserved_mbps

        topology = self.topology
        capacity = np.array(
            [topology.base_station(bs).capacity_mbps for bs in radio_rows]
            + [topology.link(*key).capacity_mbps for key in link_rows]
            + [topology.compute_unit(cu).capacity_cpus for cu in compute_rows]
        )
        membership = _ResourceMembership(
            rows=rows,
            keys=members,
            multipliers=multipliers,
            base=base,
            capacity=capacity,
            radio=tuple(radio_rows),
            links=tuple(link_rows),
            compute=tuple(compute_rows),
        )
        return membership, reservations


def _attribute_overload(
    overload: np.ndarray,
    loads: np.ndarray,
    reservations: np.ndarray,
    multipliers: np.ndarray,
) -> np.ndarray:
    """Split one resource's overload among the slices exceeding their reservation.

    Vectorized over the sample axis: ``overload`` has shape ``(num_hot,)`` and
    ``loads`` ``(num_members, num_hot)``; returns the per-member shortfall in
    the slice's own traffic units (Mb/s of its conformant demand), clipped to
    its demand.  Slices at or below their reservation are protected; if the
    protected traffic alone exceeds capacity (only possible under the big-M
    deficit relaxation), the remainder is shared proportionally to demand.

    Member-axis sums accumulate sequentially so the arithmetic matches the
    scalar formulation operation for operation.
    """
    multipliers_safe = np.maximum(multipliers, _EPSILON)

    # Overload measured in resource units; convert slice excess into resource
    # units via its multiplier.
    excess_units = np.maximum(0.0, loads - reservations) * multipliers_safe
    total_excess = _sequential_sum(excess_units)
    shortfall = np.zeros_like(loads)

    proportional = total_excess > _EPSILON
    absorbed = np.minimum(overload, total_excess)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = absorbed * (excess_units / total_excess)
    np.copyto(shortfall, share / multipliers_safe, where=proportional)
    remaining = np.where(proportional, overload - absorbed, overload)

    spill = remaining > _EPSILON
    if spill.any():
        demand_units = loads * multipliers_safe
        total_demand = _sequential_sum(demand_units)
        spill &= total_demand > _EPSILON
        with np.errstate(divide="ignore", invalid="ignore"):
            extra = remaining * (demand_units / total_demand)
        shortfall = np.where(spill, shortfall + extra / multipliers_safe, shortfall)

    # A slice can never lose more traffic than it offered, and a non-positive
    # shortfall leaves the sample untouched.
    return np.maximum(np.minimum(shortfall, loads), 0.0)


def _sequential_sum(matrix: np.ndarray) -> np.ndarray:
    """Sum over the member axis in order, matching ``sum()`` of scalars.

    ``np.sum`` may use pairwise accumulation, which changes the floating-point
    rounding relative to the scalar reference; an explicit left-to-right fold
    keeps the two implementations bit-for-bit identical.
    """
    total = np.zeros(matrix.shape[1])
    for row in matrix:
        total += row
    return total
