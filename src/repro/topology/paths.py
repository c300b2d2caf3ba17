"""Candidate path enumeration between base stations and compute units.

Section 2.1.2 of the paper pre-computes, for every base station ``b`` and
compute unit ``c``, a set ``P_{b,c}`` of candidate paths using k-shortest-path
methods based on Dijkstra's algorithm.  Each path is characterised by a delay
``D_p`` (store-and-forward model of :mod:`repro.topology.delay`) and, in this
implementation, also by a bottleneck capacity used by Fig. 4(d).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Mapping

import networkx as nx
import numpy as np

from repro.topology.delay import link_delay_us
from repro.topology.elements import TransportLink
from repro.topology.network import NetworkTopology


@dataclass(frozen=True)
class Path:
    """A candidate path ``p`` between one base station and one compute unit."""

    base_station: str
    compute_unit: str
    nodes: tuple[str, ...]
    links: tuple[TransportLink, ...]
    delay_us: float
    capacity_mbps: float

    @property
    def delay_ms(self) -> float:
        return self.delay_us / 1000.0


@dataclass(frozen=True, eq=False)
class PathTable:
    """A :class:`PathSet` as columns: what its immutable paths fix, as arrays.

    Row ``p`` is the ``p``-th path in :meth:`PathSet.items` order (pair by
    pair, each pair's paths in rank order).  Names are interned per table
    (``base_stations[base_station[p]]`` is the path's BS) so a problem build
    maps each *distinct* element to its row in the (mutable) topology once
    and gathers; capacities are deliberately not here.  A link a path lists
    more than once appears once, with its multiplicity in ``link_count``.
    """

    paths: tuple[Path, ...]
    delay_ms: np.ndarray
    #: Flat index of the first path of each path's (BS, CU) pair.
    pair_start: np.ndarray
    base_stations: tuple[str, ...]
    base_station: np.ndarray
    compute_units: tuple[str, ...]
    compute_unit: np.ndarray
    link_keys: tuple[tuple[str, str], ...]
    #: CSR over paths of indices into ``link_keys`` (first-seen order).
    link_indptr: np.ndarray
    link: np.ndarray
    link_count: np.ndarray
    #: Largest protocol overhead along the path (1.0 for a link-less path).
    max_overhead: np.ndarray


def _build_path_table(pairs: Mapping[tuple[str, str], list[Path]]) -> PathTable:
    paths: list[Path] = []
    pair_start: list[int] = []
    base_stations: dict[str, int] = {}
    compute_units: dict[str, int] = {}
    link_keys: dict[tuple[str, str], int] = {}
    base_station: list[int] = []
    compute_unit: list[int] = []
    link_indptr = [0]
    link: list[int] = []
    link_count: list[int] = []
    for members in pairs.values():
        first = len(paths)
        for path in members:
            paths.append(path)
            pair_start.append(first)
            base_station.append(base_stations.setdefault(path.base_station, len(base_stations)))
            compute_unit.append(compute_units.setdefault(path.compute_unit, len(compute_units)))
            multiplicity: dict[int, int] = {}
            for hop in path.links:
                index = link_keys.setdefault(hop.key, len(link_keys))
                multiplicity[index] = multiplicity.get(index, 0) + 1
            link.extend(multiplicity)
            link_count.extend(multiplicity.values())
            link_indptr.append(len(link))
    return PathTable(
        paths=tuple(paths),
        delay_ms=np.array([path.delay_ms for path in paths], dtype=float),
        pair_start=np.array(pair_start, dtype=np.intp),
        base_stations=tuple(base_stations),
        base_station=np.array(base_station, dtype=np.intp),
        compute_units=tuple(compute_units),
        compute_unit=np.array(compute_unit, dtype=np.intp),
        link_keys=tuple(link_keys),
        link_indptr=np.array(link_indptr, dtype=np.intp),
        link=np.array(link, dtype=np.intp),
        link_count=np.array(link_count, dtype=np.intp),
        max_overhead=np.array(
            [max((hop.overhead for hop in path.links), default=1.0) for path in paths],
            dtype=float,
        ),
    )


class PathSet:
    """All candidate paths of a topology, indexed by (base station, CU).

    This is the ``P_{b,c}`` family of the paper.  The AC-RR problem builder
    reads it through :meth:`table` to create one decision variable per
    (tenant, path) pair.
    """

    def __init__(self, paths: Mapping[tuple[str, str], list[Path]]):
        self._paths: dict[tuple[str, str], list[Path]] = {
            key: list(value) for key, value in paths.items()
        }
        self._table: PathTable | None = None

    def table(self) -> PathTable:
        """The paths as a :class:`PathTable`, built on first use.

        A path set never changes after construction, so the table is built
        once and kept.  Building is idempotent and the result is published
        with one attribute store: two threads that race here both build an
        equal table and either store is a complete one.
        """
        table = self._table
        if table is None:
            table = self._table = _build_path_table(self._paths)
        return table

    def paths(self, base_station: str, compute_unit: str) -> list[Path]:
        """Candidate paths between one BS and one CU (may be empty)."""
        return list(self._paths.get((base_station, compute_unit), []))

    def items(self) -> list[tuple[tuple[str, str], list[Path]]]:
        return [(key, list(value)) for key, value in self._paths.items()]

    def all_paths(self) -> list[Path]:
        """Flat list of every candidate path in the topology."""
        return [path for paths in self._paths.values() for path in paths]

    def mean_paths_per_pair(self) -> float:
        """Mean path redundancy (the paper reports 6.6 for N1 and 1.6 for N3)."""
        if not self._paths:
            return 0.0
        counts = [len(paths) for paths in self._paths.values()]
        return sum(counts) / len(counts)

    def __len__(self) -> int:
        return sum(len(paths) for paths in self._paths.values())


def _build_path(
    topology: NetworkTopology, bs_name: str, cu_name: str, node_sequence: list[str]
) -> Path:
    links = tuple(topology.links_between(node_sequence))
    cu = topology.compute_unit(cu_name)
    delay = sum(link_delay_us(link) for link in links) + cu.access_latency_ms * 1000.0
    capacity = min(link.capacity_mbps for link in links)
    return Path(
        base_station=bs_name,
        compute_unit=cu_name,
        nodes=tuple(node_sequence),
        links=links,
        delay_us=delay,
        capacity_mbps=capacity,
    )


def k_shortest_paths(
    topology: NetworkTopology,
    base_station: str,
    compute_unit: str,
    k: int,
) -> list[Path]:
    """Compute up to ``k`` loop-free shortest paths between a BS and a CU.

    Paths are ranked by total store-and-forward delay.  Returns an empty list
    when the two nodes are disconnected.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    g = topology.graph()
    if base_station not in g or compute_unit not in g:
        raise KeyError("both endpoints must exist in the topology")
    # Transport paths terminate at radio sites but never transit through
    # them: remove every other base station from the search graph so that a
    # dual-homed cell cannot act as a relay between aggregation switches.
    other_base_stations = [
        name
        for name, data in g.nodes(data=True)
        if data.get("kind") == "bs" and name != base_station
    ]
    g.remove_nodes_from(other_base_stations)

    def edge_weight(u: str, v: str, _data: dict) -> float:
        return link_delay_us(topology.link(u, v))

    try:
        generator = nx.shortest_simple_paths(
            g, base_station, compute_unit, weight=edge_weight
        )
        node_sequences = list(islice(generator, k))
    except nx.NetworkXNoPath:
        return []
    return [
        _build_path(topology, base_station, compute_unit, sequence)
        for sequence in node_sequences
    ]


def compute_path_sets(topology: NetworkTopology, k: int = 4) -> PathSet:
    """Enumerate candidate paths for every (base station, compute unit) pair.

    This is the offline pre-computation step described in Section 2.1.2; the
    result is reused across decision epochs.
    """
    paths: dict[tuple[str, str], list[Path]] = {}
    for bs in topology.base_station_names:
        for cu in topology.compute_unit_names:
            candidates = k_shortest_paths(topology, bs, cu, k=k)
            if candidates:
                paths[(bs, cu)] = candidates
    return PathSet(paths)
