"""Candidate path enumeration between base stations and compute units.

Section 2.1.2 of the paper pre-computes, for every base station ``b`` and
compute unit ``c``, a set ``P_{b,c}`` of candidate paths using k-shortest-path
methods based on Dijkstra's algorithm.  Each path is characterised by a delay
``D_p`` (store-and-forward model of :mod:`repro.topology.delay`) and, in this
implementation, also by a bottleneck capacity used by Fig. 4(d).

The search is Yen's algorithm over a bidirectional Dijkstra, ported
operation for operation from networkx 3.6.1 onto one
:class:`TransportAdjacency` per call, so paths of equal delay rank exactly
as networkx ranks them (DESIGN.md, "Candidate paths").
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Mapping

import numpy as np

from repro.topology.delay import link_delay_us
from repro.topology.elements import ComputeUnit, TransportLink
from repro.topology.network import NetworkTopology
from repro.utils.validation import ensure_positive_int


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
    base_stations: dict[str, int] = {}
    compute_units: dict[str, int] = {}
    link_keys: dict[tuple[str, str], int] = {}
    base_station: list[int] = []
    compute_unit: list[int] = []
    link_indptr = [0]
    link: list[int] = []
    link_count: list[int] = []
    for members in pairs.values():
        for path in members:
            paths.append(path)
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
    adjacency: "TransportAdjacency", links: list[TransportLink], bs_name: str,
    cu: ComputeUnit, nodes: list[int],
) -> Path:
    """The :class:`Path` along ``nodes`` (ids of ``adjacency``): each hop's
    link and delay as the search held them, summed in hop order."""
    hops = [adjacency.hops[u, v] for u, v in zip(nodes, nodes[1:])]
    path_links = tuple(links[link] for _delay, link in hops)
    delay = sum(delay for delay, _link in hops) + cu.access_latency_ms * 1000.0
    names = adjacency.names
    return Path(
        base_station=bs_name,
        compute_unit=cu.name,
        nodes=tuple(names[node] for node in nodes),
        links=path_links,
        delay_us=delay,
        capacity_mbps=min(link.capacity_mbps for link in path_links),
    )


def _bidirectional_dijkstra(
    neighbours: list[list[tuple[int, float, int]]],
    source: int,
    target: int,
    blocked: bytearray,
    ignored: set[int],
) -> tuple[float, list[int]] | None:
    """networkx 3.6.1 ``_bidirectional_dijkstra``, on a :class:`TransportAdjacency`.

    The same ``(dist, counter, node)`` heap keys from one shared counter, the
    same forward/backward alternation, the same relaxation and meeting test,
    so equal-delay ties break as networkx breaks them.  ``blocked[w]`` stands
    for both of its node filters (a removed node, an ignored node) and
    ``ignored`` for its edge filter, by link.  ``None`` is ``NetworkXNoPath``;
    networkx's negative-weight check is a plain skip, as delays are positive.
    """
    dists: tuple[dict[int, float], dict[int, float]] = ({}, {})
    paths = ({source: [source]}, {target: [target]})
    fringe: tuple[list, list] = ([], [])
    seen: tuple[dict[int, float], dict[int, float]] = ({source: 0}, {target: 0})
    counter = count()
    heappush(fringe[0], (0, next(counter), source))
    heappush(fringe[1], (0, next(counter), target))
    final_dist = 0.0
    final_path: list[int] = []
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        done = dists[direction]
        if v in done:
            continue
        done[v] = dist
        if v in dists[1 - direction]:
            return final_dist, final_path
        heap, ahead, behind, route = (
            fringe[direction], seen[direction], seen[1 - direction], paths[direction]
        )
        for w, weight, link in neighbours[v]:
            if blocked[w] or link in ignored or w in done:
                continue
            length = dist + weight
            if w not in ahead or length < ahead[w]:
                ahead[w] = length
                heappush(heap, (length, next(counter), w))
                route[w] = route[v] + [w]
                if w in behind:
                    total = seen[0][w] + seen[1][w]
                    if not final_path or final_dist > total:
                        final_dist = total
                        back = paths[1][w][:]
                        back.reverse()
                        final_path = paths[0][w] + back[1:]
    return None


class TransportAdjacency:
    """The transport graph of one topology, as the path search reads it.

    Nodes are ints: base stations first (``0 .. B-1``), then switches, then
    compute units.  ``neighbours[v]`` lists ``(w, delay_us, link)`` in
    link-insertion order -- the order a ``networkx.Graph`` built from the
    topology iterates them -- with each link's :func:`link_delay_us` computed
    once, so the weights are those of the topology at construction.

    A path starts at a base station but never transits another one: a
    dual-homed cell must not relay between aggregation switches.  Every
    search therefore bars each base station but its own source.
    """

    __slots__ = ("names", "index", "neighbours", "hops", "bs_mask")

    def __init__(self, topology: NetworkTopology):
        bs_names = topology.base_station_names
        self.names = [
            *bs_names,
            *(switch.name for switch in topology.switches),
            *topology.compute_unit_names,
        ]
        self.index = {name: node for node, name in enumerate(self.names)}
        #: 1 for a base station, 0 for a switch or compute unit.
        self.bs_mask = bytearray(len(self.names))
        self.bs_mask[: len(bs_names)] = b"\x01" * len(bs_names)
        self.neighbours: list[list[tuple[int, float, int]]] = [[] for _ in self.names]
        #: ``(u, v) -> (delay_us, link)`` in both orientations.
        self.hops: dict[tuple[int, int], tuple[float, int]] = {}
        for link_id, link in enumerate(topology.links):
            a, b = self.index[link.endpoint_a], self.index[link.endpoint_b]
            delay = link_delay_us(link)
            self.neighbours[a].append((b, delay, link_id))
            self.neighbours[b].append((a, delay, link_id))
            self.hops[a, b] = self.hops[b, a] = (delay, link_id)

    def _barred(self, source: int) -> bytearray:
        barred = bytearray(self.bs_mask)
        barred[source] = 0
        return barred

    def reachable(self, base_station: str) -> set[str]:
        """Every node a path from ``base_station`` can reach."""
        source = self.index[base_station]
        barred = self._barred(source)
        found = {source}
        stack = [source]
        while stack:
            for w, _delay, _link in self.neighbours[stack.pop()]:
                if not barred[w] and w not in found:
                    found.add(w)
                    stack.append(w)
        return {self.names[node] for node in found}

    def k_shortest(self, base_station: str, compute_unit: str, k: int) -> list[list[int]]:
        """Up to ``k`` loop-free node-id sequences, shortest delay first.

        networkx 3.6.1 ``shortest_simple_paths`` (Yen) cut at ``k`` as
        ``islice`` cuts it: the same ``PathBuffer`` (a ``(cost, counter,
        path)`` heap that drops a path it already queues), the same ignored
        edges and nodes per spur, and root lengths as the same left fold.
        """
        source, target = self.index[base_station], self.index[compute_unit]
        neighbours, hops = self.neighbours, self.hops
        blocked = self._barred(source)
        first = _bidirectional_dijkstra(neighbours, source, target, blocked, set())
        if first is None:
            return []
        counter = count()
        buffer = [(first[0], next(counter), first[1])]
        queued = {tuple(first[1])}
        found: list[list[int]] = []
        while buffer:
            _, _, path = heappop(buffer)
            queued.remove(tuple(path))
            found.append(path)
            if len(found) == k:
                break
            ignored: set[int] = set()
            root_length = 0
            for i in range(1, len(path)):
                root = path[:i]
                if i > 1:
                    root_length += hops[path[i - 2], path[i - 1]][0]
                for earlier in found:
                    if earlier[:i] == root:
                        ignored.add(hops[earlier[i - 1], earlier[i]][1])
                spur = _bidirectional_dijkstra(neighbours, root[-1], target, blocked, ignored)
                if spur is not None:
                    candidate = root[:-1] + spur[1]
                    key = tuple(candidate)
                    if key not in queued:
                        heappush(buffer, (root_length + spur[0], next(counter), candidate))
                        queued.add(key)
                blocked[root[-1]] = 1
            for node in path[:-1]:
                blocked[node] = 0
        return found


def compute_path_sets(topology: NetworkTopology, k: int = 4) -> PathSet:
    """Enumerate candidate paths for every (base station, compute unit) pair.

    This is the offline pre-computation step described in Section 2.1.2: up
    to ``k`` paths per pair, ranked by total store-and-forward delay, all
    searched on one :class:`TransportAdjacency`.  A pair with no path is left
    out.  The result is reused across decision epochs.
    """
    k = ensure_positive_int(k, "k")
    adjacency = TransportAdjacency(topology)
    links = topology.links
    paths: dict[tuple[str, str], list[Path]] = {}
    for bs in topology.base_station_names:
        for cu in topology.compute_units:
            sequences = adjacency.k_shortest(bs, cu.name, k)
            if sequences:
                paths[(bs, cu.name)] = [
                    _build_path(adjacency, links, bs, cu, nodes) for nodes in sequences
                ]
    return PathSet(paths)
