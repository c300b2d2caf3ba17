"""The networkx candidate-path search, kept verbatim as the oracle.

Until the path search ran on one transport adjacency per
``compute_path_sets`` call, this function *was* the ``P_{b,c}`` enumeration:
a fresh ``networkx.Graph`` per (BS, CU) pair with every other base station
removed, ranked by ``networkx.shortest_simple_paths`` (Yen over a
bidirectional Dijkstra) with a weight callback that looked the link up on
every relaxation.  The shipped kernel ports that search operation for
operation, so every tie between equal-delay paths must break the same way;
``tests/property/test_paths_equivalence.py`` compares ``PathSet.items()``
with ``==`` against :func:`oracle_path_sets`.

Only the public ``k`` check moved to the caller; the search is the retired
source's, and it pins networkx's tie order (the CI ``unit`` job prints the
networkx version beside the solver build for that reason).  The networkx
view of a topology (:func:`topology_graph`, once ``NetworkTopology.graph``)
and the by-name path assembly (:func:`build_path`) live here too: the
shipped search needs neither, so networkx is a test dependency only.
"""

from __future__ import annotations

from itertools import islice

import networkx as nx

from repro.topology.delay import link_delay_us
from repro.topology.network import NetworkTopology
from repro.topology.paths import Path, PathSet


def topology_graph(topology: NetworkTopology) -> nx.Graph:
    """An undirected graph view of ``topology`` (nodes keyed by name)."""
    g = nx.Graph()
    for bs in topology.base_stations:
        g.add_node(bs.name, kind="bs")
    for switch in topology.switches:
        g.add_node(switch.name, kind="switch")
    for cu in topology.compute_units:
        g.add_node(cu.name, kind="cu")
    for link in topology.links:
        g.add_edge(
            link.endpoint_a,
            link.endpoint_b,
            capacity_mbps=link.capacity_mbps,
            length_km=link.length_km,
            technology=link.technology,
        )
    return g


def build_path(
    topology: NetworkTopology, bs_name: str, cu_name: str, node_sequence: list[str]
) -> Path:
    """The retired path assembly: every hop's link looked up by name."""
    links = tuple(topology.link(a, b) for a, b in zip(node_sequence, node_sequence[1:]))
    cu = topology.compute_unit(cu_name)
    delay = sum(link_delay_us(link) for link in links) + cu.access_latency_ms * 1000.0
    return Path(
        base_station=bs_name,
        compute_unit=cu_name,
        nodes=tuple(node_sequence),
        links=links,
        delay_us=delay,
        capacity_mbps=min(link.capacity_mbps for link in links),
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
    g = topology_graph(topology)
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
        build_path(topology, base_station, compute_unit, sequence)
        for sequence in node_sequences
    ]


def oracle_path_sets(topology: NetworkTopology, k: int = 4) -> PathSet:
    """``compute_path_sets`` as it was: one networkx search per pair."""
    paths: dict[tuple[str, str], list[Path]] = {}
    for bs in topology.base_station_names:
        for cu in topology.compute_unit_names:
            candidates = k_shortest_paths(topology, bs, cu, k=k)
            if candidates:
                paths[(bs, cu)] = candidates
    return PathSet(paths)
