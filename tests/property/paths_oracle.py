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
networkx version beside the solver build for that reason).
"""

from __future__ import annotations

from itertools import islice

import networkx as nx

from repro.topology.delay import link_delay_us
from repro.topology.network import NetworkTopology
from repro.topology.paths import Path, PathSet, _build_path


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


def oracle_path_sets(topology: NetworkTopology, k: int = 4) -> PathSet:
    """``compute_path_sets`` as it was: one networkx search per pair."""
    paths: dict[tuple[str, str], list[Path]] = {}
    for bs in topology.base_station_names:
        for cu in topology.compute_unit_names:
            candidates = k_shortest_paths(topology, bs, cu, k=k)
            if candidates:
                paths[(bs, cu)] = candidates
    return PathSet(paths)
