"""The candidate-path kernel reproduces the networkx search byte for byte.

``compute_path_sets`` runs Yen's k-shortest-paths over one
:class:`~repro.topology.paths.TransportAdjacency` per call; the search it
replaced is kept verbatim in ``tests/property/paths_oracle.py``.  Equal-delay
mirror paths are common in generated topologies (symmetric switches, equal
capacities and lengths), so "equal" here means ``PathSet.items()`` compares
``==``: the same pairs, the same paths in the same rank order, the same node
and link tuples and the same ``delay_us`` / ``capacity_mbps`` floats.
"""

from __future__ import annotations

import random

import pytest

from repro.scenarios import DIFFERENTIAL_FAMILY, sample_scenario
from repro.topology import (
    BaseStation,
    ComputeUnit,
    NetworkTopology,
    TransportLink,
    TransportSwitch,
    compute_path_sets,
    italian_topology,
    romanian_topology,
    swiss_topology,
)
from tests.property.paths_oracle import oracle_path_sets


def assert_same_paths(topology: NetworkTopology, k: int) -> None:
    shipped = compute_path_sets(topology, k=k).items()
    assert shipped == oracle_path_sets(topology, k=k).items()


def test_every_differential_family_seed():
    for seed in range(128):
        scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=seed)
        assert_same_paths(scenario.topology, scenario.candidate_paths_per_pair)


@pytest.mark.parametrize("num_base_stations", [3, 6, 20])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scaled_romanian_networks(num_base_stations, seed):
    topology = romanian_topology(num_base_stations, seed=seed)
    for k in (1, 4, 8):
        assert_same_paths(topology, k)


@pytest.mark.parametrize("factory", [italian_topology, swiss_topology, romanian_topology])
def test_full_size_operator_networks(factory):
    assert_same_paths(factory(), 4)


def mirror_topology(layers: int = 3, width: int = 3) -> NetworkTopology:
    """Two base stations behind ``layers`` fully meshed layers of identical
    switches: every route of a given hop count has exactly the same delay."""
    topology = NetworkTopology(name="mirror")
    for bs in ("bs-0", "bs-1"):
        topology.add_base_station(BaseStation(name=bs, capacity_mhz=20.0))
    topology.add_compute_unit(ComputeUnit(name="cu", capacity_cpus=8.0))
    previous = ["bs-0", "bs-1"]
    for layer in range(layers):
        current = [f"sw-{layer}-{i}" for i in range(width)]
        for name in current:
            topology.add_switch(TransportSwitch(name=name))
        for a in previous:
            for b in current:
                topology.add_link(TransportLink(endpoint_a=a, endpoint_b=b, capacity_mbps=1000.0))
        previous = current
    for a in previous:
        topology.add_link(TransportLink(endpoint_a=a, endpoint_b="cu", capacity_mbps=1000.0))
    return topology


class TestHandBuiltCases:
    def test_equal_delay_mirror_switches_tie_as_networkx_does(self):
        topology = mirror_topology()
        paths = compute_path_sets(topology, k=6).paths("bs-0", "cu")
        assert len({path.delay_us for path in paths}) == 1  # a pure tie
        for k in (1, 2, 5, 9, 27, 40):
            assert_same_paths(topology, k)

    def test_a_base_station_to_base_station_link(self):
        topology = mirror_topology(layers=1, width=2)
        topology.add_link(TransportLink(endpoint_a="bs-0", endpoint_b="bs-1", capacity_mbps=10.0))
        assert_same_paths(topology, 4)

    def test_an_unreachable_compute_unit(self):
        topology = mirror_topology(layers=2, width=2)
        topology.add_compute_unit(ComputeUnit(name="island", capacity_cpus=4.0))
        assert_same_paths(topology, 3)
        assert compute_path_sets(topology, k=3).paths("bs-0", "island") == []

    def test_k_above_the_number_of_simple_paths(self):
        topology = mirror_topology(layers=2, width=2)
        shipped = compute_path_sets(topology, k=50)
        assert len(shipped.paths("bs-0", "cu")) < 50
        assert_same_paths(topology, 50)

    def test_a_capacity_change_between_two_calls(self):
        topology = mirror_topology(layers=2, width=2)
        assert_same_paths(topology, 4)
        topology.replace_link(
            TransportLink(endpoint_a="sw-0-1", endpoint_b="sw-1-0", capacity_mbps=100.0)
        )
        assert_same_paths(topology, 4)
        first = compute_path_sets(topology, k=4).paths("bs-0", "cu")[0]
        assert ("sw-0-1", "sw-1-0") not in zip(first.nodes, first.nodes[1:])


def random_topology(rng: random.Random) -> NetworkTopology:
    """A small random mesh whose link delays are 17, 34 or 51 us exactly
    (1 Gb/s over 0, 4.25 or 8.5 km), so equal-delay paths of different
    shapes and lengths are frequent and their sums exact."""
    topology = NetworkTopology(name="random")
    num_bs, num_sw, num_cu = rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 3)
    bs = [f"bs-{i}" for i in range(num_bs)]
    sw = [f"sw-{i}" for i in range(num_sw)]
    cu = [f"cu-{i}" for i in range(num_cu)]
    for name in bs:
        topology.add_base_station(BaseStation(name=name, capacity_mhz=20.0))
    for name in sw:
        topology.add_switch(TransportSwitch(name=name))
    for name in cu:
        topology.add_compute_unit(ComputeUnit(name=name, capacity_cpus=8.0))
    nodes = bs + sw + cu
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    for a, b in rng.sample(pairs, rng.randint(1, len(pairs))):
        topology.add_link(
            TransportLink(
                endpoint_a=a,
                endpoint_b=b,
                capacity_mbps=1000.0,
                length_km=rng.choice([0.0, 4.25, 8.5]),
            )
        )
    return topology


def test_random_meshes_with_frequent_ties():
    rng = random.Random(20240)
    for _ in range(300):
        assert_same_paths(random_topology(rng), rng.randint(1, 6))


def ladder_topology(rng: random.Random) -> NetworkTopology:
    """One base station, two parallel switch chains joined by random rungs,
    one compute unit.  Link delays are 17.1, 17.2 or 17.3 us, which floats
    hold inexactly: paths of equal delay in exact arithmetic land on
    different last bits depending on the order their hops are summed, so
    the ranking pins the summation order (root lengths as a left fold)."""
    topology = NetworkTopology(name="ladder")
    topology.add_base_station(BaseStation(name="bs", capacity_mhz=20.0))
    topology.add_compute_unit(ComputeUnit(name="cu", capacity_cpus=8.0))
    rungs = rng.randint(3, 6)
    rails = [[f"a{i}" for i in range(rungs)], [f"b{i}" for i in range(rungs)]]
    for rail in rails:
        for name in rail:
            topology.add_switch(TransportSwitch(name=name))

    def link(a: str, b: str) -> None:
        topology.add_link(
            TransportLink(
                endpoint_a=a,
                endpoint_b=b,
                capacity_mbps=1000.0,
                length_km=rng.choice([0.025, 0.05, 0.075]),
            )
        )

    link("bs", "a0")
    link("bs", "b0")
    for rail in rails:
        for a, b in zip(rail, rail[1:]):
            link(a, b)
    for a, b in zip(*rails):
        if rng.random() < 0.6:
            link(a, b)
    link(rails[0][-1], "cu")
    link(rails[1][-1], "cu")
    return topology


def test_ladders_whose_ties_depend_on_summation_order():
    rng = random.Random(1)
    for _ in range(200):
        assert_same_paths(ladder_topology(rng), rng.randint(2, 12))
