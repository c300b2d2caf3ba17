"""Tests for the NetworkTopology container."""

import pytest

from repro.topology.elements import (
    BaseStation,
    ComputeUnit,
    TransportLink,
    TransportSwitch,
)
from repro.topology.network import NetworkTopology
from tests.conftest import build_tiny_topology
from tests.property.paths_oracle import topology_graph


class TestConstruction:
    def test_duplicate_node_name_rejected(self):
        topo = NetworkTopology()
        topo.add_base_station(BaseStation(name="x", capacity_mhz=20.0))
        with pytest.raises(ValueError):
            topo.add_switch(TransportSwitch(name="x"))

    def test_link_requires_known_endpoints(self):
        topo = NetworkTopology()
        topo.add_switch(TransportSwitch(name="sw"))
        with pytest.raises(KeyError):
            topo.add_link(TransportLink(endpoint_a="sw", endpoint_b="ghost", capacity_mbps=1.0))

    def test_duplicate_link_rejected(self):
        topo = NetworkTopology()
        topo.add_switch(TransportSwitch(name="a"))
        topo.add_switch(TransportSwitch(name="b"))
        topo.add_link(TransportLink(endpoint_a="a", endpoint_b="b", capacity_mbps=1.0))
        with pytest.raises(ValueError):
            topo.add_link(TransportLink(endpoint_a="b", endpoint_b="a", capacity_mbps=2.0))


class TestLookup:
    def test_link_lookup_is_order_insensitive(self):
        topo = build_tiny_topology()
        assert topo.link("sw", "bs-0").capacity_mbps == topo.link("bs-0", "sw").capacity_mbps

    def test_names(self):
        topo = build_tiny_topology(num_base_stations=3)
        assert topo.base_station_names == ["bs-0", "bs-1", "bs-2"]
        assert set(topo.compute_unit_names) == {"edge-cu", "core-cu"}


class TestGraphAndCapacities:
    def test_graph_has_all_nodes_and_edges(self):
        topo = build_tiny_topology()
        graph = topology_graph(topo)
        assert graph.number_of_nodes() == 2 + 1 + 2
        assert graph.number_of_edges() == len(topo.links)

    def test_capacities_snapshot(self):
        topo = build_tiny_topology(bs_capacity_mhz=20.0, edge_cpus=16.0)
        caps = topo.capacities()
        assert caps.radio_mhz["bs-0"] == 20.0
        assert caps.compute_cpus["edge-cu"] == 16.0
        assert len(caps.transport_mbps) == len(topo.links)

    def test_summary_counts(self):
        topo = build_tiny_topology(num_base_stations=4)
        summary = topo.summary()
        assert summary["num_base_stations"] == 4
        assert summary["num_compute_units"] == 2
        assert summary["num_links"] == len(topo.links)


class TestValidation:
    def test_validate_accepts_connected(self):
        build_tiny_topology().validate()

    def test_validate_rejects_missing_compute(self):
        topo = NetworkTopology()
        topo.add_base_station(BaseStation(name="bs", capacity_mhz=20.0))
        with pytest.raises(ValueError):
            topo.validate()

    def test_validate_rejects_disconnected_bs(self):
        topo = NetworkTopology()
        topo.add_base_station(BaseStation(name="bs", capacity_mhz=20.0))
        topo.add_compute_unit(ComputeUnit(name="cu", capacity_cpus=4.0))
        with pytest.raises(ValueError, match="cannot reach"):
            topo.validate()

    def test_validate_applies_the_path_rule(self):
        # bs-1 reaches the CU only through bs-0, and a path never transits
        # another base station: bs-1 has no candidate path, so no slice
        # could be admitted on this topology.
        topo = NetworkTopology()
        topo.add_base_station(BaseStation(name="bs-0", capacity_mhz=20.0))
        topo.add_base_station(BaseStation(name="bs-1", capacity_mhz=20.0))
        topo.add_compute_unit(ComputeUnit(name="cu", capacity_cpus=4.0))
        topo.add_link(TransportLink(endpoint_a="bs-1", endpoint_b="bs-0", capacity_mbps=1000.0))
        topo.add_link(TransportLink(endpoint_a="bs-0", endpoint_b="cu", capacity_mbps=1000.0))
        with pytest.raises(ValueError, match="'bs-1' cannot reach"):
            topo.validate()
        topo.add_switch(TransportSwitch(name="sw"))
        topo.add_link(TransportLink(endpoint_a="bs-1", endpoint_b="sw", capacity_mbps=1000.0))
        topo.add_link(TransportLink(endpoint_a="sw", endpoint_b="cu", capacity_mbps=1000.0))
        topo.validate()
