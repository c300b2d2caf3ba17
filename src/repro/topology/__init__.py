"""Data-plane substrate: base stations, transport network and compute units.

The paper's data plane (Fig. 1) consists of a radio access network with ``B``
base stations, a transport network modelled as an undirected graph of links,
and ``C`` compute units (an edge cloud and a core cloud).  This package models
all three domains, computes candidate paths between base stations and compute
units (the ``P_{b,c}`` sets of Section 2.1.2), and generates synthetic
versions of the three operator networks used in the evaluation (Fig. 4).
"""

from repro.topology.elements import (
    BaseStation,
    ComputeUnit,
    TransportLink,
    TransportSwitch,
    LinkTechnology,
    ComputeUnitKind,
)
from repro.topology.network import NetworkTopology
from repro.topology.paths import Path, PathSet, compute_path_sets
from repro.topology.delay import link_delay_us
from repro.topology.generators import OperatorProfile, generate_operator_topology
from repro.topology.operators import (
    romanian_topology,
    swiss_topology,
    italian_topology,
    testbed_topology,
    OPERATOR_FACTORIES,
)

__all__ = [
    "BaseStation",
    "ComputeUnit",
    "TransportLink",
    "TransportSwitch",
    "LinkTechnology",
    "ComputeUnitKind",
    "NetworkTopology",
    "Path",
    "PathSet",
    "compute_path_sets",
    "link_delay_us",
    "OperatorProfile",
    "generate_operator_topology",
    "romanian_topology",
    "swiss_topology",
    "italian_topology",
    "testbed_topology",
    "OPERATOR_FACTORIES",
]
