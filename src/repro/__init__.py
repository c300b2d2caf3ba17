"""Reproduction of *Overbooking Network Slices through Yield-driven
End-to-End Orchestration* (Salvat et al., CoNEXT 2018).

The package is organised around the paper's architecture:

* :mod:`repro.topology` -- the data-plane substrate (base stations, transport
  network, compute units) and the three synthetic operator networks used in
  the evaluation.
* :mod:`repro.radio` -- RAN sharing: PRB shares of each base station, sized
  with the base station's own spectral efficiency.
* :mod:`repro.traffic` -- synthetic slice demand (Gaussian + diurnal traces).
* :mod:`repro.forecasting` -- Holt-Winters and simpler forecasters used by the
  orchestrator's Forecasting block.
* :mod:`repro.core` -- the paper's contribution: the AC-RR yield-management
  problem, the Benders decomposition solver, the KAC heuristic and the
  no-overbooking baseline.
* :mod:`repro.dataplane` -- simulated data plane (work-conserving slice
  multiplexing, per-domain usage accounting).
* :mod:`repro.controlplane` -- slice manager, E2E orchestrator and domain
  controllers (the hierarchical control plane of Fig. 2).
* :mod:`repro.api` -- the northbound SliceBroker service API (versioned DTOs,
  error taxonomy, lifecycle events): the supported entry point to the control
  plane.
* :mod:`repro.simulation` -- the decision-epoch simulation engine and revenue
  accounting used to reproduce the evaluation.
* :mod:`repro.experiments` -- one module per table/figure of the paper.
"""

from repro.core.slices import (
    SliceTemplate,
    SliceRequest,
    EMBB_TEMPLATE,
    MMTC_TEMPLATE,
    URLLC_TEMPLATE,
)
from repro.core.problem import ACRRProblem
from repro.core.benders import BendersSolver
from repro.core.kac import KACSolver
from repro.core.baseline import NoOverbookingSolver
from repro.core.milp_solver import DirectMILPSolver
from repro.topology.network import NetworkTopology
from repro.topology.operators import (
    romanian_topology,
    swiss_topology,
    italian_topology,
)
from repro.controlplane.orchestrator import E2EOrchestrator
from repro.api import SliceBroker, SliceRequestV1
from repro.simulation.engine import SimulationEngine
from repro.simulation.scenario import Scenario

__version__ = "1.0.0"

__all__ = [
    "SliceTemplate",
    "SliceRequest",
    "EMBB_TEMPLATE",
    "MMTC_TEMPLATE",
    "URLLC_TEMPLATE",
    "ACRRProblem",
    "BendersSolver",
    "KACSolver",
    "NoOverbookingSolver",
    "DirectMILPSolver",
    "NetworkTopology",
    "romanian_topology",
    "swiss_topology",
    "italian_topology",
    "E2EOrchestrator",
    "SliceBroker",
    "SliceRequestV1",
    "SimulationEngine",
    "Scenario",
    "__version__",
]
