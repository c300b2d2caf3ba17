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

import importlib

__version__ = "1.0.0"

#: Public name -> the module that defines it.  Imported on first access
#: (PEP 562): ``import repro.analysis`` or ``import repro.utils`` does not
#: pay for the solver stack and scipy.
_EXPORTS = {
    "SliceTemplate": "repro.core.slices",
    "SliceRequest": "repro.core.slices",
    "EMBB_TEMPLATE": "repro.core.slices",
    "MMTC_TEMPLATE": "repro.core.slices",
    "URLLC_TEMPLATE": "repro.core.slices",
    "ACRRProblem": "repro.core.problem",
    "BendersSolver": "repro.core.benders",
    "KACSolver": "repro.core.kac",
    "NoOverbookingSolver": "repro.core.baseline",
    "DirectMILPSolver": "repro.core.milp_solver",
    "NetworkTopology": "repro.topology.network",
    "romanian_topology": "repro.topology.operators",
    "swiss_topology": "repro.topology.operators",
    "italian_topology": "repro.topology.operators",
    "E2EOrchestrator": "repro.controlplane.orchestrator",
    "SliceBroker": "repro.api",
    "SliceRequestV1": "repro.api",
    "SimulationEngine": "repro.simulation.engine",
    "Scenario": "repro.simulation.scenario",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later reads skip this hook
    return value
