"""The paper's primary contribution: the AC-RR yield-management problem.

This package contains the slice/SLA model (Table 1), the admission-control
and resource-reservation (AC-RR) optimisation problem of Section 3, and the
algorithms of Section 4: the optimal Benders decomposition, the KAC
heuristic, a direct MILP solver used as a reference, and the no-overbooking
baseline the paper compares against.
"""

from repro.core.slices import (
    SliceTemplate,
    SliceRequest,
    EMBB_TEMPLATE,
    MMTC_TEMPLATE,
    URLLC_TEMPLATE,
    TEMPLATES,
)
from repro.core.forecast_inputs import ForecastInput
from repro.core.risk import deficit_probability_proxy
from repro.core.problem import ACRRProblem, ProblemOptions
from repro.core.solution import OrchestrationDecision, SolverStats
from repro.core.milp_solver import DirectMILPSolver
from repro.core.benders import BendersSolver
from repro.core.kac import KACSolver
from repro.core.baseline import NoOverbookingSolver
from repro.core.knapsack import KnapsackItem, solve_knapsack_ffd

__all__ = [
    "SliceTemplate",
    "SliceRequest",
    "EMBB_TEMPLATE",
    "MMTC_TEMPLATE",
    "URLLC_TEMPLATE",
    "TEMPLATES",
    "ForecastInput",
    "deficit_probability_proxy",
    "ACRRProblem",
    "ProblemOptions",
    "OrchestrationDecision",
    "SolverStats",
    "DirectMILPSolver",
    "BendersSolver",
    "KACSolver",
    "NoOverbookingSolver",
    "KnapsackItem",
    "solve_knapsack_ffd",
]
