"""Stochastic scenario generation beyond the paper's three hand-built setups.

The paper evaluates overbooking on exactly three configurations (the
homogeneous Fig. 5 grid, the heterogeneous Fig. 6 grid and the two-BS
testbed of Fig. 8).  This package opens that workload space safely:

* :mod:`repro.scenarios.family` declares *scenario families* -- JSON-level,
  content-hashable distributions over topologies, tenant populations, demand
  regimes and failure episodes;
* :mod:`repro.scenarios.generator` samples concrete, valid
  :class:`repro.simulation.scenario.Scenario` objects from a family,
  deterministically per ``(family, seed)``;
* :mod:`repro.scenarios.oracle` is the differential-testing oracle: it checks
  the Benders decomposition against the exact MILP optimum and the
  no-overbooking baseline on any generated scenario;
* :mod:`repro.scenarios.campaigns` registers the ``generated`` campaign run
  kind so ``python -m repro.experiments run generated`` sweeps random
  scenario families with cached, resumable runs.
"""

from repro.scenarios.family import (
    CHURN_FAMILY,
    DIFFERENTIAL_FAMILY,
    FAILURE_FAMILY,
    FAMILIES,
    SEASONAL_ONLINE_FAMILY,
    ScenarioFamily,
)
from repro.scenarios.generator import (
    sample_scenario,
    scenario_fingerprint,
    scenario_payload,
)
from repro.scenarios.oracle import (
    DifferentialOutcome,
    WarmStartOutcome,
    decision_fingerprint,
    differential_check,
    problem_for_scenario,
    warm_start_check,
)

__all__ = [
    "CHURN_FAMILY",
    "DIFFERENTIAL_FAMILY",
    "DifferentialOutcome",
    "FAILURE_FAMILY",
    "FAMILIES",
    "SEASONAL_ONLINE_FAMILY",
    "ScenarioFamily",
    "WarmStartOutcome",
    "decision_fingerprint",
    "differential_check",
    "problem_for_scenario",
    "warm_start_check",
    "sample_scenario",
    "scenario_fingerprint",
    "scenario_payload",
]
