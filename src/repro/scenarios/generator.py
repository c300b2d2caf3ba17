"""Sampling concrete scenarios from a declarative family.

:func:`sample_scenario` maps ``(family, seed)`` to one valid
:class:`repro.simulation.scenario.Scenario`.  Determinism is the contract the
differential harness and the campaign cache lean on:

* every random draw comes from one :class:`numpy.random.Generator` seeded by
  ``derive_seed(seed, "generated-scenario", family_hash)``, so the sampled
  scenario is a pure function of the family content and the seed;
* the scenario's own ``seed`` (which drives the demand traces during
  simulation) is derived the same way, so two samples of the same
  ``(family, seed)`` replay identical traffic;
* :func:`scenario_fingerprint` hashes a canonical JSON serialisation of the
  sampled scenario (topology capacities, workloads, demand specs, knobs), so
  byte-determinism is checkable -- and checked, in
  ``tests/differential/test_generator_determinism.py``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

import numpy as np

from repro.core.slices import TEMPLATES, SliceRequest
from repro.scenarios.family import ScenarioFamily
from repro.simulation.scenario import LinkFailureEvent, Scenario, SliceWorkload
from repro.topology.generators import (
    OperatorProfile,
    degrade_link_capacities,
    generate_operator_topology,
)
from repro.topology.network import NetworkTopology
from repro.topology.operators import OPERATOR_PROFILES
from repro.traffic.patterns import DemandSpec
from repro.utils.rng import choice_without_replacement, derive_seed, make_rng, spec_hash

#: Path-redundancy presets: multi-homing degrees and the aggregation ring
#: flag, from single-homed trees (the Italian regime, ~1.6 candidate paths)
#: to dual/triple-homed rings (the Romanian regime, ~6.6 candidate paths).
_REDUNDANCY_PRESETS: dict[str, dict[str, Any]] = {
    "low": {
        "bs_degree_choices": (1,),
        "bs_degree_weights": (1.0,),
        "aggregation_ring": False,
    },
    "medium": {
        "bs_degree_choices": (1, 2),
        "bs_degree_weights": (0.5, 0.5),
        "aggregation_ring": True,
    },
    "high": {
        "bs_degree_choices": (2, 3),
        "bs_degree_weights": (0.4, 0.6),
        "aggregation_ring": True,
    },
}


def _uniform(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    low, high = bounds
    if low == high:
        return float(low)
    return float(rng.uniform(low, high))


def _randint(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    low, high = bounds
    return int(rng.integers(low, high + 1))


def _choice(rng: np.random.Generator, items: tuple, probabilities=None):
    index = int(rng.choice(len(items), p=probabilities))
    return items[index]


# --------------------------------------------------------------------- #
# Topology sampling
# --------------------------------------------------------------------- #
def _scaled_capacity_map(capacities: dict, factor: float) -> dict:
    return {
        technology: (low * factor, high * factor)
        for technology, (low, high) in capacities.items()
    }


def _sample_profile(family: ScenarioFamily, rng: np.random.Generator) -> OperatorProfile:
    base_name = _choice(rng, family.operator_profiles)
    base = OPERATOR_PROFILES[base_name]
    num_bs = _randint(rng, family.num_base_stations)
    profile = (
        base
        if num_bs == base.num_base_stations
        else base.scaled(num_bs, name_suffix=f"-gen{num_bs}")
    )
    redundancy = _choice(rng, family.redundancy_levels)
    spread = _uniform(rng, family.capacity_spread)
    return replace(
        profile,
        name=f"{profile.name}-{redundancy}",
        access_capacity_mbps=_scaled_capacity_map(profile.access_capacity_mbps, spread),
        aggregation_capacity_mbps=tuple(
            cap * spread for cap in profile.aggregation_capacity_mbps
        ),
        hub_capacity_mbps=tuple(cap * spread for cap in profile.hub_capacity_mbps),
        **_REDUNDANCY_PRESETS[redundancy],
    )


def _sample_topology(family: ScenarioFamily, rng: np.random.Generator) -> NetworkTopology:
    profile = _sample_profile(family, rng)
    topology = generate_operator_topology(
        profile, seed=int(rng.integers(0, 2**31 - 1))
    )
    if family.degradation_probability > 0 and rng.random() < family.degradation_probability:
        links = topology.links
        count = max(
            1, int(round(_uniform(rng, family.degraded_link_fraction) * len(links)))
        )
        count = min(count, len(links))
        degraded = choice_without_replacement(rng, [link.key for link in links], count)
        degrade_link_capacities(
            topology, degraded, _uniform(rng, family.degradation_factor)
        )
    return topology


# --------------------------------------------------------------------- #
# Workload sampling
# --------------------------------------------------------------------- #
def _sample_demand_spec(
    family: ScenarioFamily, rng: np.random.Generator
) -> DemandSpec:
    mean_fraction = _uniform(rng, family.mean_load_fraction)
    relative_std = _uniform(rng, family.relative_std)
    regime = rng.random()
    seasonal = regime < family.seasonal_probability
    bursty = (not seasonal) and regime < (
        family.seasonal_probability + family.bursty_probability
    )
    return DemandSpec(
        mean_fraction=mean_fraction,
        relative_std=relative_std,
        seasonal=seasonal,
        bursty=bursty,
        off_mean_fraction=min(0.05, mean_fraction),
        epochs_per_day=family.epochs_per_day,
    )


def _sample_workloads(
    family: ScenarioFamily, rng: np.random.Generator, num_epochs: int
) -> tuple[SliceWorkload, ...]:
    template_names = tuple(name for name, _weight in family.template_weights)
    weights = np.asarray([weight for _name, weight in family.template_weights])
    probabilities = weights / weights.sum()
    arrival_span = int(round(family.arrival_window_fraction * (num_epochs - 1)))

    workloads = []
    for index in range(_randint(rng, family.num_tenants)):
        template = TEMPLATES[_choice(rng, template_names, probabilities)]
        arrival = int(rng.integers(0, arrival_span + 1)) if arrival_span else 0
        horizon = num_epochs - arrival
        duration_fraction = _uniform(rng, (family.min_duration_fraction, 1.0))
        duration = max(1, int(round(duration_fraction * horizon)))
        workloads.append(
            SliceWorkload(
                request=SliceRequest(
                    name=f"{template.name}-{index}",
                    template=template,
                    duration_epochs=duration,
                    penalty_factor=_choice(rng, family.penalty_factors),
                    arrival_epoch=arrival,
                ),
                demand=_sample_demand_spec(family, rng),
            )
        )
    return tuple(workloads)


def _sample_link_failures(
    family: ScenarioFamily,
    rng: np.random.Generator,
    topology: NetworkTopology,
    num_epochs: int,
) -> tuple[LinkFailureEvent, ...]:
    """Sample the scenario's mid-run failure episode, if the family has one.

    Must consume *no* rng draws when the knob is inert, so families declared
    before the knob existed keep sampling byte-identical scenarios.
    """
    if family.link_failure_probability <= 0 or num_epochs < 2:
        return ()
    if rng.random() >= family.link_failure_probability:
        return ()
    window_lo, window_hi = family.link_failure_window
    span = num_epochs - 1
    epoch = int(round(_uniform(rng, (window_lo * span, window_hi * span))))
    epoch = max(1, min(span, epoch))
    links = topology.links
    count = max(
        1, int(round(_uniform(rng, family.failed_link_fraction) * len(links)))
    )
    count = min(count, len(links))
    failed = choice_without_replacement(rng, [link.key for link in links], count)
    factor = _uniform(rng, family.link_failure_factor)
    return (
        LinkFailureEvent(
            epoch=epoch, links=tuple(failed), capacity_factor=factor
        ),
    )


# --------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------- #
def sample_scenario(family: ScenarioFamily, seed: int = 0) -> Scenario:
    """Sample one valid scenario; a pure function of ``(family, seed)``."""
    family_hash = family.family_hash
    rng = make_rng(derive_seed(seed, "generated-scenario", family_hash))
    num_epochs = _randint(rng, family.num_epochs)
    topology = _sample_topology(family, rng)
    workloads = _sample_workloads(family, rng, num_epochs)
    link_failures = _sample_link_failures(family, rng, topology, num_epochs)
    return Scenario(
        name=f"gen:{family.name}:{family_hash[:8]}:seed={seed}",
        topology=topology,
        workloads=workloads,
        num_epochs=num_epochs,
        epochs_per_day=family.epochs_per_day,
        samples_per_epoch=family.samples_per_epoch,
        candidate_paths_per_pair=family.candidate_paths_per_pair,
        forecast_mode=family.forecast_mode,
        record_usage=family.record_usage,
        seed=derive_seed(seed, "generated-demand", family_hash),
        link_failures=link_failures,
    )


# --------------------------------------------------------------------- #
# Canonical serialisation / fingerprinting
# --------------------------------------------------------------------- #
def _demand_payload(spec: DemandSpec) -> dict[str, Any]:
    return {
        "mean_fraction": spec.mean_fraction,
        "relative_std": spec.relative_std,
        "seasonal": spec.seasonal,
        "bursty": spec.bursty,
        "off_mean_fraction": spec.off_mean_fraction,
        "p_on_to_off": spec.p_on_to_off,
        "p_off_to_on": spec.p_off_to_on,
        "epochs_per_day": spec.epochs_per_day,
        "profile": list(spec.profile.hourly_multipliers),
    }


def _topology_payload(topology: NetworkTopology) -> dict[str, Any]:
    return {
        "name": topology.name,
        "base_stations": [
            [bs.name, bs.capacity_mhz, bs.spectral_efficiency_mbps_per_mhz]
            for bs in topology.base_stations
        ],
        "compute_units": [
            [cu.name, cu.capacity_cpus, cu.kind.value, cu.access_latency_ms]
            for cu in topology.compute_units
        ],
        "switches": [switch.name for switch in topology.switches],
        "links": [
            [
                link.endpoint_a,
                link.endpoint_b,
                link.capacity_mbps,
                link.length_km,
                link.technology.value,
                link.overhead,
            ]
            for link in topology.links
        ],
    }


def scenario_payload(scenario: Scenario) -> dict[str, Any]:
    """Canonical JSON-level serialisation of a scenario.

    Everything that determines a simulation outcome is included: the full
    topology (element names and capacities), every workload (template,
    lifetime, penalty, demand spec) and the simulation knobs, seed included.
    Mid-run link failures are appended only when present, so every scenario
    sampled before the field existed keeps its fingerprint.
    """
    payload = {
        "name": scenario.name,
        "num_epochs": scenario.num_epochs,
        "epochs_per_day": scenario.epochs_per_day,
        "samples_per_epoch": scenario.samples_per_epoch,
        "candidate_paths_per_pair": scenario.candidate_paths_per_pair,
        "forecast_mode": scenario.forecast_mode,
        "record_usage": scenario.record_usage,
        "seed": scenario.seed,
        "topology": _topology_payload(scenario.topology),
        "workloads": [
            {
                "name": workload.name,
                "template": workload.request.template.name,
                "duration_epochs": workload.request.duration_epochs,
                "penalty_factor": workload.request.penalty_factor,
                "arrival_epoch": workload.request.arrival_epoch,
                "demand": _demand_payload(workload.demand),
            }
            for workload in scenario.workloads
        ],
    }
    if scenario.link_failures:
        payload["link_failures"] = [
            {
                "epoch": event.epoch,
                "links": [list(key) for key in event.links],
                "capacity_factor": event.capacity_factor,
            }
            for event in scenario.link_failures
        ]
    return payload


def scenario_fingerprint(scenario: Scenario) -> str:
    """Content hash of :func:`scenario_payload`.

    Two scenarios with equal fingerprints simulate identically under any
    policy; the generator determinism tests assert that independent
    ``sample_scenario(family, seed)`` calls agree byte-for-byte here.
    """
    return spec_hash(scenario_payload(scenario))
