"""Declarative scenario families: distributions over simulation scenarios.

A :class:`ScenarioFamily` describes a *distribution* over scenarios with
JSON-level knobs only -- ranges are ``(min, max)`` pairs, choices are tuples,
probabilities are floats.  That keeps a family content-hashable
(:func:`repro.utils.rng.spec_hash`), picklable into campaign run specs and
serialisable to the on-disk run cache, exactly like the figure-experiment
parameters.  Sampling a family is the generator's job
(:func:`repro.scenarios.generator.sample_scenario`); this module only
validates and round-trips the declaration.

Knob groups mirror the axes the paper's evaluation attributes its results to:

* **topology** -- which operator profile seeds the synthetic network, how
  many base stations it is scaled to, how much path redundancy it has and how
  widely link capacities spread (radio- vs transport- vs compute-constrained
  regimes);
* **tenants** -- population size, uRLLC/mMTC/eMBB template mix, penalty
  factors, and churn (arrival window and early departures);
* **demand** -- mean load and variability ranges plus the probability of
  seasonal (diurnal) and bursty (regime-switching) behaviour;
* **failures** -- probability and severity of degraded-capacity ("link
  failure") episodes applied to the generated network;
* **simulation** -- horizon, monitoring density and forecasting mode.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Mapping

from repro.core.slices import TEMPLATES
from repro.topology.operators import OPERATOR_PROFILES
from repro.utils.rng import spec_hash
from repro.utils.validation import (
    ensure_choice,
    ensure_ordered_pair,
    ensure_positive_int,
    ensure_probability,
)

#: Path-redundancy presets applied on top of the sampled operator profile.
#: They replace the profile's BS multi-homing degrees and ring flag, which is
#: what drives the mean number of candidate paths (Fig. 4: 6.6 for the
#: Romanian network vs 1.6 for the Italian one).
REDUNDANCY_LEVELS = ("low", "medium", "high")


def _int_pair(value, name: str, minimum: int = 1) -> tuple[int, int]:
    lo, hi = ensure_ordered_pair(value, name)
    if lo != int(lo) or hi != int(hi):
        raise ValueError(f"{name} must be an integer (min, max) pair, got {value!r}")
    lo, hi = int(lo), int(hi)
    if lo < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return (lo, hi)


@dataclass(frozen=True)
class ScenarioFamily:
    """One named, content-hashable distribution over scenarios."""

    name: str = "default"

    # --- topology ----------------------------------------------------- #
    operator_profiles: tuple[str, ...] = ("romanian", "swiss", "italian")
    num_base_stations: tuple[int, int] = (2, 5)
    redundancy_levels: tuple[str, ...] = REDUNDANCY_LEVELS
    capacity_spread: tuple[float, float] = (0.7, 1.3)

    # --- tenants ------------------------------------------------------ #
    num_tenants: tuple[int, int] = (3, 8)
    template_weights: tuple[tuple[str, float], ...] = (
        ("eMBB", 1.0),
        ("mMTC", 1.0),
        ("uRLLC", 1.0),
    )
    penalty_factors: tuple[float, ...] = (1.0, 4.0)
    #: Fraction of the horizon within which tenants arrive (0 = everyone is
    #: known at epoch 0, as in Fig. 5/6; 1 = arrivals spread over the run).
    arrival_window_fraction: float = 0.0
    #: Minimum slice duration as a fraction of the post-arrival horizon;
    #: values below 1 produce mid-run departures (churn).
    min_duration_fraction: float = 1.0

    # --- demand ------------------------------------------------------- #
    mean_load_fraction: tuple[float, float] = (0.2, 0.7)
    relative_std: tuple[float, float] = (0.05, 0.5)
    seasonal_probability: float = 0.0
    bursty_probability: float = 0.0

    # --- failures ----------------------------------------------------- #
    degradation_probability: float = 0.0
    degraded_link_fraction: tuple[float, float] = (0.1, 0.3)
    degradation_factor: tuple[float, float] = (0.3, 0.8)
    #: Probability that the sampled scenario contains a *mid-run* link
    #: failure episode: at one epoch inside ``link_failure_window`` a subset
    #: of links permanently loses capacity, displacing admitted slices onto
    #: the re-homing path (contrast ``degradation_probability``, which
    #: degrades the network *before* the run starts).
    link_failure_probability: float = 0.0
    failed_link_fraction: tuple[float, float] = (0.1, 0.3)
    #: Remaining-capacity factor of each failed link, in (0, 1) -- links
    #: never vanish entirely (a TransportLink needs positive capacity).
    link_failure_factor: tuple[float, float] = (0.2, 0.6)
    #: Where in the horizon the episode lands, as fractions of the last
    #: epoch index; the sampled epoch is clamped to [1, num_epochs - 1] so
    #: the failure always interrupts an already-running scenario.
    link_failure_window: tuple[float, float] = (0.25, 0.75)

    # --- simulation --------------------------------------------------- #
    num_epochs: tuple[int, int] = (3, 6)
    samples_per_epoch: int = 8
    epochs_per_day: int = 24
    candidate_paths_per_pair: int = 3
    forecast_mode: str = "oracle"
    record_usage: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario family needs a non-empty name")
        if not self.operator_profiles:
            raise ValueError("operator_profiles must not be empty")
        for profile in self.operator_profiles:
            ensure_choice(profile, sorted(OPERATOR_PROFILES), "operator_profiles")
        object.__setattr__(
            self,
            "num_base_stations",
            _int_pair(self.num_base_stations, "num_base_stations"),
        )
        if not self.redundancy_levels:
            raise ValueError("redundancy_levels must not be empty")
        for level in self.redundancy_levels:
            ensure_choice(level, REDUNDANCY_LEVELS, "redundancy_levels")
        object.__setattr__(
            self,
            "capacity_spread",
            ensure_ordered_pair(self.capacity_spread, "capacity_spread", low=1e-6),
        )
        object.__setattr__(
            self, "num_tenants", _int_pair(self.num_tenants, "num_tenants")
        )
        if not self.template_weights:
            raise ValueError("template_weights must not be empty")
        weights = tuple((str(name), float(weight)) for name, weight in self.template_weights)
        for template_name, weight in weights:
            ensure_choice(template_name, sorted(TEMPLATES), "template_weights")
            if weight < 0:
                raise ValueError(
                    f"template_weights must be non-negative, got {template_name}={weight!r}"
                )
        if sum(weight for _name, weight in weights) <= 0:
            raise ValueError("template_weights must have positive total weight")
        object.__setattr__(self, "template_weights", weights)
        if not self.penalty_factors:
            raise ValueError("penalty_factors must not be empty")
        object.__setattr__(
            self, "penalty_factors", tuple(float(m) for m in self.penalty_factors)
        )
        ensure_probability(self.arrival_window_fraction, "arrival_window_fraction")
        ensure_probability(self.min_duration_fraction, "min_duration_fraction")
        if self.min_duration_fraction <= 0:
            raise ValueError(
                f"min_duration_fraction must be > 0, got {self.min_duration_fraction!r}"
            )
        object.__setattr__(
            self,
            "mean_load_fraction",
            ensure_ordered_pair(self.mean_load_fraction, "mean_load_fraction", 0.0, 1.0),
        )
        object.__setattr__(
            self,
            "relative_std",
            ensure_ordered_pair(self.relative_std, "relative_std", 0.0, 1.0),
        )
        ensure_probability(self.seasonal_probability, "seasonal_probability")
        ensure_probability(self.bursty_probability, "bursty_probability")
        if self.seasonal_probability + self.bursty_probability > 1.0 + 1e-9:
            raise ValueError(
                "seasonal_probability + bursty_probability must not exceed 1, got "
                f"{self.seasonal_probability!r} + {self.bursty_probability!r}"
            )
        ensure_probability(self.degradation_probability, "degradation_probability")
        ensure_probability(self.link_failure_probability, "link_failure_probability")
        object.__setattr__(
            self,
            "failed_link_fraction",
            ensure_ordered_pair(self.failed_link_fraction, "failed_link_fraction", 0.0, 1.0),
        )
        lo, hi = ensure_ordered_pair(
            self.link_failure_factor, "link_failure_factor", 1e-6, 1.0
        )
        if hi >= 1.0:
            raise ValueError(
                f"link_failure_factor must stay below 1, got {self.link_failure_factor!r}"
            )
        object.__setattr__(self, "link_failure_factor", (lo, hi))
        object.__setattr__(
            self,
            "link_failure_window",
            ensure_ordered_pair(self.link_failure_window, "link_failure_window", 0.0, 1.0),
        )
        object.__setattr__(
            self,
            "degraded_link_fraction",
            ensure_ordered_pair(
                self.degraded_link_fraction, "degraded_link_fraction", 0.0, 1.0
            ),
        )
        object.__setattr__(
            self,
            "degradation_factor",
            ensure_ordered_pair(self.degradation_factor, "degradation_factor", 1e-6, 1.0),
        )
        object.__setattr__(self, "num_epochs", _int_pair(self.num_epochs, "num_epochs"))
        ensure_positive_int(self.samples_per_epoch, "samples_per_epoch")
        ensure_positive_int(self.epochs_per_day, "epochs_per_day")
        ensure_positive_int(self.candidate_paths_per_pair, "candidate_paths_per_pair")
        ensure_choice(self.forecast_mode, ("oracle", "online"), "forecast_mode")

    # ------------------------------------------------------------------ #
    # Serialisation (campaign specs, run cache)
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict[str, Any]:
        """JSON-level view of the family (tuples survive as lists).

        The mid-run link-failure knobs are omitted while they are inert
        (``link_failure_probability == 0``) so every family declared before
        they existed keeps its content hash -- and therefore every scenario
        ever sampled from it stays byte-identical.
        """
        payload = asdict(self)
        if self.link_failure_probability == 0:
            for knob in (
                "link_failure_probability",
                "failed_link_fraction",
                "link_failure_factor",
                "link_failure_window",
            ):
                del payload[knob]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioFamily":
        """Rebuild a family from :meth:`as_dict` output (or a JSON round trip)."""
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown scenario-family fields: {unknown}")
        kwargs = dict(payload)
        if "template_weights" in kwargs:
            kwargs["template_weights"] = tuple(
                (str(name), float(weight)) for name, weight in kwargs["template_weights"]
            )
        for key, value in list(kwargs.items()):
            if isinstance(value, list):
                kwargs[key] = tuple(value)
        return cls(**kwargs)

    @property
    def family_hash(self) -> str:
        """Content hash of the declaration; folds into every derived seed."""
        return spec_hash(self.as_dict())


# --------------------------------------------------------------------- #
# Presets
# --------------------------------------------------------------------- #
#: Small, static scenarios for the differential solver harness: everything
#: is known at epoch 0 (no churn) and horizons are short, so the exact MILP
#: stays fast enough to act as an oracle for dozens of sampled instances.
DIFFERENTIAL_FAMILY = ScenarioFamily(
    name="differential-small",
    num_base_stations=(2, 4),
    num_tenants=(3, 7),
    penalty_factors=(1.0, 4.0, 16.0),
    mean_load_fraction=(0.2, 0.8),
    relative_std=(0.05, 0.5),
    degradation_probability=0.3,
    num_epochs=(2, 3),
    samples_per_epoch=6,
)

#: Dynamic scenarios with churn, mixed demand regimes and failure episodes:
#: tenants arrive mid-run, some depart early, a quarter of the slices are
#: bursty and another quarter seasonal, and some networks run degraded.
CHURN_FAMILY = ScenarioFamily(
    name="mixed-churn",
    num_base_stations=(2, 5),
    num_tenants=(4, 10),
    arrival_window_fraction=0.6,
    min_duration_fraction=0.3,
    mean_load_fraction=(0.15, 0.75),
    relative_std=(0.05, 0.5),
    seasonal_probability=0.25,
    bursty_probability=0.25,
    degradation_probability=0.25,
    num_epochs=(6, 10),
    samples_per_epoch=8,
)

#: Seasonal tenants learnt online (the Fig. 8 behaviour, generalised): the
#: orchestrator has no oracle and must learn each slice's diurnal pattern
#: from monitoring data.
SEASONAL_ONLINE_FAMILY = ScenarioFamily(
    name="seasonal-online",
    num_base_stations=(2, 4),
    num_tenants=(3, 6),
    arrival_window_fraction=0.3,
    mean_load_fraction=(0.2, 0.6),
    relative_std=(0.05, 0.3),
    seasonal_probability=1.0,
    num_epochs=(8, 12),
    epochs_per_day=8,
    samples_per_epoch=6,
    forecast_mode="online",
    record_usage=True,
)

#: Mid-run link-failure episodes on otherwise moderate scenarios: every
#: sample schedules one capacity-loss event between a quarter and three
#: quarters of the way through the horizon.  The factors model a near-total
#: outage (0.1-1 % of the capacity survives) rather than mild congestion:
#: operator links are provisioned orders of magnitude above the slices'
#: reservations, so anything gentler never exceeds a damaged link's capacity
#: and the re-homing path would be declared but never exercised.
FAILURE_FAMILY = ScenarioFamily(
    name="link-failure",
    num_base_stations=(2, 4),
    num_tenants=(3, 7),
    arrival_window_fraction=0.3,
    min_duration_fraction=0.5,
    mean_load_fraction=(0.15, 0.6),
    relative_std=(0.05, 0.4),
    link_failure_probability=1.0,
    failed_link_fraction=(0.25, 0.5),
    link_failure_factor=(0.001, 0.01),
    num_epochs=(4, 7),
    samples_per_epoch=6,
)

FAMILIES: dict[str, ScenarioFamily] = {
    family.name: family
    for family in (
        DIFFERENTIAL_FAMILY,
        CHURN_FAMILY,
        SEASONAL_ONLINE_FAMILY,
        FAILURE_FAMILY,
    )
}
