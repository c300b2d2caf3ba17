"""Template catalogues: the workload classes a city-scale trace draws from.

A :class:`TemplateCatalogue` maps the paper's Table 1 slice templates onto
workload *classes* -- the unit the trace generator samples.  Each class
binds one template to churn statistics (arrival process membership,
duration range), demand statistics (mean fraction of the SLA, relative
std -- expressed through :class:`repro.traffic.patterns.DemandSpec` so the
trace tier and the simulation tier speak the same demand language) and an
elasticity flag:

* **elastic** classes (eMBB-like) tolerate overbooking: their admission
  load estimate is the *expected* demand (``mean_fraction * sla_mbps``);
* **inelastic** classes (mMTC/uRLLC-like) must be provisioned at the full
  SLA bitrate regardless of their mean demand.

Classes also choose their arrival process:

* ``"poisson"`` classes share the spec's seasonal Poisson arrival stream,
  split by class weight;
* ``"window"`` classes are a fixed population arriving uniformly within
  the leading ``arrival_window_fraction`` of the horizon (the scenario
  families' arrival-window churn, scaled to city populations).

Catalogues are plain JSON-level declarations (``as_dict``/``from_dict``)
so a :class:`~repro.workloads.trace.TraceSpec` can embed them in its
content-hashed payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.slices import TEMPLATES, SliceTemplate
from repro.traffic.patterns import DemandSpec
from repro.utils.validation import (
    ensure_choice,
    ensure_in_range,
    ensure_ordered_pair,
    ensure_positive,
    ensure_probability,
)

__all__ = ["SliceClass", "TemplateCatalogue", "CITY_CATALOGUE"]

#: Arrival-process memberships a class can declare.
CHURN_MODES = ("poisson", "window")


@dataclass(frozen=True)
class SliceClass:
    """One workload class: a slice template plus churn/demand statistics."""

    name: str
    template: str
    elastic: bool
    weight: float
    duration_epochs: tuple[int, int]
    mean_fraction: float
    relative_std: float = 0.0
    penalty_factor: float = 1.0
    churn: str = "poisson"
    arrival_window_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("slice class name must be non-empty")
        if self.template not in TEMPLATES:
            raise ValueError(
                f"unknown template {self.template!r}; expected one of "
                f"{sorted(TEMPLATES)}"
            )
        ensure_positive(self.weight, "weight")
        low, high = ensure_ordered_pair(self.duration_epochs, "duration_epochs", low=1)
        object.__setattr__(self, "duration_epochs", (int(low), int(high)))
        ensure_probability(self.mean_fraction, "mean_fraction")
        ensure_in_range(self.relative_std, 0.0, 1.0, "relative_std")
        ensure_positive(self.penalty_factor, "penalty_factor")
        ensure_choice(self.churn, CHURN_MODES, "churn")
        ensure_in_range(
            self.arrival_window_fraction, 0.0, 1.0, "arrival_window_fraction"
        )
        if self.churn == "window" and self.arrival_window_fraction <= 0.0:
            raise ValueError(
                "window classes need arrival_window_fraction > 0, got "
                f"{self.arrival_window_fraction}"
            )

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def slice_template(self) -> SliceTemplate:
        """The Table 1 template this class instantiates."""
        return TEMPLATES[self.template]

    def load_estimate_mbps(self, demand_fraction: float) -> float:
        """Admission load estimate for one arrival of this class.

        Elastic classes book their sampled expected demand; inelastic
        classes book the full SLA bitrate.
        """
        sla = self.slice_template().sla_mbps
        return demand_fraction * sla if self.elastic else sla

    # ------------------------------------------------------------------ #
    # JSON round trip
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "template": self.template,
            "elastic": self.elastic,
            "weight": self.weight,
            "duration_epochs": list(self.duration_epochs),
            "mean_fraction": self.mean_fraction,
            "relative_std": self.relative_std,
            "penalty_factor": self.penalty_factor,
            "churn": self.churn,
            "arrival_window_fraction": self.arrival_window_fraction,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SliceClass":
        low, high = payload["duration_epochs"]
        return cls(
            name=str(payload["name"]),
            template=str(payload["template"]),
            elastic=bool(payload["elastic"]),
            weight=float(payload["weight"]),
            duration_epochs=(int(low), int(high)),
            mean_fraction=float(payload["mean_fraction"]),
            relative_std=float(payload.get("relative_std", 0.0)),
            penalty_factor=float(payload.get("penalty_factor", 1.0)),
            churn=str(payload.get("churn", "poisson")),
            arrival_window_fraction=float(
                payload.get("arrival_window_fraction", 1.0)
            ),
        )


@dataclass(frozen=True)
class TemplateCatalogue:
    """A named, ordered set of workload classes."""

    name: str
    classes: tuple[SliceClass, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("catalogue name must be non-empty")
        if not self.classes:
            raise ValueError("catalogue must declare at least one slice class")
        object.__setattr__(self, "classes", tuple(self.classes))
        names = [cls.name for cls in self.classes]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate slice class names in catalogue: {names}")

    # ------------------------------------------------------------------ #
    # Views by arrival process (order-preserving: catalogue order is part
    # of the content hash and of the sampling layout)
    # ------------------------------------------------------------------ #
    def poisson_classes(self) -> tuple[SliceClass, ...]:
        return tuple(cls for cls in self.classes if cls.churn == "poisson")

    def window_classes(self) -> tuple[SliceClass, ...]:
        return tuple(cls for cls in self.classes if cls.churn == "window")

    def class_named(self, name: str) -> SliceClass:
        for cls in self.classes:
            if cls.name == name:
                return cls
        raise KeyError(
            f"no slice class {name!r} in catalogue {self.name!r}; expected "
            f"one of {[cls.name for cls in self.classes]}"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "classes": [cls.as_dict() for cls in self.classes],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TemplateCatalogue":
        return cls(
            name=str(payload["name"]),
            classes=tuple(
                SliceClass.from_dict(entry) for entry in payload["classes"]
            ),
        )


#: Default city catalogue: a broadband-heavy mix with a latency-critical
#: inelastic stream and a long-lived IoT population arriving in the first
#: third of the horizon (the Table 1 templates under city churn).
CITY_CATALOGUE = TemplateCatalogue(
    name="city-v1",
    classes=(
        SliceClass(
            name="embb-elastic",
            template="eMBB",
            elastic=True,
            weight=3.0,
            duration_epochs=(24, 96),
            mean_fraction=0.35,
            relative_std=0.25,
        ),
        SliceClass(
            name="urllc-inelastic",
            template="uRLLC",
            elastic=False,
            weight=2.0,
            duration_epochs=(12, 48),
            mean_fraction=1.0,
            penalty_factor=2.0,
        ),
        SliceClass(
            name="mmtc-iot",
            template="mMTC",
            elastic=False,
            weight=1.0,
            duration_epochs=(96, 168),
            mean_fraction=1.0,
            churn="window",
            arrival_window_fraction=0.33,
        ),
    ),
)
