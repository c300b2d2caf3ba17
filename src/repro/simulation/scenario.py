"""Scenario definitions for the evaluation.

A scenario bundles a topology, a workload (slice requests plus their demand
behaviour) and the simulation knobs.  Three constructors mirror the paper's
evaluation set-ups:

* :func:`homogeneous_scenario` -- Fig. 5: all tenants use the same slice
  template, demand has mean ``alpha * Lambda`` and standard deviation
  ``sigma``, and the penalty factor ``m`` is shared;
* :func:`heterogeneous_scenario` -- Fig. 6: two slice types mixed with ratio
  ``beta`` at fixed mean load ``0.2 * Lambda``;
* :func:`testbed_scenario` -- Section 5 / Fig. 8: nine slices (3 uRLLC,
  3 mMTC, 3 eMBB) arriving every two hours on the two-BS testbed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.slices import (
    EMBB_TEMPLATE,
    MMTC_TEMPLATE,
    SliceRequest,
    SliceTemplate,
    URLLC_TEMPLATE,
)
from repro.topology.network import NetworkTopology
from repro.topology.operators import (
    OPERATOR_FACTORIES,
    testbed_topology,
)
from repro.traffic.patterns import DemandSpec
from repro.utils.validation import ensure_choice, ensure_in_range, ensure_positive_int

#: Tenant counts used in the paper's simulations (75 for the Italian network
#: because it has much more radio/transport capacity).
PAPER_TENANT_COUNTS = {"romanian": 10, "swiss": 10, "italian": 75}


@dataclass(frozen=True)
class SliceWorkload:
    """One tenant: its slice request and the demand it will generate."""

    request: SliceRequest
    demand: DemandSpec

    @property
    def name(self) -> str:
        return self.request.name


@dataclass(frozen=True)
class LinkFailureEvent:
    """A mid-run capacity-loss episode.

    At the start of ``epoch``'s admission round every link in ``links``
    permanently drops to ``capacity_factor`` times its current capacity
    (links never vanish outright -- a transport link needs positive
    capacity).  Slices whose reservations no longer fit are displaced and
    re-admitted through the orchestrator's re-homing path.
    """

    epoch: int
    links: tuple[tuple[str, str], ...]
    capacity_factor: float

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {self.epoch!r}")
        if not self.links:
            raise ValueError("a link-failure event needs at least one link")
        if not 0.0 < self.capacity_factor < 1.0:
            raise ValueError(
                f"capacity_factor must lie in (0, 1), got {self.capacity_factor!r}"
            )
        object.__setattr__(
            self,
            "links",
            tuple(tuple(sorted((str(a), str(b)))) for a, b in self.links),
        )


@dataclass(frozen=True)
class Scenario:
    """A complete simulation configuration."""

    name: str
    topology: NetworkTopology
    workloads: tuple[SliceWorkload, ...]
    num_epochs: int = 24
    epochs_per_day: int = 24
    samples_per_epoch: int = 12
    candidate_paths_per_pair: int = 3
    # "oracle" derives forecasts from the demand statistics (the Fig. 5/6
    # steady-state evaluation); "online" learns them from monitoring data
    # (the Fig. 8 testbed behaviour).
    forecast_mode: str = "oracle"
    record_usage: bool = False
    seed: int | None = None
    #: Mid-run capacity-loss episodes, applied by whatever drives the
    #: scenario (the simulation engine schedules them on the broker; the
    #: differential oracle folds past episodes into the epoch's instance).
    link_failures: tuple[LinkFailureEvent, ...] = ()

    def __post_init__(self) -> None:
        ensure_positive_int(self.num_epochs, "num_epochs")
        ensure_positive_int(self.epochs_per_day, "epochs_per_day")
        ensure_positive_int(self.samples_per_epoch, "samples_per_epoch")
        ensure_positive_int(self.candidate_paths_per_pair, "candidate_paths_per_pair")
        ensure_choice(self.forecast_mode, ("oracle", "online"), "forecast_mode")
        if not self.workloads:
            raise ValueError("a scenario needs at least one slice workload")
        names = [w.name for w in self.workloads]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"workload slice names must be unique, got duplicates {duplicates}")
        known_links = {link.key for link in self.topology.links}
        for event in self.link_failures:
            if event.epoch >= self.num_epochs:
                raise ValueError(
                    f"link failure at epoch {event.epoch} lies outside the "
                    f"{self.num_epochs}-epoch horizon"
                )
            unknown = sorted(set(event.links) - known_links)
            if unknown:
                raise ValueError(f"link failure names unknown links: {unknown}")

    @property
    def requests(self) -> list[SliceRequest]:
        return [w.request for w in self.workloads]

    def workload(self, name: str) -> SliceWorkload:
        for candidate in self.workloads:
            if candidate.name == name:
                return candidate
        raise KeyError(f"unknown workload {name!r}")


# --------------------------------------------------------------------- #
# Scenario constructors
# --------------------------------------------------------------------- #
def _resolve_topology(
    operator: str | NetworkTopology,
    num_base_stations: int | None,
    seed: int | None,
) -> NetworkTopology:
    if isinstance(operator, NetworkTopology):
        return operator
    try:
        factory = OPERATOR_FACTORIES[operator]
    except KeyError as exc:
        raise KeyError(
            f"unknown operator {operator!r}; expected one of {sorted(OPERATOR_FACTORIES)}"
        ) from exc
    return factory(num_base_stations=num_base_stations, seed=seed)


def homogeneous_scenario(
    operator: str | NetworkTopology,
    template: SliceTemplate,
    num_tenants: int,
    mean_load_fraction: float,
    relative_std: float = 0.25,
    penalty_factor: float = 1.0,
    num_epochs: int = 24,
    num_base_stations: int | None = None,
    seed: int | None = None,
    forecast_mode: str = "oracle",
) -> Scenario:
    """The homogeneous scenarios of Fig. 5.

    ``mean_load_fraction`` is the paper's ``alpha`` (mean load over SLA) and
    ``relative_std`` is ``sigma / lambda_bar`` (0, 1/4 or 1/2 in the paper).
    """
    ensure_in_range(mean_load_fraction, 0.0, 1.0, "mean_load_fraction")
    ensure_positive_int(num_tenants, "num_tenants")
    topology = _resolve_topology(operator, num_base_stations, seed)
    spec = DemandSpec(mean_fraction=mean_load_fraction, relative_std=relative_std)
    workloads = tuple(
        SliceWorkload(
            request=SliceRequest(
                name=f"{template.name}-{i}",
                template=template,
                duration_epochs=num_epochs,
                penalty_factor=penalty_factor,
                arrival_epoch=0,
            ),
            demand=spec,
        )
        for i in range(num_tenants)
    )
    operator_name = topology.name
    return Scenario(
        name=(
            f"fig5:{operator_name}:{template.name}:alpha={mean_load_fraction:.2f}:"
            f"rel_std={relative_std:.2f}:m={penalty_factor:g}"
        ),
        topology=topology,
        workloads=workloads,
        num_epochs=num_epochs,
        forecast_mode=forecast_mode,
        seed=seed,
    )


def heterogeneous_scenario(
    operator: str | NetworkTopology,
    template_a: SliceTemplate,
    template_b: SliceTemplate,
    num_tenants: int,
    fraction_b: float,
    mean_load_fraction: float = 0.2,
    relative_std: float = 0.25,
    penalty_factor: float = 1.0,
    num_epochs: int = 24,
    num_base_stations: int | None = None,
    seed: int | None = None,
    forecast_mode: str = "oracle",
) -> Scenario:
    """The heterogeneous scenarios of Fig. 6.

    ``fraction_b`` is the paper's ``beta``: the share of tenants using
    ``template_b`` (the remaining tenants use ``template_a``).  The mean load
    is fixed to ``0.2 * Lambda`` in the paper.
    """
    ensure_in_range(fraction_b, 0.0, 1.0, "fraction_b")
    ensure_positive_int(num_tenants, "num_tenants")
    topology = _resolve_topology(operator, num_base_stations, seed)
    spec = DemandSpec(mean_fraction=mean_load_fraction, relative_std=relative_std)
    count_b = int(round(fraction_b * num_tenants))
    count_a = num_tenants - count_b
    workloads: list[SliceWorkload] = []
    for i in range(count_a):
        workloads.append(
            SliceWorkload(
                request=SliceRequest(
                    name=f"{template_a.name}-{i}",
                    template=template_a,
                    duration_epochs=num_epochs,
                    penalty_factor=penalty_factor,
                ),
                demand=spec,
            )
        )
    for i in range(count_b):
        workloads.append(
            SliceWorkload(
                request=SliceRequest(
                    name=f"{template_b.name}-{i}",
                    template=template_b,
                    duration_epochs=num_epochs,
                    penalty_factor=penalty_factor,
                ),
                demand=spec,
            )
        )
    return Scenario(
        name=(
            f"fig6:{topology.name}:{template_a.name}+{template_b.name}:"
            f"beta={fraction_b:.2f}:m={penalty_factor:g}"
        ),
        topology=topology,
        workloads=tuple(workloads),
        num_epochs=num_epochs,
        forecast_mode=forecast_mode,
        seed=seed,
    )


def testbed_scenario(
    num_epochs: int = 18,
    penalty_factor: float = 1.0,
    mean_load_fraction: float = 0.5,
    relative_std: float = 0.1,
    seed: int | None = None,
) -> Scenario:
    """The dynamic proof-of-concept experiment of Section 5 (Fig. 8).

    Nine slice requests -- three uRLLC, then three mMTC, then three eMBB --
    arrive every two epochs (the paper's epochs are one hour long, starting
    at 06:00).  Demand has mean ``Lambda / 2`` and a standard deviation of
    10 % of the mean; forecasts are learnt online from monitoring data.
    """
    topology = testbed_topology()
    spec = DemandSpec(
        mean_fraction=mean_load_fraction, relative_std=relative_std, seasonal=False
    )
    arrival_plan: list[tuple[SliceTemplate, str]] = [
        (URLLC_TEMPLATE, "uRLLC1"),
        (URLLC_TEMPLATE, "uRLLC2"),
        (URLLC_TEMPLATE, "uRLLC3"),
        (MMTC_TEMPLATE, "mMTC1"),
        (MMTC_TEMPLATE, "mMTC2"),
        (MMTC_TEMPLATE, "mMTC3"),
        (EMBB_TEMPLATE, "eMBB1"),
        (EMBB_TEMPLATE, "eMBB2"),
        (EMBB_TEMPLATE, "eMBB3"),
    ]
    workloads = []
    for index, (template, name) in enumerate(arrival_plan):
        arrival = 2 * index
        workloads.append(
            SliceWorkload(
                request=SliceRequest(
                    name=name,
                    template=template,
                    duration_epochs=num_epochs,
                    penalty_factor=penalty_factor,
                    arrival_epoch=arrival,
                ),
                demand=spec,
            )
        )
    return Scenario(
        name="fig8:testbed",
        topology=topology,
        workloads=tuple(workloads),
        num_epochs=num_epochs,
        forecast_mode="online",
        record_usage=True,
        seed=seed,
    )
