"""Versioned, JSON-serialisable DTOs of the northbound SliceBroker API.

Every DTO:

* is a frozen dataclass with value semantics (``==`` compares content);
* serialises to a plain JSON-safe dictionary via ``to_dict`` and rebuilds
  exactly via ``from_dict`` (``from_dict(to_dict(x)) == x``, including through
  an actual ``json.dumps``/``json.loads`` round trip);
* stamps its wire form with an explicit schema version
  (:data:`repro.api.wire.WIRE_VERSION` under ``"schema_version"``) and rejects
  unknown versions with a :class:`~repro.api.errors.ValidationError`.

The ``V1`` suffix on :class:`SliceRequestV1` marks the *wire* format
generation, not the Python class layout: a breaking change to the payload
shape introduces ``SliceRequestV2`` next to it rather than mutating V1 under
existing clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.api.errors import ValidationError
from repro.api.events import LifecycleEvent
from repro.api.wire import check_version, require, stamp
from repro.controlplane.slice_manager import SliceDescriptor
from repro.core.slices import TEMPLATES, SliceRequest, SliceTemplate

__all__ = [
    "SliceRequestV1",
    "AdmissionTicket",
    "SliceStatus",
    "SlicePage",
    "QuoteResponse",
    "EpochReport",
]


def _validated(build, dto_name: str):
    """Run a DTO constructor, translating malformed-payload failures into the
    taxonomy (AttributeError/KeyError cover wrong-shaped nested values, e.g.
    a scalar where a mapping is expected)."""
    try:
        return build()
    except ValidationError:
        raise
    except (TypeError, ValueError, AttributeError, KeyError) as error:
        raise ValidationError(f"invalid {dto_name} payload: {error}") from error


# --------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SliceRequestV1:
    """A tenant's slice request as it crosses the northbound boundary.

    Carries the full template inline (not just the catalogue name) so a
    payload is self-describing: tenants may request catalogue templates
    (:func:`SliceRequestV1.of`) or bespoke ones, and the broker never needs a
    shared catalogue to decode a request.
    """

    name: str
    template: SliceTemplate
    duration_epochs: int = 24
    penalty_factor: float = 1.0
    arrival_epoch: int = 0

    def __post_init__(self) -> None:
        # Structured taxonomy errors even on *direct* construction: the DTO
        # is itself the northbound boundary, so a tenant building one with a
        # bad field must see `code == "validation"`, not a bare ValueError
        # (RA02; the `of`/`from_dict` paths already translated, the plain
        # constructor leaked).
        if not self.name:
            raise ValidationError("slice name must be non-empty")
        if self.duration_epochs <= 0:
            raise ValidationError("duration_epochs must be positive")
        if self.penalty_factor < 0:
            raise ValidationError("penalty_factor must be non-negative")
        if self.arrival_epoch < 0:
            raise ValidationError("arrival_epoch must be non-negative")

    # -- conversions ---------------------------------------------------- #
    @classmethod
    def of(
        cls,
        name: str,
        slice_type: str,
        duration_epochs: int = 24,
        penalty_factor: float = 1.0,
        arrival_epoch: int = 0,
    ) -> "SliceRequestV1":
        """Build a request for one of the catalogue templates (Table 1)."""
        try:
            template = TEMPLATES[slice_type]
        except KeyError:
            raise ValidationError(
                f"unknown slice type {slice_type!r}",
                details={"known_types": sorted(TEMPLATES)},
            ) from None
        return _validated(
            lambda: cls(
                name=name,
                template=template,
                duration_epochs=duration_epochs,
                penalty_factor=penalty_factor,
                arrival_epoch=arrival_epoch,
            ),
            "SliceRequestV1",
        )

    @classmethod
    def from_request(cls, request: SliceRequest) -> "SliceRequestV1":
        """DTO form of a control-plane :class:`SliceRequest`."""
        return cls(
            name=request.name,
            template=request.template,
            duration_epochs=request.duration_epochs,
            penalty_factor=request.penalty_factor,
            arrival_epoch=request.arrival_epoch,
        )

    def to_request(self) -> SliceRequest:
        """Control-plane :class:`SliceRequest` this DTO describes."""
        return _validated(
            lambda: SliceRequest(
                name=self.name,
                template=self.template,
                duration_epochs=self.duration_epochs,
                penalty_factor=self.penalty_factor,
                arrival_epoch=self.arrival_epoch,
            ),
            "SliceRequestV1",
        )

    # -- wire format ---------------------------------------------------- #
    def to_dict(self) -> dict[str, Any]:
        return stamp(
            {
                "name": self.name,
                "slice_type": self.template.name,
                "template": {
                    "reward": self.template.reward,
                    "latency_tolerance_ms": self.template.latency_tolerance_ms,
                    "sla_mbps": self.template.sla_mbps,
                    "compute_baseline_cpus": self.template.compute_baseline_cpus,
                    "compute_cpus_per_mbps": self.template.compute_cpus_per_mbps,
                    "default_relative_std": self.template.default_relative_std,
                },
                "duration_epochs": self.duration_epochs,
                "penalty_factor": self.penalty_factor,
                "arrival_epoch": self.arrival_epoch,
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SliceRequestV1":
        check_version(payload, "SliceRequestV1")
        template_payload = require(payload, "template", "SliceRequestV1")
        if not isinstance(template_payload, Mapping):
            raise ValidationError(
                "SliceRequestV1 'template' must be a mapping of template fields"
            )
        template = _validated(
            lambda: SliceTemplate(
                name=str(require(payload, "slice_type", "SliceRequestV1")),
                reward=float(require(template_payload, "reward", "SliceRequestV1.template")),
                latency_tolerance_ms=float(
                    require(template_payload, "latency_tolerance_ms", "SliceRequestV1.template")
                ),
                sla_mbps=float(require(template_payload, "sla_mbps", "SliceRequestV1.template")),
                compute_baseline_cpus=float(
                    require(template_payload, "compute_baseline_cpus", "SliceRequestV1.template")
                ),
                compute_cpus_per_mbps=float(
                    require(template_payload, "compute_cpus_per_mbps", "SliceRequestV1.template")
                ),
                default_relative_std=float(template_payload.get("default_relative_std", 0.25)),
            ),
            "SliceRequestV1",
        )
        return _validated(
            lambda: cls(
                name=str(require(payload, "name", "SliceRequestV1")),
                template=template,
                duration_epochs=int(require(payload, "duration_epochs", "SliceRequestV1")),
                penalty_factor=float(require(payload, "penalty_factor", "SliceRequestV1")),
                arrival_epoch=int(require(payload, "arrival_epoch", "SliceRequestV1")),
            ),
            "SliceRequestV1",
        )


# --------------------------------------------------------------------- #
# Tickets and statuses
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class AdmissionTicket:
    """Receipt for an accepted submission (queued, not yet decided).

    The ticket proves intake: the request sits in the slice manager's queue
    and will compete for admission at its arrival epoch.  Replaying the same
    ``client_token`` returns an equal ticket without enqueueing twice.
    """

    ticket_id: str
    slice_name: str
    arrival_epoch: int
    descriptor: SliceDescriptor
    client_token: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return stamp(
            {
                "ticket_id": self.ticket_id,
                "slice_name": self.slice_name,
                "arrival_epoch": self.arrival_epoch,
                "descriptor": self.descriptor.as_dict(),
                "client_token": self.client_token,
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AdmissionTicket":
        check_version(payload, "AdmissionTicket")
        descriptor = _validated(
            lambda: SliceDescriptor.from_dict(require(payload, "descriptor", "AdmissionTicket")),
            "AdmissionTicket",
        )
        token = payload.get("client_token")
        return _validated(
            lambda: cls(
                ticket_id=str(require(payload, "ticket_id", "AdmissionTicket")),
                slice_name=str(require(payload, "slice_name", "AdmissionTicket")),
                arrival_epoch=int(require(payload, "arrival_epoch", "AdmissionTicket")),
                descriptor=descriptor,
                client_token=None if token is None else str(token),
            ),
            "AdmissionTicket",
        )


#: SliceStatus.state values (the registry lifecycle plus the broker-level
#: "queued" intake stage and "released" tenant-initiated termination).
STATUS_STATES = ("queued", "requested", "admitted", "rejected", "expired", "released")


@dataclass(frozen=True)
class SliceStatus:
    """Point-in-time lifecycle view of one slice, as clients see it."""

    name: str
    state: str
    arrival_epoch: int
    duration_epochs: int
    admitted_epoch: int | None = None
    expires_at: int | None = None
    compute_unit: str | None = None
    #: Excluded from __hash__ (dicts are unhashable); compared by equality.
    reservations_mbps: dict[str, float] = field(default_factory=dict, hash=False)
    renewal_count: int = 0

    def __post_init__(self) -> None:
        if self.state not in STATUS_STATES:
            raise ValidationError(
                f"unknown slice status state {self.state!r}; expected one of {STATUS_STATES}"
            )

    def to_dict(self) -> dict[str, Any]:
        return stamp(
            {
                "name": self.name,
                "state": self.state,
                "arrival_epoch": self.arrival_epoch,
                "duration_epochs": self.duration_epochs,
                "admitted_epoch": self.admitted_epoch,
                "expires_at": self.expires_at,
                "compute_unit": self.compute_unit,
                "reservations_mbps": dict(self.reservations_mbps),
                "renewal_count": self.renewal_count,
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SliceStatus":
        check_version(payload, "SliceStatus")
        admitted = payload.get("admitted_epoch")
        expires = payload.get("expires_at")
        unit = payload.get("compute_unit")
        return _validated(
            lambda: cls(
                name=str(require(payload, "name", "SliceStatus")),
                state=str(require(payload, "state", "SliceStatus")),
                arrival_epoch=int(require(payload, "arrival_epoch", "SliceStatus")),
                duration_epochs=int(require(payload, "duration_epochs", "SliceStatus")),
                admitted_epoch=None if admitted is None else int(admitted),
                expires_at=None if expires is None else int(expires),
                compute_unit=None if unit is None else str(unit),
                reservations_mbps={
                    str(k): float(v)
                    for k, v in payload.get("reservations_mbps", {}).items()
                },
                renewal_count=int(payload.get("renewal_count", 0)),
            ),
            "SliceStatus",
        )


# --------------------------------------------------------------------- #
# Quotes
# --------------------------------------------------------------------- #

class SlicePage(list):
    """One page of :class:`SliceStatus` DTOs plus its paging frame.

    The page *is* the list (name-sorted, stable across pages), so
    ``for status in broker.list_slices()`` call sites keep working, in
    process and over the wire alike; ``total`` is the broker-wide slice
    count taken from the same state as the page and ``offset`` echoes the
    page start, so a pager knows when it has drained the listing
    (``offset + len(page) >= total``).
    """

    def __init__(self, slices: Iterable[SliceStatus], total: int, offset: int):
        super().__init__(slices)
        self.total = total
        self.offset = offset


@dataclass(frozen=True)
class QuoteResponse:
    """Non-binding admission quote: what the broker would plan for a request.

    Mirrors what the forecasting block feeds the AC-RR problem (peak-load
    forecast and normalised uncertainty) together with the economic terms of
    the template -- nothing here mutates broker state.
    """

    slice_name: str
    slice_type: str
    sla_mbps: float
    forecast_peak_mbps: float
    forecast_sigma: float
    reward_per_epoch: float
    penalty_rate_per_mbps: float

    def to_dict(self) -> dict[str, Any]:
        return stamp(
            {
                "slice_name": self.slice_name,
                "slice_type": self.slice_type,
                "sla_mbps": self.sla_mbps,
                "forecast_peak_mbps": self.forecast_peak_mbps,
                "forecast_sigma": self.forecast_sigma,
                "reward_per_epoch": self.reward_per_epoch,
                "penalty_rate_per_mbps": self.penalty_rate_per_mbps,
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QuoteResponse":
        check_version(payload, "QuoteResponse")
        return _validated(
            lambda: cls(
                slice_name=str(require(payload, "slice_name", "QuoteResponse")),
                slice_type=str(require(payload, "slice_type", "QuoteResponse")),
                sla_mbps=float(require(payload, "sla_mbps", "QuoteResponse")),
                forecast_peak_mbps=float(
                    require(payload, "forecast_peak_mbps", "QuoteResponse")
                ),
                forecast_sigma=float(require(payload, "forecast_sigma", "QuoteResponse")),
                reward_per_epoch=float(require(payload, "reward_per_epoch", "QuoteResponse")),
                penalty_rate_per_mbps=float(
                    require(payload, "penalty_rate_per_mbps", "QuoteResponse")
                ),
            ),
            "QuoteResponse",
        )


# --------------------------------------------------------------------- #
# Epoch reports
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class EpochReport:
    """What one decision epoch did, as returned by ``advance_epoch``.

    ``accepted``/``rejected`` mirror the epoch's admission decision (accepted
    includes committed slices whose reservations were re-confirmed);
    ``expired``/``renewed`` list the lifecycle transitions the epoch caused;
    ``events`` carries the full ordered event stream the broker published for
    the epoch.

    Degradation fields (see DESIGN.md, "Fault model & degraded modes"):
    ``degraded`` is True when any fault fired during the epoch or the
    decision came from a fallback tier; ``solver_tier`` names the
    safeguard-chain tier that produced the decision ("primary",
    "warm_replay", "no_overbooking", "reject_all"); ``solver_retries``
    counts transient-failure retries spent; ``health`` is the broker health
    state after the epoch ("healthy", "degraded", "safe_mode");
    ``degraded_reasons`` lists the faults/fallbacks behind the flag;
    ``rehomed`` names the slices a mid-epoch link failure displaced into the
    renewal path this epoch.
    """

    epoch: int
    idle: bool
    objective_value: float
    accepted: tuple[str, ...] = ()
    rejected: tuple[str, ...] = ()
    expired: tuple[str, ...] = ()
    renewed: tuple[str, ...] = ()
    active: tuple[str, ...] = ()
    pending_requests: int = 0
    solver: str = ""
    solver_iterations: int = 0
    solver_runtime_s: float = 0.0
    solver_optimal: bool = True
    solver_warm_cuts: int = 0
    solver_message: str = ""
    #: True when the solver hit its wall-clock budget and returned its best
    #: incumbent without an optimality certificate (distinct from
    #: ``solver_optimal``, which can also be False for a clean gap-limited
    #: stop); consumers should treat such a decision as provisional.
    solver_time_truncated: bool = False
    events: tuple[LifecycleEvent, ...] = ()
    degraded: bool = False
    solver_tier: str = "primary"
    solver_retries: int = 0
    health: str = "healthy"
    degraded_reasons: tuple[str, ...] = ()
    rehomed: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return stamp(
            {
                "epoch": self.epoch,
                "idle": self.idle,
                "objective_value": self.objective_value,
                "accepted": list(self.accepted),
                "rejected": list(self.rejected),
                "expired": list(self.expired),
                "renewed": list(self.renewed),
                "active": list(self.active),
                "pending_requests": self.pending_requests,
                "solver": self.solver,
                "solver_iterations": self.solver_iterations,
                "solver_runtime_s": self.solver_runtime_s,
                "solver_optimal": self.solver_optimal,
                "solver_warm_cuts": self.solver_warm_cuts,
                "solver_message": self.solver_message,
                "solver_time_truncated": self.solver_time_truncated,
                "events": [event.to_dict() for event in self.events],
                "degraded": self.degraded,
                "solver_tier": self.solver_tier,
                "solver_retries": self.solver_retries,
                "health": self.health,
                "degraded_reasons": list(self.degraded_reasons),
                "rehomed": list(self.rehomed),
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EpochReport":
        check_version(payload, "EpochReport")

        def names(key: str) -> tuple[str, ...]:
            value = payload.get(key, ())
            if not isinstance(value, (list, tuple)):
                # A scalar (notably a string, which would silently explode
                # into per-character "names") is a malformed payload.
                raise ValidationError(
                    f"EpochReport field {key!r} must be a list of slice names, "
                    f"got {type(value).__name__}"
                )
            return tuple(str(name) for name in value)

        events = _validated(
            lambda: tuple(
                LifecycleEvent.from_dict(event) for event in payload.get("events", ())
            ),
            "EpochReport",
        )
        return _validated(
            lambda: cls(
                epoch=int(require(payload, "epoch", "EpochReport")),
                idle=bool(require(payload, "idle", "EpochReport")),
                objective_value=float(require(payload, "objective_value", "EpochReport")),
                accepted=names("accepted"),
                rejected=names("rejected"),
                expired=names("expired"),
                renewed=names("renewed"),
                active=names("active"),
                pending_requests=int(payload.get("pending_requests", 0)),
                solver=str(payload.get("solver", "")),
                solver_iterations=int(payload.get("solver_iterations", 0)),
                solver_runtime_s=float(payload.get("solver_runtime_s", 0.0)),
                solver_optimal=bool(payload.get("solver_optimal", True)),
                solver_warm_cuts=int(payload.get("solver_warm_cuts", 0)),
                solver_message=str(payload.get("solver_message", "")),
                solver_time_truncated=bool(
                    payload.get("solver_time_truncated", False)
                ),
                events=events,
                degraded=bool(payload.get("degraded", False)),
                solver_tier=str(payload.get("solver_tier", "primary")),
                solver_retries=int(payload.get("solver_retries", 0)),
                health=str(payload.get("health", "healthy")),
                degraded_reasons=names("degraded_reasons"),
                rehomed=names("rehomed"),
            ),
            "EpochReport",
        )
