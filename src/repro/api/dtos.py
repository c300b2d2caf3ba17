"""Versioned, JSON-serialisable DTOs of the northbound SliceBroker API.

Every DTO:

* is a frozen dataclass with value semantics (``==`` compares content);
* serialises to a plain JSON-safe dictionary via ``to_dict`` and rebuilds
  exactly via ``from_dict`` (``from_dict(to_dict(x)) == x``, including through
  an actual ``json.dumps``/``json.loads`` round trip);
* stamps its wire form with an explicit schema version
  (:data:`repro.api.wire.WIRE_VERSION` under ``"schema_version"``) and rejects
  unknown versions with a :class:`~repro.api.errors.ValidationError`;
* declares each field once, with its rule, for :mod:`repro.api.wire`'s codec
  (:class:`SliceRequestV1`, whose template is inline, writes its own).

The ``V1`` suffix on :class:`SliceRequestV1` marks the *wire* format
generation, not the Python class layout: a breaking change to the payload
shape introduces ``SliceRequestV2`` next to it rather than mutating V1 under
existing clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.api.errors import ValidationError
from repro.api.events import LifecycleEvent
from repro.api.wire import WireType, check_version, checked, require, stamp
from repro.controlplane.slice_manager import SliceDescriptor
from repro.core.slices import TEMPLATES, SliceRequest, SliceTemplate
from repro.faults.safeguard import TIER_ORDER, BrokerHealth
from repro.utils.validation import (
    ensure_bool, ensure_choice, ensure_finite, ensure_mapping, ensure_non_negative_finite,
    ensure_non_negative_int, ensure_positive_int, ensure_str, ensure_text, ruled,
)

__all__ = [
    "SliceRequestV1",
    "AdmissionTicket",
    "SliceStatus",
    "SlicePage",
    "QuoteResponse",
    "EpochReport",
]


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

    name: str = ruled(ensure_text)
    template: SliceTemplate
    duration_epochs: int = ruled(ensure_positive_int, default=24)
    penalty_factor: float = ruled(ensure_non_negative_finite, default=1.0)
    arrival_epoch: int = ruled(ensure_non_negative_int, default=0)

    def __post_init__(self) -> None:
        # Direct construction, ``of`` and ``from_dict`` all meet the field
        # rules here; each field keeps the plain value its rule returns.
        for name, field in self.__dataclass_fields__.items():
            if field.metadata:  # the template checks itself
                value = checked(field.metadata["rule"], getattr(self, name), name)
                object.__setattr__(self, name, value)

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
        return cls(
            name=name,
            template=template,
            duration_epochs=duration_epochs,
            penalty_factor=penalty_factor,
            arrival_epoch=arrival_epoch,
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
        return SliceRequest(
            name=self.name,
            template=self.template,
            duration_epochs=self.duration_epochs,
            penalty_factor=self.penalty_factor,
            arrival_epoch=self.arrival_epoch,
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
        template_payload = checked(
            ensure_mapping, require(payload, "template", "SliceRequestV1"), "template"
        )
        where = "SliceRequestV1.template"
        # The template's own rules refuse as the template field.
        template = checked(
            lambda spec, _name: SliceTemplate(
                name=require(payload, "slice_type", "SliceRequestV1"),
                reward=require(spec, "reward", where),
                latency_tolerance_ms=require(spec, "latency_tolerance_ms", where),
                sla_mbps=require(spec, "sla_mbps", where),
                compute_baseline_cpus=require(spec, "compute_baseline_cpus", where),
                compute_cpus_per_mbps=require(spec, "compute_cpus_per_mbps", where),
                default_relative_std=spec.get("default_relative_std", 0.25),
            ),
            template_payload,
            "template",
        )
        return cls(
            name=require(payload, "name", "SliceRequestV1"),
            template=template,
            duration_epochs=require(payload, "duration_epochs", "SliceRequestV1"),
            penalty_factor=require(payload, "penalty_factor", "SliceRequestV1"),
            arrival_epoch=require(payload, "arrival_epoch", "SliceRequestV1"),
        )


# --------------------------------------------------------------------- #
# Tickets and statuses
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class AdmissionTicket(WireType):
    """Receipt for an accepted submission (queued, not yet decided).

    The ticket proves intake: the request sits in the slice manager's queue
    and will compete for admission at its arrival epoch.  Replaying the same
    ``client_token`` returns an equal ticket without enqueueing twice.
    """

    ticket_id: str = ruled(ensure_text)
    slice_name: str = ruled(ensure_text)
    arrival_epoch: int = ruled(ensure_non_negative_int)
    descriptor: SliceDescriptor = ruled(SliceDescriptor)
    client_token: str | None = ruled(ensure_text, default=None)


#: SliceStatus.state values (the registry lifecycle plus the broker-level
#: "queued" intake stage and "released" tenant-initiated termination).
STATUS_STATES = ("queued", "requested", "admitted", "rejected", "expired", "released")


@dataclass(frozen=True)
class SliceStatus(WireType):
    """Point-in-time lifecycle view of one slice, as clients see it."""

    name: str = ruled(ensure_text)
    state: str = ruled(STATUS_STATES)
    arrival_epoch: int = ruled(ensure_non_negative_int)
    duration_epochs: int = ruled(ensure_positive_int)
    admitted_epoch: int | None = ruled(ensure_non_negative_int, default=None)
    expires_at: int | None = ruled(ensure_non_negative_int, default=None)
    compute_unit: str | None = ruled(ensure_text, default=None)
    #: Excluded from __hash__ (dicts are unhashable); compared by equality.
    reservations_mbps: dict[str, float] = ruled(
        {str: ensure_non_negative_finite}, default_factory=dict, hash=False
    )
    renewal_count: int = ruled(ensure_non_negative_int, default=0)

    def __post_init__(self) -> None:  # direct construction; decode checks the rule
        if self.state not in STATUS_STATES:
            checked(ensure_choice, self.state, "state", STATUS_STATES)


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
class QuoteResponse(WireType):
    """Non-binding admission quote: what the broker would plan for a request.

    Mirrors what the forecasting block feeds the AC-RR problem (peak-load
    forecast and normalised uncertainty) together with the economic terms of
    the template -- nothing here mutates broker state.
    """

    slice_name: str = ruled(ensure_text)
    slice_type: str = ruled(ensure_text)
    sla_mbps: float = ruled(ensure_non_negative_finite)
    forecast_peak_mbps: float = ruled(ensure_non_negative_finite)
    forecast_sigma: float = ruled(ensure_non_negative_finite)
    reward_per_epoch: float = ruled(ensure_non_negative_finite)
    penalty_rate_per_mbps: float = ruled(ensure_non_negative_finite)


# --------------------------------------------------------------------- #
# Epoch reports
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class EpochReport(WireType):
    """What one decision epoch did, as returned by ``advance_epoch``.

    ``accepted``/``rejected`` mirror the epoch's admission decision (accepted
    includes committed slices whose reservations were re-confirmed);
    ``expired``/``renewed`` list the lifecycle transitions the epoch caused;
    ``events`` carries the full ordered event stream the broker published for
    the epoch.

    Degradation fields (see DESIGN.md, "Fault model & degraded modes"):
    ``degraded`` is True when any fault fired during the epoch or the
    decision came from a fallback tier; ``solver_tier`` names the
    safeguard-chain tier that produced the decision; ``solver_retries``
    counts transient-failure retries spent; ``health`` is the broker health
    state after the epoch;
    ``degraded_reasons`` lists the faults/fallbacks behind the flag;
    ``rehomed`` names the slices a mid-epoch link failure displaced into the
    renewal path this epoch.
    """

    epoch: int = ruled(ensure_non_negative_int)
    idle: bool = ruled(ensure_bool)
    objective_value: float = ruled(ensure_finite)
    accepted: tuple[str, ...] = ruled([ensure_text], default=())
    rejected: tuple[str, ...] = ruled([ensure_text], default=())
    expired: tuple[str, ...] = ruled([ensure_text], default=())
    renewed: tuple[str, ...] = ruled([ensure_text], default=())
    active: tuple[str, ...] = ruled([ensure_text], default=())
    pending_requests: int = ruled(ensure_non_negative_int, default=0)
    solver: str = ruled(ensure_str, default="")
    solver_iterations: int = ruled(ensure_non_negative_int, default=0)
    solver_runtime_s: float = ruled(ensure_non_negative_finite, default=0.0)
    solver_optimal: bool = ruled(ensure_bool, default=True)
    solver_warm_cuts: int = ruled(ensure_non_negative_int, default=0)
    solver_message: str = ruled(ensure_str, default="")
    #: True when the solver hit its wall-clock budget and returned its best
    #: incumbent without an optimality certificate (distinct from
    #: ``solver_optimal``, which can also be False for a clean gap-limited
    #: stop); consumers should treat such a decision as provisional.
    solver_time_truncated: bool = ruled(ensure_bool, default=False)
    events: tuple[LifecycleEvent, ...] = ruled([LifecycleEvent], default=())
    degraded: bool = ruled(ensure_bool, default=False)
    solver_tier: str = ruled(TIER_ORDER, default="primary")
    solver_retries: int = ruled(ensure_non_negative_int, default=0)
    health: str = ruled(tuple(h.value for h in BrokerHealth), default="healthy")
    degraded_reasons: tuple[str, ...] = ruled([ensure_str], default=())
    rehomed: tuple[str, ...] = ruled([ensure_text], default=())
