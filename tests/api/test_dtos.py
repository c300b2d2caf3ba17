"""DTO round-trip contract: ``from_dict(to_dict(x)) == x`` for every DTO,
including through a real JSON encode/decode, with the wire format carrying an
explicit schema version."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.dtos import (
    AdmissionTicket,
    EpochReport,
    QuoteResponse,
    SliceRequestV1,
    SliceStatus,
)
from repro.api.errors import ValidationError
from repro.api.events import LifecycleEvent, LifecycleEventKind
from repro.api.transport import encode_json
from repro.api.wire import VERSION_KEY, WIRE_VERSION, decode, encode
from repro.controlplane.slice_manager import SliceDescriptor
from repro.core.slices import TEMPLATES, SliceRequest, SliceTemplate

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz-0123456789", min_size=1, max_size=12
)
positive_floats = st.floats(
    min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False
)
non_negative_floats = st.floats(
    min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
)

templates = st.one_of(
    st.sampled_from(sorted(TEMPLATES)).map(TEMPLATES.__getitem__),
    st.builds(
        SliceTemplate,
        name=names,
        reward=positive_floats,
        latency_tolerance_ms=positive_floats,
        sla_mbps=positive_floats,
        compute_baseline_cpus=non_negative_floats,
        compute_cpus_per_mbps=non_negative_floats,
        default_relative_std=st.floats(
            min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
        ),
    ),
)

requests_v1 = st.builds(
    SliceRequestV1,
    name=names,
    template=templates,
    duration_epochs=st.integers(min_value=1, max_value=200),
    penalty_factor=non_negative_floats,
    arrival_epoch=st.integers(min_value=0, max_value=500),
)

descriptors = st.builds(
    SliceDescriptor,
    slice_name=names,
    slice_type=names,
    sla_mbps=positive_floats,
    latency_tolerance_ms=positive_floats,
    duration_epochs=st.integers(min_value=1, max_value=200),
    compute_model=st.one_of(
        st.fixed_dictionaries(
            {"baseline_cpus": non_negative_floats, "cpus_per_mbps": non_negative_floats}
        ),
        st.dictionaries(names, non_negative_floats, max_size=3),
    ),
    reward=positive_floats,
    penalty_factor=non_negative_floats,
)

tickets = st.builds(
    AdmissionTicket,
    ticket_id=names,
    slice_name=names,
    arrival_epoch=st.integers(min_value=0, max_value=500),
    descriptor=descriptors,
    client_token=st.one_of(st.none(), names),
)

statuses = st.builds(
    SliceStatus,
    name=names,
    state=st.sampled_from(
        ("queued", "requested", "admitted", "rejected", "expired", "released")
    ),
    arrival_epoch=st.integers(min_value=0, max_value=500),
    duration_epochs=st.integers(min_value=1, max_value=200),
    admitted_epoch=st.one_of(st.none(), st.integers(min_value=0, max_value=500)),
    expires_at=st.one_of(st.none(), st.integers(min_value=0, max_value=1000)),
    compute_unit=st.one_of(st.none(), names),
    reservations_mbps=st.dictionaries(names, non_negative_floats, max_size=4),
    renewal_count=st.integers(min_value=0, max_value=5),
)

quotes = st.builds(
    QuoteResponse,
    slice_name=names,
    slice_type=names,
    sla_mbps=positive_floats,
    forecast_peak_mbps=non_negative_floats,
    forecast_sigma=st.floats(
        min_value=0.001, max_value=1.0, allow_nan=False, allow_infinity=False
    ),
    reward_per_epoch=positive_floats,
    penalty_rate_per_mbps=non_negative_floats,
)

events = st.builds(
    LifecycleEvent,
    kind=st.sampled_from(list(LifecycleEventKind)),
    slice_name=names,
    epoch=st.integers(min_value=0, max_value=500),
    metadata=st.dictionaries(
        names,
        st.one_of(st.none(), st.integers(-100, 100), non_negative_floats, names),
        max_size=3,
    ),
)

name_tuples = st.lists(names, max_size=4, unique=True).map(tuple)

reports = st.builds(
    EpochReport,
    epoch=st.integers(min_value=0, max_value=500),
    idle=st.booleans(),
    objective_value=st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    accepted=name_tuples,
    rejected=name_tuples,
    expired=name_tuples,
    renewed=name_tuples,
    active=name_tuples,
    pending_requests=st.integers(min_value=0, max_value=50),
    solver=names,
    solver_iterations=st.integers(min_value=0, max_value=1000),
    solver_runtime_s=non_negative_floats,
    solver_optimal=st.booleans(),
    solver_warm_cuts=st.integers(min_value=0, max_value=1000),
    solver_message=st.text(max_size=40),
    solver_time_truncated=st.booleans(),
    events=st.lists(events, max_size=3).map(tuple),
    degraded=st.booleans(),
    solver_tier=st.sampled_from(
        ["primary", "warm_replay", "no_overbooking", "reject_all"]
    ),
    solver_retries=st.integers(min_value=0, max_value=5),
    health=st.sampled_from(["healthy", "degraded", "safe_mode"]),
    degraded_reasons=st.lists(st.text(max_size=30), max_size=3).map(tuple),
    rehomed=name_tuples,
)

ALL_DTOS = [
    ("SliceRequestV1", requests_v1, SliceRequestV1),
    ("AdmissionTicket", tickets, AdmissionTicket),
    ("SliceStatus", statuses, SliceStatus),
    ("QuoteResponse", quotes, QuoteResponse),
    ("LifecycleEvent", events, LifecycleEvent),
    ("EpochReport", reports, EpochReport),
]


# --------------------------------------------------------------------- #
# Round trips
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name,strategy,cls", ALL_DTOS, ids=lambda p: str(p)[:20])
def test_round_trip_through_json(name, strategy, cls):
    @settings(max_examples=60, deadline=None)
    @given(strategy)
    def check(dto):
        payload = dto.to_dict()
        assert payload[VERSION_KEY] == WIRE_VERSION
        rebuilt = cls.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt == dto

    check()


@settings(max_examples=60, deadline=None)
@given(descriptors)
def test_descriptor_round_trips_unstamped_through_json(descriptor):
    payload = encode(descriptor)
    assert VERSION_KEY not in payload
    assert decode(SliceDescriptor, json.loads(json.dumps(payload))) == descriptor


#: The stamped response wire types.
STAMPED_TYPES = (AdmissionTicket, SliceStatus, QuoteResponse, EpochReport, LifecycleEvent)


@pytest.mark.parametrize("strategy,cls", [
    (tickets, AdmissionTicket),
    (statuses, SliceStatus),
    (quotes, QuoteResponse),
    (reports, EpochReport),
    (events, LifecycleEvent),
    (descriptors, SliceDescriptor),
], ids=lambda p: getattr(p, "__name__", ""))
def test_the_payload_keys_are_the_field_names(strategy, cls):
    @settings(max_examples=10, deadline=None)
    @given(strategy)
    def check(dto):
        payload = encode(dto) if cls is SliceDescriptor else dto.to_dict()
        assert set(payload) - {VERSION_KEY} == {f.name for f in dataclasses.fields(cls)}

    check()


# --------------------------------------------------------------------- #
# Wire version 1, byte for byte
# --------------------------------------------------------------------- #
_EXPIRED = LifecycleEvent(LifecycleEventKind.EXPIRED, "s0", 3, {"admitted_epoch": None})
_ADMITTED = LifecycleEvent(
    LifecycleEventKind.ADMITTED,
    "s1",
    3,
    {"objective_value": -1.5, "compute_unit": "cu-edge", "reserved_mbps_total": 21.5},
)

#: One fully populated instance of each wire type (every optional field off
#: its default) and the bytes its version-1 encoding is.
PINNED = [
    (
        AdmissionTicket(
            "tkt-000007",
            "s1",
            3,
            SliceDescriptor(
                slice_name="s1",
                slice_type="eMBB",
                sla_mbps=50.0,
                latency_tolerance_ms=30.0,
                duration_epochs=4,
                compute_model={"baseline_cpus": 0.5, "cpus_per_mbps": 0.25},
                reward=1.5,
                penalty_factor=2.0,
            ),
            client_token="tok-1",
        ),
        b'{"arrival_epoch": 3, "client_token": "tok-1", "descriptor": {"compute_model": '
        b'{"baseline_cpus": 0.5, "cpus_per_mbps": 0.25}, "duration_epochs": 4, '
        b'"latency_tolerance_ms": 30.0, "penalty_factor": 2.0, "reward": 1.5, '
        b'"sla_mbps": 50.0, "slice_name": "s1", "slice_type": "eMBB"}, '
        b'"schema_version": 1, "slice_name": "s1", "ticket_id": "tkt-000007"}',
    ),
    (
        SliceStatus(
            "s1",
            "admitted",
            3,
            4,
            admitted_epoch=3,
            expires_at=7,
            compute_unit="cu-edge",
            reservations_mbps={"bs-0": 12.5, "bs-1": 0.25},
            renewal_count=2,
        ),
        b'{"admitted_epoch": 3, "arrival_epoch": 3, "compute_unit": "cu-edge", '
        b'"duration_epochs": 4, "expires_at": 7, "name": "s1", "renewal_count": 2, '
        b'"reservations_mbps": {"bs-0": 12.5, "bs-1": 0.25}, "schema_version": 1, '
        b'"state": "admitted"}',
    ),
    (
        QuoteResponse("s1", "eMBB", 50.0, 21.5, 0.125, 1.5, 0.03),
        b'{"forecast_peak_mbps": 21.5, "forecast_sigma": 0.125, '
        b'"penalty_rate_per_mbps": 0.03, "reward_per_epoch": 1.5, "schema_version": 1, '
        b'"sla_mbps": 50.0, "slice_name": "s1", "slice_type": "eMBB"}',
    ),
    (
        _ADMITTED,
        b'{"epoch": 3, "kind": "admitted", "metadata": {"compute_unit": "cu-edge", '
        b'"objective_value": -1.5, "reserved_mbps_total": 21.5}, "schema_version": 1, '
        b'"slice_name": "s1"}',
    ),
    (
        EpochReport(
            epoch=3,
            idle=False,
            objective_value=-1.5,
            accepted=("s1", "s2"),
            rejected=("s4",),
            expired=("s0",),
            renewed=("s2",),
            active=("s1", "s2"),
            pending_requests=2,
            solver="benders",
            solver_iterations=7,
            solver_runtime_s=0.125,
            solver_optimal=False,
            solver_warm_cuts=3,
            solver_message="gap limit",
            solver_time_truncated=True,
            events=(_EXPIRED, _ADMITTED),
            degraded=True,
            solver_tier="warm_replay",
            solver_retries=1,
            health="degraded",
            degraded_reasons=("solver tier warm_replay: injected",),
            rehomed=("s2",),
        ),
        b'{"accepted": ["s1", "s2"], "active": ["s1", "s2"], "degraded": true, '
        b'"degraded_reasons": ["solver tier warm_replay: injected"], "epoch": 3, '
        b'"events": [{"epoch": 3, "kind": "expired", "metadata": {"admitted_epoch": null}, '
        b'"schema_version": 1, "slice_name": "s0"}, {"epoch": 3, "kind": "admitted", '
        b'"metadata": {"compute_unit": "cu-edge", "objective_value": -1.5, '
        b'"reserved_mbps_total": 21.5}, "schema_version": 1, "slice_name": "s1"}], '
        b'"expired": ["s0"], "health": "degraded", "idle": false, "objective_value": -1.5, '
        b'"pending_requests": 2, "rehomed": ["s2"], "rejected": ["s4"], "renewed": ["s2"], '
        b'"schema_version": 1, "solver": "benders", "solver_iterations": 7, '
        b'"solver_message": "gap limit", "solver_optimal": false, "solver_retries": 1, '
        b'"solver_runtime_s": 0.125, "solver_tier": "warm_replay", '
        b'"solver_time_truncated": true, "solver_warm_cuts": 3}',
    ),
]


def test_pinned_instances_cover_every_wire_type():
    assert {type(dto) for dto, _ in PINNED} == set(STAMPED_TYPES)
    for dto, _ in PINNED:
        defaults = [
            f.name for f in dataclasses.fields(dto)
            if f.default is not dataclasses.MISSING and getattr(dto, f.name) == f.default
        ]
        assert defaults == [], (type(dto).__name__, defaults)


@pytest.mark.parametrize("dto,wire", PINNED, ids=lambda p: type(p).__name__)
def test_wire_version_1_bytes_are_pinned(dto, wire):
    assert encode_json(dto.to_dict()) == wire
    assert type(dto).from_dict(json.loads(wire)) == dto


SAMPLE_DTOS = [
    SliceRequestV1.of("s1", "eMBB", duration_epochs=3),
    AdmissionTicket(
        ticket_id="tkt-000001",
        slice_name="s1",
        arrival_epoch=0,
        descriptor=SliceDescriptor.from_request(
            SliceRequest(name="s1", template=TEMPLATES["eMBB"])
        ),
    ),
    SliceStatus(name="s1", state="admitted", arrival_epoch=0, duration_epochs=3),
    QuoteResponse(
        slice_name="s1",
        slice_type="eMBB",
        sla_mbps=50.0,
        forecast_peak_mbps=20.0,
        forecast_sigma=0.3,
        reward_per_epoch=1.0,
        penalty_rate_per_mbps=0.02,
    ),
    LifecycleEvent(LifecycleEventKind.ADMITTED, "s1", epoch=0),
    EpochReport(epoch=0, idle=False, objective_value=-1.5, accepted=("s1",)),
]


@pytest.mark.parametrize("dto", SAMPLE_DTOS, ids=lambda d: type(d).__name__)
def test_dtos_are_hashable_values(dto):
    # Dict-valued fields are excluded from __hash__, so clients can put any
    # DTO in a set (e.g. a subscriber deduplicating its event stream).
    assert len({dto, dto}) == 1


@pytest.mark.parametrize("dto", SAMPLE_DTOS, ids=lambda d: type(d).__name__)
def test_version_mismatch_is_rejected(dto):
    cls = type(dto)
    payload = dto.to_dict()
    payload[VERSION_KEY] = WIRE_VERSION + 1
    with pytest.raises(ValidationError):
        cls.from_dict(payload)
    del payload[VERSION_KEY]
    with pytest.raises(ValidationError):
        cls.from_dict(payload)


# --------------------------------------------------------------------- #
# Conversions and validation details
# --------------------------------------------------------------------- #
class TestSliceRequestV1:
    def test_catalogue_constructor_and_core_round_trip(self):
        dto = SliceRequestV1.of("s1", "uRLLC", duration_epochs=5, arrival_epoch=2)
        request = dto.to_request()
        assert isinstance(request, SliceRequest)
        assert request.template is TEMPLATES["uRLLC"]
        assert SliceRequestV1.from_request(request) == dto

    def test_unknown_catalogue_type(self):
        with pytest.raises(ValidationError) as excinfo:
            SliceRequestV1.of("s1", "holographic")
        assert excinfo.value.code == "validation"
        assert "holographic" in str(excinfo.value)

    @pytest.mark.parametrize("field, value", [
        ("duration_epochs", 0),
        ("template.sla_mbps", -3.0),
        ("penalty_factor", math.inf),
        ("template.sla_mbps", math.inf),
        ("template.reward", math.inf),
        # int() used to truncate these silently.
        ("duration_epochs", 2.7),
        ("arrival_epoch", 0.5),
    ])
    def test_domain_violations_become_validation_errors(self, field, value):
        payload = SliceRequestV1.of("s1", "eMBB").to_dict()
        *parents, name = field.split(".")
        target = payload["template"] if parents else payload
        target[name] = value
        with pytest.raises(ValidationError):
            SliceRequestV1.from_dict(payload)

    def test_non_mapping_payload_is_rejected(self):
        with pytest.raises(ValidationError):
            SliceRequestV1.from_dict("not a mapping")


class TestMalformedPayloadsStayStructured:
    """Wrong-shaped field values must raise ValidationError, never leak the
    underlying TypeError/ValueError/AttributeError to a transport shim."""

    def test_lifecycle_event_bad_epoch(self):
        payload = LifecycleEvent(LifecycleEventKind.ADMITTED, "a", 0).to_dict()
        payload["epoch"] = "not-an-int"
        with pytest.raises(ValidationError):
            LifecycleEvent.from_dict(payload)

    def test_slice_status_scalar_reservations(self):
        payload = SliceStatus(
            name="a", state="admitted", arrival_epoch=0, duration_epochs=1
        ).to_dict()
        payload["reservations_mbps"] = 5
        with pytest.raises(ValidationError):
            SliceStatus.from_dict(payload)

    def test_epoch_report_string_name_list_is_rejected(self):
        payload = EpochReport(epoch=0, idle=True, objective_value=0.0).to_dict()
        payload["accepted"] = "ab"  # would silently explode into ('a', 'b')
        with pytest.raises(ValidationError):
            EpochReport.from_dict(payload)

    def test_epoch_report_scalar_events(self):
        payload = EpochReport(epoch=0, idle=True, objective_value=0.0).to_dict()
        payload["events"] = 5
        with pytest.raises(ValidationError):
            EpochReport.from_dict(payload)

    def test_epoch_report_malformed_nested_event(self):
        payload = EpochReport(epoch=0, idle=True, objective_value=0.0).to_dict()
        payload["events"] = [{"schema_version": 1, "kind": "admitted", "slice_name": "a", "epoch": "x"}]
        with pytest.raises(ValidationError):
            EpochReport.from_dict(payload)


class TestSliceDescriptorRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(descriptors)
    def test_decode_inverts_encode(self, descriptor):
        assert decode(SliceDescriptor, encode(descriptor)) == descriptor

    def test_missing_field_is_a_validation_error(self):
        payload = encode(
            SliceDescriptor.from_request(SliceRequest(name="s", template=TEMPLATES["eMBB"]))
        )
        del payload["sla_mbps"]
        with pytest.raises(ValidationError, match="sla_mbps"):
            decode(SliceDescriptor, payload)


class TestEpochReportDegradationFields:
    def test_degradation_fields_round_trip_through_json(self):
        report = EpochReport(
            epoch=3,
            idle=False,
            objective_value=1.5,
            degraded=True,
            solver_tier="no_overbooking",
            solver_retries=2,
            health="safe_mode",
            degraded_reasons=("solver tier no_overbooking: injected",),
            rehomed=("s1", "s2"),
        )
        payload = json.loads(json.dumps(report.to_dict()))
        rebuilt = EpochReport.from_dict(payload)
        assert rebuilt == report
        assert payload["degraded"] is True
        assert payload["solver_tier"] == "no_overbooking"
        assert payload["rehomed"] == ["s1", "s2"]

    def test_pre_chaos_payloads_default_to_healthy(self):
        # Reports serialised before the chaos layer existed lack the
        # degradation keys; deserialisation must fill in the clean defaults.
        report = EpochReport(epoch=0, idle=True, objective_value=0.0)
        payload = report.to_dict()
        for key in (
            "degraded",
            "solver_tier",
            "solver_retries",
            "health",
            "degraded_reasons",
            "rehomed",
        ):
            del payload[key]
        rebuilt = EpochReport.from_dict(payload)
        assert rebuilt.degraded is False
        assert rebuilt.solver_tier == "primary"
        assert rebuilt.solver_retries == 0
        assert rebuilt.health == "healthy"
        assert rebuilt.degraded_reasons == ()
        assert rebuilt.rehomed == ()
