"""The input contract of the northbound surface, one row per parameter.

Every integer, count, real-number and string parameter a tenant or an
operator hands the broker is checked by one rule of
:mod:`repro.utils.validation` (DESIGN.md, "Input contract").  :data:`ROWS`
names, per (entry point, parameter), the rule it must meet: a value is
either accepted as the plain value the rule documents (``2.0`` is ``2``), or
refused with the typed error naming the parameter, leaving the control
plane, the intake queue and broker health as they were.

* :func:`test_every_public_parameter_has_a_row` enumerates the surface with
  ``inspect.signature`` and ``dataclasses.fields``: a parameter added
  without a row fails it.
* :class:`TestInProcess` (unit job) drives hostile values through every
  in-process carrier and checks each outcome against the oracle below,
  which is written here, independently of the helpers.
* :class:`TestOverTheWire` (``transport`` marker) drives the same values
  through a :class:`BrokerClient` and an in-process broker in lockstep: the
  two outcomes, and the two control planes, must be equal.
* :class:`TestResponseDecoders` substitutes the same values, one field at a
  time, into a valid encoded payload of every response wire type:
  :data:`RESPONSE_ROWS` names each field's rule, and
  :func:`test_every_response_field_has_a_row` enumerates the fields with
  ``dataclasses.fields``.

Hypothesis is seeded from ``REPRO_TEST_SEED`` (default 0) with a bounded
example count, so every run draws the same values.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, seed, settings
from hypothesis import strategies as st

from repro.api import BrokerClient, BrokerServer, SliceBroker, SliceRequestV1
from repro.api.dtos import AdmissionTicket, EpochReport, QuoteResponse, SliceStatus
from repro.api.errors import BrokerError, ValidationError
from repro.api.events import LifecycleEvent, LifecycleEventKind
from repro.api.transport import error_body
from repro.controlplane.orchestrator import OrchestratorConfig
from repro.controlplane.slice_manager import SliceDescriptor
from repro.faults.fingerprint import control_plane_fingerprint
from tests.api.test_dtos import PINNED
from tests.conftest import CoinSolver, build_tiny_topology

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))

# --------------------------------------------------------------------- #
# Hostile values
# --------------------------------------------------------------------- #
HOSTILE = st.one_of(
    st.booleans(),
    st.integers(-3, 70000),
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**400, -(10**400)]),
    st.integers(-3, 5).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.5, 2.5, 1e300, math.nan, math.inf, -math.inf]),
    st.integers(-3, 5).map(np.int64),
    st.integers(0, 5).map(np.uint8),
    st.sampled_from([np.float64(2.0), np.float64(2.5), np.float32(0.5), np.float64("nan")]),
    st.sampled_from([np.bool_(True), None]),
    st.sampled_from(["3", "2.0", "-1", "0.5", "nan", ""]),
)

#: Text a rule accepts, mixed in for the string parameters.
TEXT_VALUES = ("tok", "3", "2.0", "s-1")


# --------------------------------------------------------------------- #
# The rules, as an oracle independent of repro.utils.validation
# --------------------------------------------------------------------- #
class Refused(Exception):
    """The rule refuses the value."""


def _real(value) -> float:
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise Refused
    if isinstance(value, (int, np.integer)) and abs(int(value)) > 2**1024:
        return math.inf if value > 0 else -math.inf
    if value != value:
        raise Refused
    return float(value)


def _integer(value, low: int, high: float = math.inf) -> int:
    if isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_)):
        number = int(value)
    else:
        real = _real(value)
        if not math.isfinite(real) or real != int(real):
            raise Refused
        number = int(real)
    if not low <= number <= high:
        raise Refused
    return number


def TEXT(value) -> str:
    if not isinstance(value, str) or not value:
        raise Refused
    return value


def NON_NEGATIVE_INT(value) -> int:
    return _integer(value, 0)


def POSITIVE_INT(value) -> int:
    return _integer(value, 1)


def PORT(value) -> int:
    return _integer(value, 0, 65535)


def NON_NEGATIVE_FINITE(value) -> float:
    real = _real(value)
    if not 0.0 <= real < math.inf:
        raise Refused
    return real


def FINITE(value) -> float:
    real = _real(value)
    if not math.isfinite(real):
        raise Refused
    return real


def BOOL(value) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise Refused
    return bool(value)


def STR(value) -> str:
    if not isinstance(value, str):
        raise Refused
    return value


def SCALAR(value):
    if value is not None and not isinstance(value, (bool, int, float, str)):
        raise Refused
    return value


def SAMPLE(value) -> float:
    """One load sample, as the peak it records: a real that numpy holds as
    an integer or a float (an int beyond 64 bits it holds as an object)."""
    if isinstance(value, int) and not isinstance(value, bool) and not -(2**63) <= value < 2**64:
        raise Refused
    real = _real(value)
    if not math.isfinite(real):
        raise Refused
    return max(0.0, real)


def CHOICE(*options) -> Callable[[Any], Any]:
    def rule(value):
        if isinstance(value, (bool, np.bool_)) or value not in options:
            raise Refused
        return value

    return rule


def LIST(rule: Callable[[Any], Any]) -> Callable[[Any], tuple]:
    def check(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise Refused
        return tuple(rule(item) for item in value)

    return check


def MAPPING(rule: Callable[[Any], Any]) -> Callable[[Any], dict]:
    def check(value) -> dict:
        if not isinstance(value, dict) or not all(type(key) is str for key in value):
            raise Refused
        return {key: rule(item) for key, item in value.items()}

    return check


def RECORD(value):
    """A nested wire record: no generated value (a scalar) is one."""
    raise Refused


def OPEN_INTERVAL(low: float, high: float) -> Callable[[Any], float]:
    def rule(value) -> float:
        real = _real(value)
        if not low < real < high:
            raise Refused
        return real

    return rule


def OPTIONAL(rule: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else rule(value)


def STATION(value) -> str:
    if TEXT(value) not in ("bs-0", "bs-1"):
        raise Refused
    return value


# --------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Row:
    """One (entry point, parameter, rule) of the contract.

    ``entries`` are the ``Class.method.parameter`` / ``Class.field`` names
    the row covers; ``rule`` is the oracle, ``None`` for a structured value
    (``why`` says what checks it).  A value reaches the rule through
    ``build(value)`` (a constructor, in process) or ``call(surface, value)``
    (a method a :class:`SliceBroker` and a :class:`BrokerClient` both have,
    unless ``client_only``); each returns what the value became, or, where
    that is not observable (``echoes=False``), a result the two surfaces
    must agree on.  ``name``
    is a slice name fresh for the example and the same on both surfaces;
    ``prepare(surface, name)`` runs before the state is read.  ``only``
    lists the coerced values a ``build`` may be run with (the others would
    bind a real socket).  ``probes`` are values every run tries: the
    boundary bugs this table was written to end.
    """

    entries: tuple[str, ...]
    rule: Callable[[Any], Any] | None
    why: str = ""
    build: Callable[[Any], Any] | None = None
    call: Callable[..., Any] | None = None
    prepare: Callable[[Any], Any] | None = None
    client_only: bool = False
    error: type[Exception] = ValidationError
    valid: tuple = ()
    only: tuple | None = None
    echoes: bool = True
    probes: tuple = ()
    #: The detail keys a refusal names instead of the parameter.
    named_by: tuple = ()

    @property
    def param(self) -> str:
        return self.entries[0].rsplit(".", 1)[1]

    def values(self):
        return st.one_of(st.sampled_from(self.valid), HOSTILE) if self.valid else HOSTILE

    def check(self, body: Callable[[Any], None]) -> Callable[[], None]:
        return seeded(self.values(), self.probes, body)


def seeded(values, probes: tuple, body: Callable[[Any], None]) -> Callable[[], None]:
    """``body`` as a seeded, bounded Hypothesis test over ``values``, trying
    every probe."""
    test = given(value=values)(body)
    for probe in probes:
        test = example(value=probe)(test)
    return seed(SEED)(BOUNDED(test))


_names = itertools.count()


def fresh_name() -> str:
    return f"c{next(_names)}"


def payload(slice_name: str, **fields) -> dict:
    request = SliceRequestV1.of(slice_name, "eMBB", duration_epochs=2, arrival_epoch=50)
    return {**request.to_dict(), **fields}


def withdrawn(surface, ticket):
    """Withdraw an accepted submission again (its token goes with it)."""
    surface.release(ticket.slice_name, epoch=0)
    return ticket


def queued(surface, name: str) -> None:
    surface.submit(payload(name))


def released_epoch(surface, value, name: str) -> int:
    """The epoch the RELEASED event of ``name`` carries."""
    surface.release(name, epoch=value)
    if isinstance(surface, SliceBroker):
        return surface.published[-1].epoch
    return surface.events(surface.health()["events_published"] - 1).events[-1][1].epoch


def server_built(param: str, read: Callable[[BrokerServer], Any]) -> Callable[[Any], Any]:
    def build(value):
        server = BrokerServer(make_broker(), **{param: value})
        try:
            return read(server)
        finally:
            server._http.server_close()

    return build


def report_epoch(broker: SliceBroker, value) -> int:
    name = fresh_name()
    broker.report_load(name, "bs-0", value, [1.0])
    return broker.orchestrator.monitoring._last_epoch[name]


def reported_peak(value) -> float:
    broker = make_broker()
    broker.report_load("s", "bs-0", 0, [value])
    return broker.orchestrator.monitoring._peaks["s"][-1]


def scheduled_factor(broker: SliceBroker, value) -> float:
    broker.inject_link_failure([("bs-0", "sw")], value)
    return broker.orchestrator._scheduled_link_failures.pop()[1]


def request_field(field: str) -> Row:
    rule, probes = {
        "name": (TEXT, (5,)),
        "duration_epochs": (POSITIVE_INT, (2.0,)),
        "penalty_factor": (NON_NEGATIVE_FINITE, ("1.5", True)),
        "arrival_epoch": (NON_NEGATIVE_INT, (2.0,)),
    }[field]

    def build(value):
        return getattr(SliceRequestV1(**{**REQUEST_FIELDS, field: value}), field)

    def call(surface, value, name):
        ticket = withdrawn(surface, surface.submit(payload(name, **{field: value})))
        if field in ("name", "arrival_epoch"):
            return ticket.slice_name if field == "name" else ticket.arrival_epoch
        return getattr(ticket.descriptor, field)

    return Row(
        (f"SliceRequestV1.{field}",),
        rule,
        build=build,
        call=call,
        valid=TEXT_VALUES if rule is TEXT else (),
        probes=probes,
    )


def config_field(field: str) -> Row:
    return Row(
        (f"OrchestratorConfig.{field}",),
        POSITIVE_INT,
        build=lambda value: getattr(OrchestratorConfig(**{field: value}), field),
        error=ValueError,
        probes=(2.5, 0),
    )


ROWS: tuple[Row, ...] = (
    # -- SliceBroker construction --------------------------------------- #
    Row(("SliceBroker.__init__.topology",), None, "a NetworkTopology; validate() checks it"),
    Row(("SliceBroker.__init__.solver",), None, "an AC-RR solver object"),
    Row(("SliceBroker.__init__.config",), None, "OrchestratorConfig, whose fields have rows"),
    Row(
        ("SliceBroker.__init__.cache_limit",),
        POSITIVE_INT,
        build=lambda value: make_broker(cache_limit=value)._cache_limit,
        probes=(True,),
    ),
    Row(
        ("SliceBroker.__init__.max_pending",),
        OPTIONAL(POSITIVE_INT),
        build=lambda value: make_broker(max_pending=value)._max_pending,
    ),
    # -- intake ----------------------------------------------------------- #
    Row(
        (
            "SliceBroker.submit.request",
            "SliceBroker.submit_batch.requests",
            "SliceBroker.quote.request",
            "BrokerClient.submit.request",
            "BrokerClient.submit_batch.requests",
            "BrokerClient.quote.request",
        ),
        None,
        "SliceRequestV1 payloads, whose fields have rows",
    ),
    Row(
        ("SliceBroker.submit.client_token", "BrokerClient.submit.client_token"),
        OPTIONAL(TEXT),
        call=lambda s, value, name: withdrawn(
            s, s.submit(payload(name), client_token=value)
        ).client_token,
        valid=TEXT_VALUES,
    ),
    Row(
        ("SliceBroker.submit_batch.client_tokens", "BrokerClient.submit_batch.client_tokens"),
        OPTIONAL(TEXT),
        "each token of the list",
        call=lambda s, value, name: withdrawn(
            s, s.submit_batch([payload(name)], client_tokens=[value])[0]
        ).client_token,
        valid=TEXT_VALUES,
    ),
    # -- epochs, release and reads ---------------------------------------- #
    Row(
        ("SliceBroker.advance_epoch.epoch", "BrokerClient.advance_epoch.epoch"),
        NON_NEGATIVE_INT,
        call=lambda s, value, _name: s.advance_epoch(value).epoch,
        probes=(2.0, np.int64(2)),
    ),
    Row(
        ("SliceBroker.release.epoch", "BrokerClient.release.epoch"),
        NON_NEGATIVE_INT,
        prepare=queued,
        call=lambda s, value, name: released_epoch(s, value, name),
    ),
    Row(
        ("SliceBroker.release.slice_name", "BrokerClient.release.slice_name"),
        TEXT,
        call=lambda s, value, _name: s.release(value, epoch=0).name,
        valid=TEXT_VALUES,
    ),
    Row(
        ("SliceBroker.status.slice_name", "BrokerClient.status.slice_name"),
        TEXT,
        call=lambda s, value, _name: s.status(value).name,
        valid=TEXT_VALUES,
    ),
    Row(
        ("SliceBroker.list_slices.offset", "BrokerClient.list_slices.offset"),
        NON_NEGATIVE_INT,
        call=lambda s, value, _name: s.list_slices(value).offset,
    ),
    Row(
        ("SliceBroker.list_slices.limit", "BrokerClient.list_slices.limit"),
        OPTIONAL(NON_NEGATIVE_INT),
        call=lambda s, value, _name: [status.name for status in s.list_slices(0, limit=value)],
        echoes=False,
    ),
    Row(
        ("BrokerClient.events.since",),
        NON_NEGATIVE_INT,
        "GET /v1/events?since=, checked by the server",
        call=lambda s, value, _name: s.events(value).next_cursor,
        probes=(-5,),
        client_only=True,
        echoes=False,
    ),
    Row(
        ("BrokerClient.events.limit",),
        OPTIONAL(NON_NEGATIVE_INT),
        "GET /v1/events?limit=, checked by the server",
        call=lambda s, value, _name: len(s.events(0, limit=value)),
        client_only=True,
        echoes=False,
    ),
    Row(
        ("SliceBroker.active_slices.epoch",),
        NON_NEGATIVE_INT,
        build=lambda value: [record.name for record in make_broker().active_slices(value)],
        echoes=False,
    ),
    # -- monitoring, forecasts and chaos (in process only) ---------------- #
    Row(
        ("SliceBroker.report_load.slice_name",),
        TEXT,
        build=lambda value: make_broker().report_load(value, "bs-0", 0, [1.0]),
        valid=TEXT_VALUES,
    ),
    Row(
        ("SliceBroker.report_load.base_station",),
        STATION,
        "a base station of the topology",
        build=lambda value: make_broker().report_load("s", value, 0, [1.0]),
        valid=("bs-0", "bs-1", "sw"),
    ),
    Row(
        ("SliceBroker.report_load.epoch",),
        NON_NEGATIVE_INT,
        build=lambda value: report_epoch(make_broker(), value),
    ),
    Row(
        ("SliceBroker.report_load.samples_mbps",),
        SAMPLE,
        "one sample a block; refused naming the slice, the station and the epoch",
        build=reported_peak,
        probes=("1.5", True, None),
        named_by=("slice_name", "base_station", "epoch"),
    ),
    Row(("SliceBroker.set_forecast_overrides.overrides",), None, "ForecastInput objects"),
    Row(("SliceBroker.set_forecasting.forecasting",), None, "a ForecastingBlock"),
    Row(("SliceBroker.enable_chaos.plan",), None, "a FaultPlan"),
    Row(("SliceBroker.inject_link_failure.link_keys",), None, "links the topology has"),
    Row(
        ("SliceBroker.inject_link_failure.capacity_factor",),
        OPEN_INTERVAL(0.0, 1.0),
        build=lambda value: scheduled_factor(make_broker(), value),
        probes=("0.5",),
    ),
    # -- BrokerServer and BrokerClient construction ----------------------- #
    Row(("BrokerServer.__init__.broker",), None, "the SliceBroker it serves"),
    Row(
        ("BrokerServer.__init__.host",),
        TEXT,
        "text; the socket layer resolves it",
        build=server_built("host", lambda server: server.host),
        valid=("127.0.0.1",),
        only=("127.0.0.1",),
    ),
    Row(
        ("BrokerServer.__init__.port",),
        PORT,
        build=server_built("port", lambda server: 0 if server.port > 0 else None),
        valid=(0, 0.0, -0.0, np.int64(0)),
        only=(0,),
    ),
    Row(
        ("BrokerServer.__init__.max_batch",),
        POSITIVE_INT,
        build=server_built("max_batch", lambda server: server.max_batch),
        probes=(2.5,),
    ),
    Row(
        ("BrokerServer.__init__.event_retention",),
        POSITIVE_INT,
        build=server_built("event_retention", lambda server: server.event_log._retention),
        probes=(2.5,),
    ),
    Row(
        ("BrokerClient.__init__.host",),
        TEXT,
        build=lambda value: BrokerClient(value, 1)._host,
        valid=TEXT_VALUES,
    ),
    Row(
        ("BrokerClient.__init__.port",),
        PORT,
        build=lambda value: BrokerClient("127.0.0.1", value)._port,
    ),
    Row(
        ("BrokerClient.__init__.timeout",),
        OPEN_INTERVAL(0.0, math.inf),
        build=lambda value: BrokerClient("127.0.0.1", 1, timeout=value)._timeout,
    ),
    # -- DTO and configuration fields ------------------------------------- #
    *(request_field(field) for field in ("name", "duration_epochs", "penalty_factor",
                                         "arrival_epoch")),
    Row(("SliceRequestV1.template",), None, "a SliceTemplate, whose __post_init__ checks it"),
    *(config_field(field) for field in ("epochs_per_day", "samples_per_epoch",
                                        "candidate_paths_per_pair")),
    Row(
        ("OrchestratorConfig.reuse_unchanged_decisions",),
        BOOL,
        build=lambda value: OrchestratorConfig(
            reuse_unchanged_decisions=value
        ).reuse_unchanged_decisions,
        error=ValueError,
        probes=("False", 0, None, np.bool_(False)),
    ),
)

REQUEST_FIELDS = {
    "name": "s",
    "template": SliceRequestV1.of("s", "eMBB").template,
    "duration_epochs": 2,
    "penalty_factor": 1.0,
    "arrival_epoch": 0,
}


def make_broker(**kwargs) -> SliceBroker:
    broker = SliceBroker(build_tiny_topology(), CoinSolver(), **kwargs)
    broker.published = []
    broker.events.subscribe(broker.published.append)
    return broker


# --------------------------------------------------------------------- #
# Outcomes
# --------------------------------------------------------------------- #
def same(a, b) -> bool:
    """Equality in which NaN equals NaN, through lists, tuples and dicts."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return bool(a == b) or (a != a and b != b)


def outcome(call: Callable[[], Any]) -> tuple:
    try:
        return ("ok", call())
    except BrokerError as error:
        return (type(error).__name__, error.details)


def as_wire(details: dict) -> dict:
    """``details`` as an error body carries them (a NaN echoes as ``"nan"``)."""
    return json.loads(error_body(BrokerError("", details=details)))["details"]


def state(broker: SliceBroker) -> tuple:
    return (
        control_plane_fingerprint(broker.orchestrator),
        broker.pending_count,
        broker.health.state,
        len(broker.published),
    )


def verdict(row: Row, value) -> tuple[bool, Any]:
    try:
        return True, row.rule(value)
    except Refused:
        return False, None


def assert_refused(row: Row, value, error: Exception) -> None:
    """The typed error of the layer, naming the parameter and its value."""
    assert type(error) is row.error, (row.entries[0], value, error)
    if row.named_by:
        assert set(row.named_by) <= set(error.details), (row.entries[0], value, error.details)
    elif isinstance(error, BrokerError):
        assert row.param in error.details, (row.entries[0], value, error.details)
        assert same(error.details[row.param], value), (row.entries[0], value, error.details)
    else:
        assert str(error).startswith(f"{row.param} must"), (row.entries[0], str(error))


def assert_accepted(row: Row, value, coerced, became) -> None:
    """A number or a string flows on as the plain value the rule makes of it."""
    if row.echoes and type(coerced) in (int, float, str, bool) and became is not None:
        assert same(became, coerced) and type(became) is type(coerced), (
            row.entries[0], value, became,
        )


def refused_by_rule(row: Row, result: tuple) -> bool:
    return result[0] == "ValidationError" and row.param in result[1]


SCALAR_ROWS = [row for row in ROWS if row.rule is not None]
BOUNDED = settings(
    max_examples=30,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


# --------------------------------------------------------------------- #
# Completeness
# --------------------------------------------------------------------- #
def public_parameters() -> set[str]:
    found = set()
    for cls in (SliceBroker, BrokerServer, BrokerClient):
        for name, member in vars(cls).items():
            if not inspect.isfunction(member) or (name.startswith("_") and name != "__init__"):
                continue
            for parameter in list(inspect.signature(member).parameters)[1:]:
                found.add(f"{cls.__name__}.{name}.{parameter}")
    for cls in (SliceRequestV1, OrchestratorConfig):
        found |= {f"{cls.__name__}.{field.name}" for field in dataclasses.fields(cls)}
    return found


def test_every_public_parameter_has_a_row():
    covered = [entry for row in ROWS for entry in row.entries]
    assert len(covered) == len(set(covered)), "a parameter has two rows"
    assert public_parameters() == set(covered)


def test_every_row_is_exercised_or_says_what_checks_it():
    for row in ROWS:
        assert (row.rule is None) == (row.build is None and row.call is None), row.entries
        assert row.rule is not None or row.why, row.entries


# --------------------------------------------------------------------- #
# In process: every carrier against the oracle
# --------------------------------------------------------------------- #
class TestInProcess:
    @pytest.mark.parametrize(
        "row",
        [row for row in SCALAR_ROWS if not row.client_only],
        ids=lambda row: row.entries[0],
    )
    def test_a_value_is_accepted_as_documented_or_refused_naming_it(self, row):
        broker = make_broker()

        def check(value):
            ok, coerced = verdict(row, value)
            if row.build is not None:
                if ok and row.only is not None:
                    assume(coerced in row.only)
                try:
                    became = row.build(value)
                except (BrokerError, ValueError) as error:
                    assert not ok, (row.entries[0], value, error)
                    assert_refused(row, value, error)
                    return
                assert ok, (row.entries[0], value, became)
                assert_accepted(row, value, coerced, became)
                return
            name = fresh_name()
            if row.prepare is not None:
                row.prepare(broker, name)
            before = state(broker)
            result = outcome(lambda: row.call(broker, value, name))
            if refused_by_rule(row, result):
                assert not ok, (row.entries[0], value, result)
                assert_refused(row, value, ValidationError("", details=result[1]))
                assert state(broker) == before
            elif result[0] == "ok":
                assert ok, (row.entries[0], value, result)
                assert_accepted(row, value, coerced, result[1])
            else:  # a lifecycle outcome of an accepted value (an unknown name)
                assert ok, (row.entries[0], value, result)

        row.check(check)()

    @pytest.mark.parametrize("value", [2.0, np.int64(2)])
    def test_an_epoch_report_is_plain_json(self, value):
        broker = make_broker()
        broker.submit(SliceRequestV1.of("s", "eMBB", duration_epochs=2, arrival_epoch=2))
        report = broker.advance_epoch(value)
        assert type(report.epoch) is int and report.events
        assert all(type(event.epoch) is int for event in report.events)
        assert json.loads(json.dumps(report.to_dict()))["epoch"] == 2


# --------------------------------------------------------------------- #
# Over the wire: a client and an in-process broker in lockstep
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def lockstep():
    local, served = make_broker(), make_broker()
    with BrokerServer(served) as server, BrokerClient(server.host, server.port) as client:
        yield local, served, client


@pytest.mark.transport
class TestOverTheWire:
    @pytest.mark.parametrize(
        "row", [row for row in SCALAR_ROWS if row.call], ids=lambda row: row.entries[0]
    )
    def test_a_value_meets_the_same_outcome_in_process_and_over_the_wire(
        self, row, lockstep
    ):
        local, served, client = lockstep

        def check(value):
            ok, coerced = verdict(row, value)
            name = fresh_name()
            if row.prepare is not None:
                row.prepare(local, name)
                row.prepare(client, name)
            before = (state(local), state(served))
            there = outcome(lambda: row.call(client, value, name))
            if there[0] != "ok":  # the client's own text refusals are in process
                there = (there[0], as_wire(there[1]))
            if row.client_only:
                here = there
            else:
                here = outcome(lambda: row.call(local, value, name))
                if here[0] != "ok":
                    here = (here[0], as_wire(here[1]))
                assert same(here, there), (row.entries[0], value, here, there)
            if refused_by_rule(row, there):
                assert not ok, (row.entries[0], value, there)
                assert same(there[1], as_wire({row.param: value})), (row.entries[0], value, there)
                assert (state(local), state(served)) == before
            else:
                assert ok, (row.entries[0], value, there)
                if there[0] == "ok":
                    assert_accepted(row, value, coerced, there[1])
            assert control_plane_fingerprint(local.orchestrator) == (
                control_plane_fingerprint(served.orchestrator)
            )

        row.check(check)()


# --------------------------------------------------------------------- #
# Response decoders: one row per field of every wire type
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ResponseRow:
    """The rule one field of a wire type is decoded by.

    A generated value is substituted for the field in a valid encoded
    payload, as itself and, for a list or a mapping, also as ``wrap(value)``
    (its one item); ``valid`` are values the rule accepts, mixed in."""

    entry: str
    rule: Callable[[Any], Any]
    wrap: Callable[[Any], Any] | None = None
    valid: tuple = ()
    probes: tuple = ()

    @property
    def owner(self) -> str:
        return self.entry.split(".")[0]

    @property
    def field(self) -> str:
        return self.entry.split(".")[1]


def _listed(value) -> list:
    return [value]


def _keyed(value) -> dict:
    return {"k": value}


NAMES = LIST(TEXT)
TIERS = ("primary", "warm_replay", "no_overbooking", "reject_all")
HEALTH = ("healthy", "degraded", "safe_mode")
STATES = ("queued", "requested", "admitted", "rejected", "expired", "released")
KINDS = tuple(kind.value for kind in LifecycleEventKind)


def KIND(value) -> LifecycleEventKind:
    return LifecycleEventKind(CHOICE(*KINDS)(value))


def response_rows(owner: str, **rules) -> list[ResponseRow]:
    rows = []
    for field, spec in rules.items():
        rule, *options = spec if isinstance(spec, tuple) else (spec,)
        rows.append(ResponseRow(f"{owner}.{field}", rule, **dict(options)))
    return rows


TEXT_FIELD = (TEXT, ("valid", TEXT_VALUES))
NAMES_FIELD = (NAMES, ("wrap", _listed), ("valid", (["a", "b"],)))

RESPONSE_ROWS: tuple[ResponseRow, ...] = (
    *response_rows(
        "AdmissionTicket",
        ticket_id=TEXT_FIELD,
        slice_name=TEXT_FIELD,
        arrival_epoch=(NON_NEGATIVE_INT, ("probes", (True, 2.5, -3))),
        descriptor=RECORD,
        client_token=(OPTIONAL(TEXT), ("valid", TEXT_VALUES)),
    ),
    *response_rows(
        "SliceDescriptor",
        slice_name=TEXT_FIELD,
        slice_type=TEXT_FIELD,
        sla_mbps=(NON_NEGATIVE_FINITE, ("probes", ("1.5",))),
        latency_tolerance_ms=NON_NEGATIVE_FINITE,
        duration_epochs=(POSITIVE_INT, ("probes", (2.7,))),
        compute_model=(MAPPING(NON_NEGATIVE_FINITE), ("wrap", _keyed)),
        reward=NON_NEGATIVE_FINITE,
        penalty_factor=NON_NEGATIVE_FINITE,
    ),
    *response_rows(
        "SliceStatus",
        name=TEXT_FIELD,
        state=(CHOICE(*STATES), ("valid", STATES)),
        arrival_epoch=(NON_NEGATIVE_INT, ("probes", (-3,))),
        duration_epochs=POSITIVE_INT,
        admitted_epoch=OPTIONAL(NON_NEGATIVE_INT),
        expires_at=OPTIONAL(NON_NEGATIVE_INT),
        compute_unit=(OPTIONAL(TEXT), ("valid", TEXT_VALUES)),
        reservations_mbps=(MAPPING(NON_NEGATIVE_FINITE), ("wrap", _keyed)),
        renewal_count=NON_NEGATIVE_INT,
    ),
    *response_rows(
        "QuoteResponse",
        slice_name=TEXT_FIELD,
        slice_type=TEXT_FIELD,
        sla_mbps=NON_NEGATIVE_FINITE,
        forecast_peak_mbps=NON_NEGATIVE_FINITE,
        forecast_sigma=NON_NEGATIVE_FINITE,
        reward_per_epoch=NON_NEGATIVE_FINITE,
        penalty_rate_per_mbps=NON_NEGATIVE_FINITE,
    ),
    *response_rows(
        "LifecycleEvent",
        kind=(KIND, ("valid", KINDS)),
        slice_name=(TEXT, ("valid", TEXT_VALUES), ("probes", (7,))),
        epoch=(NON_NEGATIVE_INT, ("probes", (2.7,))),
        metadata=(MAPPING(SCALAR), ("wrap", _keyed)),
    ),
    *response_rows(
        "EpochReport",
        epoch=(NON_NEGATIVE_INT, ("probes", (True,))),
        idle=(BOOL, ("probes", ("no",))),
        objective_value=(FINITE, ("probes", ("1.5",))),
        accepted=NAMES_FIELD,
        rejected=NAMES_FIELD,
        expired=NAMES_FIELD,
        renewed=NAMES_FIELD,
        active=NAMES_FIELD,
        pending_requests=NON_NEGATIVE_INT,
        solver=(STR, ("valid", ("", *TEXT_VALUES))),
        solver_iterations=(NON_NEGATIVE_INT, ("probes", (2.9,))),
        solver_runtime_s=NON_NEGATIVE_FINITE,
        solver_optimal=BOOL,
        solver_warm_cuts=NON_NEGATIVE_INT,
        solver_message=(STR, ("valid", ("", *TEXT_VALUES))),
        solver_time_truncated=BOOL,
        events=(LIST(RECORD), ("wrap", _listed)),
        degraded=BOOL,
        solver_tier=(CHOICE(*TIERS), ("valid", TIERS)),
        solver_retries=NON_NEGATIVE_INT,
        health=(CHOICE(*HEALTH), ("valid", HEALTH)),
        degraded_reasons=(LIST(STR), ("wrap", _listed), ("valid", (["", "x"],))),
        rehomed=NAMES_FIELD,
    ),
)

#: Every response wire type, the descriptor nested in a ticket included.
WIRE_TYPES = (
    AdmissionTicket,
    SliceDescriptor,
    SliceStatus,
    QuoteResponse,
    LifecycleEvent,
    EpochReport,
)
SAMPLES = {type(dto).__name__: dto for dto, _ in PINNED}


def carrier(row: ResponseRow) -> tuple[type, dict, dict]:
    """The stamped type that carries ``row``'s field, a valid encoded payload
    of it, and the dictionary in that payload the field sits in (a
    descriptor rides inside a ticket)."""
    if row.owner == "SliceDescriptor":
        payload = SAMPLES["AdmissionTicket"].to_dict()
        return AdmissionTicket, payload, payload["descriptor"]
    payload = SAMPLES[row.owner].to_dict()
    return type(SAMPLES[row.owner]), payload, payload


def decoded_field(row: ResponseRow, cls: type, payload: dict) -> Any:
    record = cls.from_dict(payload)
    return getattr(record.descriptor if row.owner == "SliceDescriptor" else record, row.field)


def substituted(row: ResponseRow, value) -> Any:
    """Decode a valid payload whose ``row`` field is ``value``; return the
    decoded field."""
    cls, payload, target = carrier(row)
    target[row.field] = value
    return decoded_field(row, cls, payload)


def assert_plain(became, coerced, where) -> None:
    """``became`` is ``coerced``, of the same type, through tuples and dicts."""
    assert same(became, coerced) and type(became) is type(coerced), (where, became, coerced)
    if isinstance(coerced, tuple):
        for got, want in zip(became, coerced):
            assert_plain(got, want, where)
    if isinstance(coerced, dict):
        for key in coerced:
            assert_plain(became[key], coerced[key], where)


def test_every_response_field_has_a_row():
    entries = [row.entry for row in RESPONSE_ROWS]
    assert len(entries) == len(set(entries)), "a field has two rows"
    assert set(entries) == {
        f"{cls.__name__}.{field.name}" for cls in WIRE_TYPES for field in dataclasses.fields(cls)
    }


class TestResponseDecoders:
    @pytest.mark.parametrize("row", RESPONSE_ROWS, ids=lambda row: row.entry)
    def test_a_value_decodes_to_the_plain_value_or_is_refused_naming_the_field(self, row):
        def check(value):
            for placed in (value,) if row.wrap is None else (value, row.wrap(value)):
                try:
                    ok, coerced = True, row.rule(placed)
                except Refused:
                    ok, coerced = False, None
                try:
                    became = substituted(row, placed)
                except ValidationError as error:
                    assert not ok, (row.entry, placed, error)
                    assert str(error).startswith(f"{row.field} must"), (row.entry, str(error))
                    assert row.field in error.details, (row.entry, placed, error.details)
                    assert same(error.details[row.field], placed), (row.entry, error.details)
                    continue
                assert ok, (row.entry, placed, became)
                assert_plain(became, coerced, row.entry)

        values = st.one_of(st.sampled_from(row.valid), HOSTILE) if row.valid else HOSTILE
        seeded(values, row.probes, check)()

    @pytest.mark.parametrize("row", RESPONSE_ROWS, ids=lambda row: row.entry)
    def test_a_missing_field_takes_its_default_or_is_refused_naming_it(self, row):
        owner = next(cls for cls in WIRE_TYPES if cls.__name__ == row.owner)
        field = next(f for f in dataclasses.fields(owner) if f.name == row.field)
        cls, payload, target = carrier(row)
        del target[row.field]
        if field.default is not dataclasses.MISSING:
            assert decoded_field(row, cls, payload) == field.default
        elif field.default_factory is not dataclasses.MISSING:
            assert decoded_field(row, cls, payload) == field.default_factory()
        else:
            with pytest.raises(ValidationError, match=repr(row.field)) as refused:
                cls.from_dict(payload)
            assert refused.value.details == {"missing_field": row.field}
