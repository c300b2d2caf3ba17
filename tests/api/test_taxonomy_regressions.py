"""Regression tests for boundary-error leaks found by `repro.analysis` (RA02).

Before the fix, *directly* constructed DTOs with bad fields raised bare
ValueError (the `of`/`from_dict` paths translated, the plain constructor
leaked) and double-starting a BrokerServer raised bare RuntimeError.  All of
these must surface as structured BrokerError subclasses with stable codes so
transports can map them to HTTP statuses.
"""

from __future__ import annotations

import http.client
import json
import math

import numpy as np
import pytest

from repro.api.dtos import SliceRequestV1, SliceStatus
from repro.api.errors import LifecycleError, ValidationError
from repro.api.server import BrokerServer
from repro.api.broker import SliceBroker
from repro.core.benders import BendersSolver
from repro.core.milp_solver import DirectMILPSolver
from repro.core.slices import TEMPLATES
from repro.topology import operators
from tests.conftest import build_tiny_topology


@pytest.fixture(scope="module")
def template():
    return TEMPLATES["eMBB"]


class TestDirectDtoConstruction:
    """SliceRequestV1.__post_init__ guards must speak the taxonomy."""

    def test_empty_name(self, template):
        with pytest.raises(ValidationError) as excinfo:
            SliceRequestV1(name="", template=template)
        assert excinfo.value.code == "validation"

    def test_nonpositive_duration(self, template):
        with pytest.raises(ValidationError):
            SliceRequestV1(name="t", template=template, duration_epochs=0)

    @pytest.mark.parametrize("penalty", [-0.5, math.inf, math.nan])
    def test_negative_or_non_finite_penalty(self, template, penalty):
        with pytest.raises(ValidationError):
            SliceRequestV1(name="t", template=template, penalty_factor=penalty)

    def test_negative_arrival(self, template):
        with pytest.raises(ValidationError):
            SliceRequestV1(name="t", template=template, arrival_epoch=-1)

    def test_bogus_status_state(self):
        with pytest.raises(ValidationError) as excinfo:
            SliceStatus(name="t", state="bogus", arrival_epoch=0, duration_epochs=1)
        assert excinfo.value.code == "validation"

    def test_valid_direct_construction_still_works(self, template):
        request = SliceRequestV1(name="t", template=template)
        assert SliceRequestV1.from_dict(request.to_dict()) == request


class TestNonFiniteNumbersAreRefusedAtSubmit:
    """One tenant's ``Infinity`` used to reach the solver: every later epoch
    failed on a non-finite cost and rolled the request back into the queue."""

    @staticmethod
    def benders_broker() -> SliceBroker:
        return SliceBroker(
            topology=operators.testbed_topology(),
            solver=BendersSolver(master_time_limit_s=None, time_limit_s=None),
        )

    @staticmethod
    def payload(**changes) -> dict:
        return {**SliceRequestV1.of("bad", "uRLLC", duration_epochs=2).to_dict(), **changes}

    def test_in_process_the_queue_is_unchanged_and_the_next_epoch_commits(self):
        broker = self.benders_broker()
        broker.submit(SliceRequestV1.of("good", "uRLLC", duration_epochs=2))
        with pytest.raises(ValidationError):
            broker.submit(SliceRequestV1.from_dict(self.payload(penalty_factor=math.inf)))
        assert broker.pending_count == 1
        report = broker.advance_epoch(0)
        assert report.accepted == ("good",) and report.pending_requests == 0

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e999"])
    def test_over_the_wire_the_queue_is_unchanged_and_the_next_epoch_commits(self, literal):
        broker = self.benders_broker()
        good = json.dumps(SliceRequestV1.of("good", "uRLLC", duration_epochs=2).to_dict())
        bad = json.dumps(self.payload(penalty_factor=123.0)).replace("123.0", literal)
        with BrokerServer(broker) as server:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
            try:
                answers = []
                for body in (good, bad):
                    conn.request("POST", "/v1/slices", body=body.encode())
                    response = conn.getresponse()
                    answers.append((response.status, json.loads(response.read())))
                assert answers[0][0] == 201
                status, payload = answers[1]
                assert (status, payload["error"]) == (400, "validation")
                assert broker.pending_count == 1
                conn.request("POST", "/v1/epochs", body=b'{"epoch": 0}')
                response = conn.getresponse()
                report = json.loads(response.read())
            finally:
                conn.close()
        assert response.status == 200
        assert report["accepted"] == ["good"] and report["pending_requests"] == 0


class TestNegativeEpochsAreRefused:
    """``advance_epoch(-4)`` used to run an epoch -- its report listed a
    slice admitted at epoch 2 as accepted and active -- and
    ``release(..., epoch=-1)`` stamped its RELEASED event with epoch -1."""

    @staticmethod
    def broker_with_one_admitted_and_one_queued() -> SliceBroker:
        broker = SliceBroker(
            topology=build_tiny_topology(),
            solver=BendersSolver(master_time_limit_s=None, time_limit_s=None),
        )
        broker.submit(SliceRequestV1.of("b", "eMBB", arrival_epoch=2, duration_epochs=3))
        broker.submit(SliceRequestV1.of("q", "eMBB", arrival_epoch=4, duration_epochs=2))
        for epoch in range(3):
            broker.advance_epoch(epoch)
        assert broker.status("b").state == "admitted" and broker.pending_count == 1
        return broker

    @staticmethod
    def state(broker: SliceBroker, events: list) -> tuple:
        health = broker.health
        return (
            broker.pending_count,
            [status.to_dict() for status in broker.list_slices()],
            (health.state, health.clean_streak),
            list(events),
        )

    def test_in_process_nothing_moves_and_the_next_epoch_commits(self):
        broker = self.broker_with_one_admitted_and_one_queued()
        events: list = []
        broker.events.subscribe(events.append)
        before = self.state(broker, events)
        for epoch in (-4, 2.5, True):  # nor a fraction or a bool
            with pytest.raises(ValidationError, match="non-negative integer") as refused:
                broker.advance_epoch(epoch)
            assert refused.value.details == {"epoch": epoch}
        with pytest.raises(ValidationError, match="non-negative integer") as refused:
            broker.release("b", epoch=-1)
        assert refused.value.details == {"epoch": -1}
        assert self.state(broker, events) == before
        report = broker.advance_epoch(3)
        assert (report.accepted, report.active) == (("b",), ("b",))
        assert broker.status("b").state == "admitted"

    def test_over_the_wire_they_are_a_400_and_nothing_moves(self):
        broker = self.broker_with_one_admitted_and_one_queued()
        with BrokerServer(broker) as server:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=30)

            def call(method, path, body=None):
                conn.request(method, path, body=body)
                response = conn.getresponse()
                return response.status, json.loads(response.read())

            try:
                before = (self.state(broker, []), call("GET", "/v1/events?since=0"))
                refused = [
                    call("POST", "/v1/epochs", b'{"epoch": -4}'),
                    call("POST", "/v1/slices/b:release", b'{"epoch": -1}'),
                ]
                after = (self.state(broker, []), call("GET", "/v1/events?since=0"))
                status, report = call("POST", "/v1/epochs", b'{"epoch": 3}')
            finally:
                conn.close()
        for (code, payload), epoch in zip(refused, (-4, -1)):
            assert (code, payload["error"]) == (400, "validation")
            assert payload["details"] == {"epoch": epoch}
        assert after == before
        assert status == 200 and report["accepted"] == report["active"] == ["b"]


class TestNonIntegerLoadEpochsAreRefused:
    """``report_load`` truncated its epoch: ``2.5`` was recorded at epoch 2,
    ``np.float64(4.9)`` at epoch 4 and ``"3"`` at epoch 3 -- epochs that
    ``advance_epoch`` and ``release`` refuse."""

    def test_nothing_is_recorded_and_integral_epochs_still_are(self):
        broker = SliceBroker(
            topology=build_tiny_topology(),
            solver=BendersSolver(master_time_limit_s=None, time_limit_s=None),
        )
        monitoring = broker.orchestrator.monitoring
        broker.report_load("s", "bs-0", 1, [5.0])

        def track():
            return monitoring.peak_history("s").tolist(), monitoring._last_epoch["s"]

        before = track()
        for epoch in (2.5, np.float64(4.9), "3", True, -1):
            with pytest.raises(ValidationError, match="non-negative epoch") as refused:
                broker.report_load("s", "bs-0", epoch, [9.0])
            assert refused.value.details == {
                "slice_name": "s",
                "base_station": "bs-0",
                "epoch": epoch,
            }
            assert track() == before
        # An integral epoch of another type is the same epoch.
        broker.report_load("s", "bs-1", np.int64(2), [7.0])
        broker.report_load("s", "bs-0", 3.0, [8.0])
        assert track() == ([5.0, 7.0, 8.0], 3)
        assert type(monitoring._last_epoch["s"]) is int


class TestServerDoubleStart:
    def test_double_start_is_a_lifecycle_error(self):
        broker = SliceBroker(
            topology=operators.testbed_topology(), solver=DirectMILPSolver()
        )
        server = BrokerServer(broker)
        server.start()
        try:
            with pytest.raises(LifecycleError) as excinfo:
                server.start()
            assert excinfo.value.code == "lifecycle"
            assert excinfo.value.details["url"] == server.url
        finally:
            server.stop()

    def test_restart_after_stop_is_a_lifecycle_error(self):
        """stop() closes the bound socket; a silent restart used to launch a
        serve_forever thread over the dead fd."""
        broker = SliceBroker(
            topology=operators.testbed_topology(), solver=DirectMILPSolver()
        )
        server = BrokerServer(broker)
        server.start()
        server.stop()
        with pytest.raises(LifecycleError, match="cannot be restarted"):
            server.start()

    def test_stop_is_idempotent(self):
        broker = SliceBroker(
            topology=operators.testbed_topology(), solver=DirectMILPSolver()
        )
        server = BrokerServer(broker)
        server.start()
        server.stop()
        server.stop()
