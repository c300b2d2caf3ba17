"""HTTP/JSON transport: endpoints, wire-error taxonomy, event feed, and the
transport-level golden test (one scenario over the wire vs in process must be
bit-identical -- decisions, tickets, epoch reports, event order)."""

from __future__ import annotations

import http.client
import json

import pytest

from repro.api import (
    BrokerClient,
    BrokerServer,
    CapacityError,
    DuplicateSliceError,
    LifecycleError,
    NotFoundError,
    SliceBroker,
    SliceRequestV1,
    ValidationError,
)
from repro.api.transport import (
    IDEMPOTENCY_BATCH_HEADER,
    MAX_BODY_BYTES,
    STATUS_BY_CODE,
)
from repro.core.milp_solver import DirectMILPSolver
from repro.topology import operators

pytestmark = pytest.mark.transport


def make_broker(**kwargs) -> SliceBroker:
    return SliceBroker(
        topology=operators.testbed_topology(), solver=DirectMILPSolver(), **kwargs
    )


def request(name: str, arrival: int = 0, duration: int = 2) -> SliceRequestV1:
    return SliceRequestV1.of(
        name, "uRLLC", duration_epochs=duration, arrival_epoch=arrival
    )


@pytest.fixture()
def served():
    broker = make_broker()
    with BrokerServer(broker) as server:
        with BrokerClient(server.host, server.port) as client:
            yield broker, server, client


def raw_exchange(
    server: BrokerServer,
    method: str,
    path: str,
    body: bytes | None = None,
    headers: dict | None = None,
) -> tuple[int, dict]:
    """One raw HTTP exchange, for wire shapes the typed client won't emit."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, payload
    finally:
        conn.close()


# --------------------------------------------------------------------- #
# Endpoints
# --------------------------------------------------------------------- #
class TestEndpoints:
    def test_submit_returns_ticket_dto(self, served):
        broker, _, client = served
        ticket = client.submit(request("s1", arrival=3, duration=7))
        assert ticket.slice_name == "s1"
        assert ticket.arrival_epoch == 3
        assert ticket.descriptor.slice_type == "uRLLC"
        assert broker.pending_count == 1

    def test_idempotency_header_replays_ticket(self, served):
        broker, _, client = served
        first = client.submit(request("s1", arrival=5), client_token="tok")
        second = client.submit(request("s1", arrival=5), client_token="tok")
        assert first == second
        assert first.client_token == "tok"
        assert broker.pending_count == 1

    def test_token_payload_conflict_is_duplicate_over_wire(self, served):
        _, _, client = served
        client.submit(request("s1", arrival=5), client_token="tok")
        with pytest.raises(DuplicateSliceError) as excinfo:
            client.submit(request("s1", arrival=6), client_token="tok")
        assert excinfo.value.details["client_token"] == "tok"

    def test_batch_submit_with_token_header(self, served):
        broker, _, client = served
        tickets = client.submit_batch(
            [request("a", arrival=1), request("b", arrival=1)],
            client_tokens=["t-a", None],
        )
        assert [t.slice_name for t in tickets] == ["a", "b"]
        assert tickets[0].client_token == "t-a"
        assert broker.pending_count == 2
        # Replaying the tokened entry returns the original ticket.
        again = client.submit(request("a", arrival=1), client_token="t-a")
        assert again == tickets[0]

    def test_batch_atomicity_over_wire(self, served):
        broker, _, client = served
        with pytest.raises(DuplicateSliceError):
            client.submit_batch([request("a", arrival=1), request("a", arrival=1)])
        assert broker.pending_count == 0

    def test_quote_is_pure_read(self, served):
        broker, _, client = served
        quote = client.quote(request("q1"))
        assert quote.slice_type == "uRLLC"
        assert quote.sla_mbps == pytest.approx(25.0)
        assert broker.pending_count == 0

    def test_status_list_release_lifecycle(self, served):
        _, _, client = served
        client.submit(request("s1", duration=4))
        assert client.status("s1").state == "queued"
        report = client.advance_epoch(0)
        assert report.accepted == ("s1",)
        assert client.status("s1").state == "admitted"
        assert [s.name for s in client.list_slices()] == ["s1"]
        released = client.release("s1", epoch=1)
        assert released.state == "released"
        assert client.status("s1").state == "released"

    def test_slice_names_with_url_hostile_characters(self, served):
        _, _, client = served
        name = "tenant/7:release me?&#"
        client.submit(
            SliceRequestV1.of(name, "mMTC", duration_epochs=2, arrival_epoch=9)
        )
        assert client.status(name).state == "queued"
        assert client.release(name, epoch=0).state == "released"

    def test_health_endpoint(self, served):
        _, _, client = served
        client.submit(request("s1", arrival=2))
        payload = client.health()
        assert payload["health"] == "healthy"
        assert payload["pending_requests"] == 1


# --------------------------------------------------------------------- #
# Wire-error taxonomy (satellite: never a bare 500/traceback)
# --------------------------------------------------------------------- #
class TestWireErrors:
    def assert_taxonomy(self, status: int, payload: dict, code: str):
        assert payload["error"] == code
        assert status == STATUS_BY_CODE[code]
        assert set(payload) == {"error", "message", "details"}
        assert "Traceback" not in payload["message"]

    def test_malformed_json_body(self, served):
        _, server, _ = served
        status, payload = raw_exchange(server, "POST", "/v1/slices", body=b"{not json")
        self.assert_taxonomy(status, payload, "validation")
        assert "malformed JSON" in payload["message"]

    def test_empty_body_on_post(self, served):
        _, server, _ = served
        status, payload = raw_exchange(server, "POST", "/v1/epochs")
        self.assert_taxonomy(status, payload, "validation")

    def test_unknown_route(self, served):
        _, server, _ = served
        status, payload = raw_exchange(server, "GET", "/v1/nope")
        self.assert_taxonomy(status, payload, "not_found")

    def test_known_path_wrong_method(self, served):
        _, server, _ = served
        status, payload = raw_exchange(server, "PUT", "/v1/slices")
        self.assert_taxonomy(status, payload, "not_found")
        status, payload = raw_exchange(server, "DELETE", "/v1/epochs")
        self.assert_taxonomy(status, payload, "not_found")

    def test_version_mismatched_payload(self, served):
        _, server, _ = served
        body = request("s1").to_dict()
        body["schema_version"] = 99
        status, payload = raw_exchange(
            server, "POST", "/v1/slices", body=json.dumps(body).encode()
        )
        self.assert_taxonomy(status, payload, "validation")
        assert payload["details"] == {"supported_version": 1, "payload_version": 99}

    def test_oversized_batch(self, served):
        _, server, _ = served
        entries = [request(f"s{i}", arrival=1).to_dict() for i in range(3)]
        body = json.dumps({"requests": entries * 200}).encode()
        status, payload = raw_exchange(server, "POST", "/v1/slices:batch", body=body)
        self.assert_taxonomy(status, payload, "validation")
        assert payload["details"]["max_batch"] == server.max_batch

    def test_oversized_body(self, served):
        _, server, _ = served
        status, payload = raw_exchange(
            server,
            "POST",
            "/v1/slices",
            body=b" ",
            headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
        )
        self.assert_taxonomy(status, payload, "validation")

    def test_non_object_json_body(self, served):
        _, server, _ = served
        status, payload = raw_exchange(
            server, "POST", "/v1/slices", body=json.dumps([1, 2]).encode()
        )
        self.assert_taxonomy(status, payload, "validation")

    def test_malformed_batch_token_header(self, served):
        _, server, _ = served
        body = json.dumps({"requests": [request("s1", arrival=1).to_dict()]}).encode()
        status, payload = raw_exchange(
            server,
            "POST",
            "/v1/slices:batch",
            body=body,
            headers={IDEMPOTENCY_BATCH_HEADER: "not json"},
        )
        self.assert_taxonomy(status, payload, "validation")
        status, payload = raw_exchange(
            server,
            "POST",
            "/v1/slices:batch",
            body=body,
            headers={IDEMPOTENCY_BATCH_HEADER: json.dumps(["a", "b"])},
        )
        self.assert_taxonomy(status, payload, "validation")

    def test_unknown_slice_status_is_lifecycle(self, served):
        _, server, client = served
        with pytest.raises(LifecycleError):
            client.status("ghost")
        status, payload = raw_exchange(server, "GET", "/v1/slices/ghost")
        self.assert_taxonomy(status, payload, "lifecycle")

    def test_bad_events_cursor(self, served):
        _, server, _ = served
        status, payload = raw_exchange(server, "GET", "/v1/events?since=later")
        self.assert_taxonomy(status, payload, "validation")

    def test_intake_backpressure_maps_to_429(self):
        broker = make_broker(max_pending=2)
        with BrokerServer(broker) as server:
            with BrokerClient(server.host, server.port) as client:
                client.submit(request("a", arrival=1))
                client.submit(request("b", arrival=1))
                with pytest.raises(CapacityError) as excinfo:
                    client.submit(request("c", arrival=1))
                assert excinfo.value.details["max_pending"] == 2
                status, payload = raw_exchange(
                    server,
                    "POST",
                    "/v1/slices",
                    body=json.dumps(request("c", arrival=1).to_dict()).encode(),
                )
                assert status == 429
                assert payload["error"] == "capacity"
                # Draining the queue lifts the backpressure.
                client.advance_epoch(1)
                assert client.submit(request("c", arrival=2)).slice_name == "c"

    def test_error_round_trip_preserves_type(self, served):
        _, _, client = served
        with pytest.raises(ValidationError):
            client.submit({"name": "x"})  # not a versioned payload
        with pytest.raises(NotFoundError):
            client._request("GET", "/v1/definitely-not-a-route")


# --------------------------------------------------------------------- #
# Event feed
# --------------------------------------------------------------------- #
class TestEventFeed:
    def test_cursor_paging_is_exactly_once_and_ordered(self, served):
        _, _, client = served
        client.submit_batch([request("a", duration=2), request("b", duration=2)])
        client.advance_epoch(0)
        client.release("a", epoch=1)
        first = client.events(0, limit=2)
        rest = client.events(first.next_cursor)
        seqs = [seq for seq, _ in list(first) + list(rest)]
        assert seqs == sorted(set(seqs))
        kinds = [event.kind.value for _, event in list(first) + list(rest)]
        assert kinds.count("released") == 1
        # The feed is exhausted: polling the final cursor returns nothing.
        assert len(client.events(rest.next_cursor)) == 0

    def test_feed_matches_report_event_order(self, served):
        _, _, client = served
        client.submit_batch([request(f"s{i}", duration=2) for i in range(3)])
        report = client.advance_epoch(0)
        page = client.events(0)
        assert tuple(event for _, event in page) == report.events


# --------------------------------------------------------------------- #
# Event-log retention (bounded ring)
# --------------------------------------------------------------------- #
class TestEventRetention:
    @pytest.fixture()
    def tiny_log(self):
        broker = make_broker()
        with BrokerServer(broker, event_retention=4) as server:
            with BrokerClient(server.host, server.port) as client:
                yield broker, server, client

    @staticmethod
    def publish(client, count: int = 8) -> int:
        """Drive > retention events; returns the feed's end cursor."""
        client.submit_batch(
            [request(f"s{i}", duration=2) for i in range(count)]
        )
        client.advance_epoch(0)  # one queued + one accepted/rejected per slice
        return client.events(10**9, limit=0).next_cursor

    def test_evicted_cursor_is_validation_naming_oldest_seq(self, tiny_log):
        _, server, client = tiny_log
        total = self.publish(client)
        assert total > 4
        with pytest.raises(ValidationError) as excinfo:
            client.events(0)
        details = excinfo.value.details
        assert details["oldest_available_seq"] == total - 4 + 1
        assert details["requested_since"] == 0
        assert details["retention"] == 4
        status, payload = raw_exchange(server, "GET", "/v1/events?since=0")
        assert status == STATUS_BY_CODE["validation"]
        assert payload["error"] == "validation"

    def test_retained_tail_still_pages_exactly_once(self, tiny_log):
        _, _, client = tiny_log
        total = self.publish(client)
        oldest_cursor = total - 4
        first = client.events(oldest_cursor, limit=3)
        rest = client.events(first.next_cursor)
        assert len(first) == 3
        assert len(rest) == 1
        seqs = [seq for seq, _ in list(first) + list(rest)]
        assert seqs == list(range(oldest_cursor + 1, total + 1))

    def test_health_counts_total_published_not_retained(self, tiny_log):
        _, _, client = tiny_log
        total = self.publish(client)
        assert client.health()["events_published"] == total

    def test_default_retention_keeps_small_feeds_whole(self, served):
        _, _, client = served
        client.submit_batch([request(f"s{i}", duration=2) for i in range(3)])
        client.advance_epoch(0)
        assert len(client.events(0)) > 0  # cursor 0 never evicted


# --------------------------------------------------------------------- #
# Paged slice listing
# --------------------------------------------------------------------- #
class TestSlicePaging:
    @staticmethod
    def admit(client, count: int = 5) -> list[str]:
        names = [f"s{i}" for i in range(count)]
        client.submit_batch([request(name, duration=4) for name in names])
        client.advance_epoch(0)
        return sorted(names)

    def test_offset_limit_windows_are_stable_and_disjoint(self, served):
        _, _, client = served
        names = self.admit(client, 5)
        first = client.list_slices(limit=2)
        second = client.list_slices(2, limit=2)
        tail = client.list_slices(4)
        assert [s.name for s in first + second + tail] == names
        assert (first.total, first.offset) == (5, 0)
        assert (second.total, second.offset) == (5, 2)
        assert (tail.total, tail.offset) == (5, 4)

    def test_full_listing_is_unchanged_by_default(self, served):
        _, _, client = served
        names = self.admit(client, 3)
        page = client.list_slices()
        assert [s.name for s in page] == names
        assert page.total == 3

    def test_offset_past_end_is_empty_not_an_error(self, served):
        _, _, client = served
        self.admit(client, 2)
        page = client.list_slices(10)
        assert list(page) == []
        assert page.total == 2

    def test_bad_paging_params_are_validation_errors(self, served):
        _, server, _ = served
        # "%2B1" is a literal "+1" ("+" alone decodes to a space).
        for query in ("offset=x", "limit=x", "offset=-1", "limit=-1", "offset=%2B1", "limit=1_0"):
            status, payload = raw_exchange(server, "GET", f"/v1/slices?{query}")
            assert status == STATUS_BY_CODE["validation"], query
            assert payload["error"] == "validation", query

    def test_facade_pages_identically(self, served):
        broker, _, client = served
        self.admit(client, 4)
        wire = [s.to_dict() for s in client.list_slices(1, limit=2)]
        local = [s.to_dict() for s in broker.list_slices(1, limit=2)]
        assert wire == local
        assert broker.slice_count() == 4


# --------------------------------------------------------------------- #
# Transport-level golden test
# --------------------------------------------------------------------- #
class TestTransportGolden:
    """The same scenario driven over HTTP and in process is bit-identical."""

    def drive(self, submit, submit_batch, quote, status, list_slices, release,
              advance_epoch):
        """One scenario: batch intake, deferred arrival, renewal, release."""
        outputs = []
        outputs.append(
            [t.to_dict() for t in submit_batch(
                [request("alpha", duration=2), request("beta", duration=3),
                 SliceRequestV1.of("gamma", "eMBB", duration_epochs=2)],
                ["t-alpha", None, "t-gamma"],
            )]
        )
        outputs.append(submit(request("deferred", arrival=2, duration=2), None).to_dict())
        outputs.append(submit(request("alpha", duration=2), "t-alpha").to_dict())
        outputs.append(quote(request("alpha", duration=2)).to_dict())
        for epoch in range(5):
            if epoch == 1:
                outputs.append(release("gamma", epoch).to_dict())
            if epoch == 3:
                # Renew alpha after its first life expired at epoch 2.
                outputs.append(submit(request("alpha", arrival=3, duration=2), None).to_dict())
            outputs.append(advance_epoch(epoch).to_dict())
            outputs.append([s.to_dict() for s in list_slices()])
        outputs.append(status("alpha").to_dict())
        outputs.append(status("gamma").to_dict())
        return outputs

    @staticmethod
    def scrub_wall_clock(outputs):
        """Zero the one wall-clock field (solver_runtime_s) in epoch reports;
        everything else -- decisions, objective values, solver iteration
        counts, events -- must match bit-for-bit."""

        def scrub(node):
            if isinstance(node, dict):
                return {
                    key: 0.0 if key == "solver_runtime_s" else scrub(value)
                    for key, value in node.items()
                }
            if isinstance(node, list):
                return [scrub(item) for item in node]
            return node

        return scrub(outputs)

    def test_wire_equals_in_process(self):
        local = make_broker()
        local_events = []
        local.events.subscribe(lambda event: local_events.append(event))
        local_outputs = self.drive(
            lambda req, token: local.submit(req, client_token=token),
            lambda reqs, tokens: local.submit_batch(reqs, client_tokens=tokens),
            local.quote,
            local.status,
            local.list_slices,
            lambda name, epoch: local.release(name, epoch=epoch),
            local.advance_epoch,
        )

        remote = make_broker()
        with BrokerServer(remote) as server:
            with BrokerClient(server.host, server.port) as client:
                wire_outputs = self.drive(
                    lambda req, token: client.submit(req, client_token=token),
                    lambda reqs, tokens: client.submit_batch(reqs, client_tokens=tokens),
                    client.quote,
                    client.status,
                    client.list_slices,
                    lambda name, epoch: client.release(name, epoch=epoch),
                    client.advance_epoch,
                )
                wire_events = [event for _, event in client.events(0)]

        # Bit-identical wire payloads for every operation's result, in order:
        # tickets, quotes, epoch reports (decisions, solver stats, events),
        # statuses and listings all round-trip identically.
        assert json.dumps(self.scrub_wall_clock(wire_outputs), sort_keys=True) == (
            json.dumps(self.scrub_wall_clock(local_outputs), sort_keys=True)
        )
        # Same events, same order, same payloads -- over the wire the feed is
        # cursor-paged, in process it is the subscription stream.
        assert [e.to_dict() for e in wire_events] == [
            e.to_dict() for e in local_events
        ]
