"""Conformance of the HTTP/1.1 framing codec (``repro.api.transport``) that the
server and the client share: persistence rules, bounds, what each violation
answers, the keep-alive resync after an unread body, the client's retry
policy -- and that the stdlib ``http.client`` still interoperates."""

from __future__ import annotations

import http.client
import io
import json
import socket
import threading
import time
import types

import pytest
from hypothesis import given, strategies as st

import repro.api.transport as transport

from repro.api import (
    BrokerClient,
    BrokerConnectionError,
    BrokerServer,
    SliceBroker,
    SliceRequestV1,
    ValidationError,
)
from repro.api.transport import (
    MAX_BODY_BYTES,
    MAX_HEADERS,
    MAX_LINE_BYTES,
    STATUS_BY_CODE,
    http_date,
    read_head,
    write_head,
)

from repro.core.milp_solver import DirectMILPSolver
from repro.topology import operators

pytestmark = pytest.mark.transport


def make_broker() -> SliceBroker:
    return SliceBroker(topology=operators.testbed_topology(), solver=DirectMILPSolver())


def request(name: str, arrival: int = 0) -> SliceRequestV1:
    return SliceRequestV1.of(name, "uRLLC", duration_epochs=2, arrival_epoch=arrival)


@pytest.fixture()
def server():
    with BrokerServer(make_broker()) as running:
        yield running


class RawConnection:
    """One raw TCP connection and just enough parsing to read JSON replies."""

    def __init__(self, server: BrokerServer):
        self.sock = socket.create_connection((server.host, server.port), timeout=30)
        self.rfile = self.sock.makefile("rb")

    def __enter__(self) -> "RawConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.rfile.close()
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def reply(self) -> tuple[int, dict[str, str], dict]:
        """The next response: status, headers (lower-cased), JSON body."""
        status_line = self.rfile.readline()
        assert status_line.startswith(b"HTTP/1.1 "), status_line
        headers = {}
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.rfile.read(int(headers["content-length"]))
        assert headers["content-type"] == "application/json; charset=utf-8"
        return int(status_line.split()[1]), headers, json.loads(body)

    def closed_by_peer(self) -> bool:
        try:
            return self.rfile.read(1) == b""
        except ConnectionResetError:  # closed with our pipelined bytes unread
            return True


def post(path: str, body: bytes, *extra: str) -> bytes:
    lines = [f"POST {path} HTTP/1.1", "Host: broker", f"Content-Length: {len(body)}", *extra]
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body


HEALTH = b"GET /v1/health HTTP/1.1\r\nHost: broker\r\n\r\n"


def assert_taxonomy(status: int, payload: dict, code: str) -> None:
    assert payload["error"] == code
    assert status == STATUS_BY_CODE[code]
    assert set(payload) == {"error", "message", "details"}


# --------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------- #
class TestPersistence:
    def test_two_requests_pipelined_in_one_segment(self, server):
        with RawConnection(server) as conn:
            conn.send(HEALTH + post("/v1/slices", json.dumps(request("p1").to_dict()).encode()))
            status, headers, payload = conn.reply()
            assert (status, payload["pending_requests"]) == (200, 0)
            assert headers["connection"] == "keep-alive"
            status, _, payload = conn.reply()
            assert (status, payload["slice_name"]) == (201, "p1")

    def test_request_dribbled_one_byte_per_send(self, server):
        with RawConnection(server) as conn:
            for byte in post("/v1/quotes", json.dumps(request("q").to_dict()).encode()):
                conn.send(bytes([byte]))
            status, _, payload = conn.reply()
            assert (status, payload["slice_name"]) == (200, "q")

    @pytest.mark.parametrize("spelling", ["idempotency-key", "IdEmPoTeNcY-kEy"])
    def test_header_names_are_case_insensitive(self, server, spelling):
        body = json.dumps(request("s1", arrival=5).to_dict()).encode()
        with RawConnection(server) as conn:
            conn.send(post("/v1/slices", body, "Idempotency-Key: tok"))
            _, _, first = conn.reply()
            conn.send(post("/v1/slices", body, f"{spelling}: tok"))
            status, _, replayed = conn.reply()
        assert status == 201
        assert replayed == first
        assert server.broker.pending_count == 1

    def test_http_1_0_closes_unless_keep_alive(self, server):
        with RawConnection(server) as conn:
            conn.send(b"GET /v1/health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            status, headers, _ = conn.reply()
            assert (status, headers["connection"]) == (200, "keep-alive")
            conn.send(b"GET /v1/health HTTP/1.0\r\n\r\n")
            status, headers, _ = conn.reply()
            assert (status, headers["connection"]) == (200, "close")
            assert conn.closed_by_peer()

    def test_connection_close_is_echoed_and_obeyed(self, server):
        with RawConnection(server) as conn:
            conn.send(b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n" + HEALTH)
            status, headers, _ = conn.reply()
            assert (status, headers["connection"]) == (200, "close")
            assert conn.closed_by_peer()  # the pipelined second request is dropped

    def test_head_is_answered_and_closed(self, server):
        with RawConnection(server) as conn:
            conn.send(b"HEAD /v1/health HTTP/1.1\r\n\r\n")
            status, headers, _ = conn.reply()  # a body a HEAD client would leave unread
            assert (status, headers["connection"]) == (404, "close")
            assert conn.closed_by_peer()

    def test_expect_100_continue(self, server):
        body = json.dumps(request("q").to_dict()).encode()
        with RawConnection(server) as conn:
            head = post("/v1/quotes", body, "Expect: 100-continue")[: -len(body)]
            conn.send(head)
            assert conn.rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert conn.rfile.readline() == b"\r\n"
            conn.send(body)
            status, _, payload = conn.reply()
            assert (status, payload["slice_name"]) == (200, "q")

    def test_every_response_is_one_dated_json_message(self, server):
        with RawConnection(server) as conn:
            conn.send(HEALTH)
            _, headers, _ = conn.reply()
        assert set(headers) == {"date", "content-type", "content-length", "connection"}
        assert headers["date"].endswith(" GMT") and len(headers["date"]) == 29

    def test_stdlib_http_client_interoperates(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            for name in ("a", "b"):  # two exchanges on one kept-alive connection
                conn.request("POST", "/v1/quotes", body=json.dumps(request(name).to_dict()))
                response = conn.getresponse()
                assert response.status == 200
                assert not response.will_close
                assert json.loads(response.read())["slice_name"] == name
        finally:
            conn.close()


# --------------------------------------------------------------------- #
# Satellite 1: the request after an unread body
# --------------------------------------------------------------------- #
class TestBodyIsConsumedBeforeAnyResponse:
    @pytest.mark.parametrize("method, path", [
        ("POST", "/v1/nope"), ("PUT", "/v1/slices"), ("DELETE", "/v1/epochs"),
    ])
    def test_keep_alive_survives_a_404_with_a_body(self, server, method, path):
        body = json.dumps({"epoch": 0}).encode()
        with RawConnection(server) as conn:
            conn.send(post(path, body).replace(b"POST", method.encode(), 1))
            status, headers, payload = conn.reply()
            assert_taxonomy(status, payload, "not_found")
            assert headers["connection"] == "keep-alive"
            conn.send(HEALTH)
            status, _, payload = conn.reply()
            assert (status, payload["health"]) == (200, "healthy")

    @pytest.mark.parametrize("length", [str(MAX_BODY_BYTES + 1), "-1", "twelve", "3\r\nContent-Length: 4"])
    def test_unusable_content_length_answers_and_closes(self, server, length):
        with RawConnection(server) as conn:
            conn.send(
                f"POST /v1/nope HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode() + HEALTH
            )
            status, headers, payload = conn.reply()
            assert_taxonomy(status, payload, "validation")
            assert headers["connection"] == "close"
            assert conn.closed_by_peer()  # never parsed from the middle of a body


# --------------------------------------------------------------------- #
# Satellite 2: framing failures are taxonomy JSON, never an HTML page
# --------------------------------------------------------------------- #
class TestFramingFailuresAreTaxonomyErrors:
    @pytest.mark.parametrize("raw, code", [
        (b"PATCH /v1/slices HTTP/1.1\r\nHost: broker\r\n\r\n", "not_found"),
        (b"BREW /v1/coffee HTTP/1.1\r\n\r\n", "not_found"),
        (b"GARBAGE\r\n\r\n", "validation"),
        (b"GET /v1/health\r\n\r\n", "validation"),  # HTTP/0.9
        (b"GET /v1/health HTTP/2.0\r\n\r\n", "validation"),
        (b"GET /v1/ health HTTP/1.1\r\n\r\n", "validation"),
        (b"\r\n\r\n", "validation"),
        (b"GET /v1/health HTTP/1.1\r\nno colon here\r\n\r\n", "validation"),
        (b"GET /v1/health HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n", "validation"),
        (b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n", "validation"),
        (b"GET /v1/health HTTP/1.1\r\n"
         + b"".join(b"X-%d: v\r\n" % i for i in range(MAX_HEADERS + 1)) + b"\r\n", "validation"),
        (post("/v1/slices", b"0\r\n\r\n", "Transfer-Encoding: chunked"), "validation"),
    ], ids=["patch", "unknown-method", "one-word", "http-0.9", "http-2", "space-in-target",
            "empty-line", "header-without-colon", "70k-header", "64k-request-line",
            "101-headers", "chunked"])
    def test_answer_is_a_json_error_body(self, server, raw, code):
        with RawConnection(server) as conn:
            conn.send(raw)
            status, headers, payload = conn.reply()
            assert_taxonomy(status, payload, code)
            # A routing miss leaves the stream in step; a framing one cannot.
            assert headers["connection"] == ("keep-alive" if code == "not_found" else "close")
            if code == "validation":
                assert conn.closed_by_peer()

    def test_a_connection_error_is_logged_not_printed(self, server, caplog, capsys):
        # socketserver calls handle_error when a handler thread raises; its
        # default prints a traceback per dropped client to stderr.
        with caplog.at_level("DEBUG", logger="repro.api.server"):
            try:
                raise ConnectionResetError("peer hung up")
            except ConnectionResetError:
                server._http.handle_error(None, ("127.0.0.1", 1))
        assert capsys.readouterr().err == ""
        assert [record.exc_info[0] for record in caplog.records] == [ConnectionResetError]

    def test_bounds_are_inclusive(self, server):
        longest = b"X-Long: " + b"a" * (MAX_LINE_BYTES - 10) + b"\r\n"
        assert len(longest) == MAX_LINE_BYTES
        filler = b"".join(b"X-%d: v\r\n" % i for i in range(MAX_HEADERS - 1))
        with RawConnection(server) as conn:
            conn.send(b"GET /v1/health HTTP/1.1\r\n" + longest + filler + b"\r\n")
            assert conn.reply()[0] == 200


# --------------------------------------------------------------------- #
# Client: retry policy and failure mapping
# --------------------------------------------------------------------- #
@pytest.fixture()
def dropping_server(monkeypatch):
    """A server whose accepted sockets the test can close from the server's
    side, the way an idle timeout or a restart would."""
    accepted = []
    with BrokerServer(make_broker()) as running:
        process_request = running._http.process_request

        def remember(sock, address):
            accepted.append(sock)
            process_request(sock, address)

        monkeypatch.setattr(running._http, "process_request", remember)

        def drop_connections():
            while accepted:
                accepted.pop().shutdown(socket.SHUT_RDWR)

        yield running, drop_connections


class TestClientRetryPolicy:
    def test_get_is_retried_once_on_a_dead_connection(self, dropping_server):
        server, drop_connections = dropping_server
        with BrokerClient(server.host, server.port) as client:
            assert client.health()["health"] == "healthy"
            drop_connections()
            assert client.health()["health"] == "healthy"

    def test_post_on_a_dead_connection_raises_and_is_not_replayed(self, dropping_server):
        server, drop_connections = dropping_server
        with BrokerClient(server.host, server.port) as client:
            client.health()
            drop_connections()
            with pytest.raises(BrokerConnectionError):
                client.submit(request("s1"), client_token="tok")
            assert server.broker.pending_count <= 1  # at most once, never twice
            # The caller's retry is the safe one: the token replays or enqueues.
            assert client.submit(request("s1"), client_token="tok").slice_name == "s1"
            assert server.broker.pending_count == 1

    def test_client_follows_connection_close(self, server):
        with BrokerClient(server.host, server.port) as client:
            client._request("GET", "/v1/health", headers={"Connection": "close"})
            assert client._sock is None
            assert client.health()["health"] == "healthy"

    def test_refused_connection_is_a_broker_connection_error(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            port = placeholder.getsockname()[1]
        with pytest.raises(BrokerConnectionError):
            BrokerClient("127.0.0.1", port).health()

    @pytest.mark.parametrize("canned", [
        b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{\"health\":",
        b"HTTP/1.1 200 OK\r\nContent-Le",
        b"SSH-2.0-OpenSSH_9.6\r\n\r\n",
        b"HTTP/1.1 OK\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n<p>",
    ], ids=["truncated-body", "truncated-head", "not-http", "no-status", "not-json"])
    def test_unreadable_response_is_a_broker_connection_error(self, canned):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10)
        answered = []

        def answer_and_hang_up():
            try:
                while True:  # a GET is retried once, silently
                    sock, _ = listener.accept()
                    with sock:
                        sock.recv(65536)
                        sock.sendall(canned)
                    answered.append(sock)
            except OSError:
                pass  # the listener was closed: the test is over

        thread = threading.Thread(target=answer_and_hang_up, daemon=True)
        thread.start()
        try:
            with BrokerClient("127.0.0.1", listener.getsockname()[1]) as client:
                with pytest.raises(BrokerConnectionError):
                    client.health()
        finally:
            listener.shutdown(socket.SHUT_RDWR)
            listener.close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        # Framing failures are retried once; a well-framed reply is final.
        assert len(answered) == (1 if canned.endswith(b"<p>") else 2)

    @pytest.mark.parametrize("token", ["snowman-☃", "two\r\nX-Injected: 1"])
    def test_unencodable_header_is_refused_before_anything_is_sent(self, server, token):
        with BrokerClient(server.host, server.port) as client:
            with pytest.raises(ValidationError):
                client.submit(request("s1"), client_token=token)
            assert client._sock is None  # not even a connection was opened
        assert server.broker.pending_count == 0


# --------------------------------------------------------------------- #
# Codec round trip
# --------------------------------------------------------------------- #
LINE_TEXT = st.text(
    st.characters(max_codepoint=255, blacklist_characters="\r\n"), max_size=60
)
FIELD_NAMES = st.text("abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=20)


class TestCodecRoundTrip:
    @given(
        start=LINE_TEXT,
        headers=st.dictionaries(FIELD_NAMES, LINE_TEXT.map(str.strip), max_size=MAX_HEADERS),
    )
    def test_read_head_inverts_write_head(self, start, headers):
        stream = io.BytesIO(write_head(start, headers) + b"rest")
        read_start, read_headers = read_head(stream)
        assert (read_start, dict(read_headers)) == (start, headers)
        assert list(read_headers) == list(headers)  # field order survives
        assert stream.read() == b"rest"  # nothing past the head is consumed
        for name, value in headers.items():
            assert read_headers.get(name.upper()) == value

    def test_repeated_field_values_are_joined(self):
        head = b"GET / HTTP/1.1\r\nX-A: 1\r\nx-a: 2\r\n\r\n"
        assert read_head(io.BytesIO(head))[1] == {"x-a": "1, 2"}

    def test_date_is_cached_per_second(self, monkeypatch):
        clock = types.SimpleNamespace(time=lambda: 784111777.9, gmtime=time.gmtime)
        monkeypatch.setattr(transport, "time", clock)
        first = http_date()
        assert first == "Sun, 06 Nov 1994 08:49:37 GMT"  # RFC 9110's own example
        assert http_date() is first
        clock.time = lambda: 784111778.0
        assert http_date() == "Sun, 06 Nov 1994 08:49:38 GMT"
