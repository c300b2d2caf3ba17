"""Typed HTTP/JSON client mirroring the SliceBroker surface over the wire.

:class:`BrokerClient` speaks the route table of :mod:`repro.api.transport`
against a :class:`~repro.api.server.BrokerServer` and returns the same typed
DTOs the in-process facade returns -- ``submit`` yields an
:class:`~repro.api.dtos.AdmissionTicket`, ``advance_epoch`` an
:class:`~repro.api.dtos.EpochReport`, and so on -- rebuilt from the wire
payloads via the DTOs' own ``from_dict``.  Error responses are decoded with
:func:`~repro.api.errors.error_from_dict` and re-raised as the original
:class:`~repro.api.errors.BrokerError` subclass, so::

    try:
        client.submit(request, client_token="tok")
    except CapacityError:      # HTTP 429 from the bounded intake queue
        backoff_and_retry()

reads identically whether ``client`` is a :class:`BrokerClient` or the
broker itself.

One client owns one persistent HTTP/1.1 connection -- a socket and a buffered
reader, framed by the codec of :mod:`repro.api.transport` the server also
speaks; each request leaves as one write -- and is **not** thread safe: give
each concurrent tenant session its own client (connections are cheap; the
server is thread-per-connection).  GET requests are transparently retried
once when a kept-alive connection turns out to be dead; POSTs are never
auto-retried (an idempotency token makes the *caller's* retry safe, the
transport must not guess).  :class:`BrokerConnectionError` is the only
transport failure that escapes.

Numbers cross as JSON, in a body or a query value, to the broker's own
parameter rules (DESIGN.md, "Input contract"); a header carries only text,
so the client applies the text rule to a token itself.
"""

from __future__ import annotations

import json
import socket
from typing import Any, BinaryIO, Iterable, Mapping, Sequence

from repro.api.dtos import (
    AdmissionTicket,
    EpochReport,
    QuoteResponse,
    SliceRequestV1,
    SlicePage,
    SliceStatus,
)
from repro.api.errors import BrokerError, ValidationError, error_from_dict
from repro.api.events import LifecycleEvent
from repro.api.transport import (
    API_PREFIX,
    IDEMPOTENCY_BATCH_HEADER,
    IDEMPOTENCY_HEADER,
    JSON_CONTENT_TYPE,
    content_length,
    encode_json,
    encode_query_value,
    json_text,
    read_body,
    read_head,
    send,
    slice_path,
    write_head,
)
from repro.api.wire import checked
from repro.utils.validation import ensure_in_range, ensure_int_in_range, ensure_text

_FOREVER = float("inf")

__all__ = ["BrokerClient", "BrokerConnectionError", "EventPage", "SlicePage"]


class BrokerConnectionError(ConnectionError):
    """The transport failed before a structured broker response arrived."""


class EventPage:
    """One page of the cursor-paged event feed.

    ``events`` are ``(seq, LifecycleEvent)`` pairs in publication order;
    ``next_cursor`` is the ``since`` value that continues the feed.
    """

    def __init__(self, events: list[tuple[int, LifecycleEvent]], next_cursor: int):
        self.events = events
        self.next_cursor = next_cursor

    def __iter__(self) -> Iterable[tuple[int, LifecycleEvent]]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


def _request_payload(
    request: SliceRequestV1 | Mapping[str, Any],
) -> dict[str, Any]:
    if isinstance(request, SliceRequestV1):
        return request.to_dict()
    if isinstance(request, Mapping):
        return dict(request)
    raise ValidationError(
        "request must be a SliceRequestV1 or a wire payload mapping, got "
        f"{type(request).__name__}"
    )


class BrokerClient:
    """Typed client for one broker server (one connection, one session)."""

    def __init__(self, host: str, port: int, *, timeout: float = 60.0):
        self._host = checked(ensure_text, host, "host")
        self._port = checked(ensure_int_in_range, port, "port", 0, 65535)
        self._timeout = checked(ensure_in_range, timeout, "timeout", 0.0, _FOREVER, closed=False)
        self._sock: socket.socket | None = None
        self._rfile: BinaryIO | None = None

    # ------------------------------------------------------------------ #
    # Connection plumbing
    # ------------------------------------------------------------------ #
    def _connection(self) -> tuple[socket.socket, BinaryIO]:
        if self._sock is None:
            sock = socket.create_connection((self._host, self._port), self._timeout)
            # Admission latency is the benchmark's headline number; never let
            # Nagle/delayed-ACK interplay add 40 ms artifacts to small bodies.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock, self._rfile = sock, sock.makefile("rb")
        return self._sock, self._rfile

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "BrokerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        *,
        body: Mapping[str, Any] | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> Any:
        payload = b"" if body is None else encode_json(body)
        all_headers = {"Host": f"{self._host}:{self._port}", "Accept": JSON_CONTENT_TYPE}
        if body is not None:
            all_headers["Content-Type"] = JSON_CONTENT_TYPE
            all_headers["Content-Length"] = str(len(payload))
        if headers:
            all_headers.update(headers)
        # Raises ValidationError on an unencodable header: nothing sent yet.
        head = write_head(f"{method} {path} HTTP/1.1", all_headers)
        attempts = 2 if method == "GET" else 1
        for attempt in range(attempts):
            try:
                sock, rfile = self._connection()
                send(sock, head, payload)
                start, reply = read_head(rfile)
                status = int(start.split(None, 2)[1])
                data = read_body(rfile, content_length(reply, limit=None))
                break
            except (OSError, ValidationError, ValueError, IndexError) as error:
                # The connection died (or answered something that is not
                # HTTP); reconnect.  Only GETs are replayed -- a POST may
                # already have been applied.
                self.close()
                if attempt + 1 >= attempts:
                    raise BrokerConnectionError(
                        f"{method} {path} failed without a broker response: {error}"
                    ) from error
        if "close" in reply.get("Connection", "").lower():
            self.close()
        return self._decode(method, path, status, data)

    @staticmethod
    def _decode(method: str, path: str, status: int, data: bytes) -> Any:
        try:
            decoded = json.loads(data.decode("utf-8")) if data else None
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BrokerConnectionError(
                f"{method} {path}: undecodable response body under status {status}"
            ) from error
        if 200 <= status < 300:
            return decoded
        if isinstance(decoded, dict) and "error" in decoded:
            raise error_from_dict(decoded)
        raise BrokerError(
            f"{method} {path} failed with HTTP {status} and a non-taxonomy body"
        )

    # ------------------------------------------------------------------ #
    # Broker surface
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: SliceRequestV1 | Mapping[str, Any],
        *,
        client_token: str | None = None,
    ) -> AdmissionTicket:
        headers = {}
        if client_token is not None:
            headers[IDEMPOTENCY_HEADER] = checked(ensure_text, client_token, "client_token")
        payload = self._request(
            "POST",
            f"{API_PREFIX}/slices",
            body=_request_payload(request),
            headers=headers,
        )
        return AdmissionTicket.from_dict(payload)

    def submit_batch(
        self,
        requests: Sequence[SliceRequestV1 | Mapping[str, Any]],
        *,
        client_tokens: Sequence[str | None] | None = None,
    ) -> list[AdmissionTicket]:
        headers = {}
        if client_tokens is not None:
            headers[IDEMPOTENCY_BATCH_HEADER] = json_text(list(client_tokens))
        payload = self._request(
            "POST",
            f"{API_PREFIX}/slices:batch",
            body={"requests": [_request_payload(request) for request in requests]},
            headers=headers,
        )
        return [AdmissionTicket.from_dict(entry) for entry in payload["tickets"]]

    def quote(self, request: SliceRequestV1 | Mapping[str, Any]) -> QuoteResponse:
        payload = self._request(
            "POST", f"{API_PREFIX}/quotes", body=_request_payload(request)
        )
        return QuoteResponse.from_dict(payload)

    def status(self, slice_name: str) -> SliceStatus:
        payload = self._request("GET", slice_path(slice_name))
        return SliceStatus.from_dict(payload)

    def list_slices(
        self, offset: int = 0, *, limit: int | None = None
    ) -> SlicePage:
        path = f"{API_PREFIX}/slices?offset={encode_query_value(offset)}"
        if limit is not None:
            path += f"&limit={encode_query_value(limit)}"
        payload = self._request("GET", path)
        return SlicePage(
            (SliceStatus.from_dict(entry) for entry in payload["slices"]),
            payload["total"],
            payload["offset"],
        )

    def release(self, slice_name: str, *, epoch: int) -> SliceStatus:
        payload = self._request(
            "POST", slice_path(slice_name, verb="release"), body={"epoch": epoch}
        )
        return SliceStatus.from_dict(payload)

    def advance_epoch(self, epoch: int) -> EpochReport:
        payload = self._request("POST", f"{API_PREFIX}/epochs", body={"epoch": epoch})
        return EpochReport.from_dict(payload)

    def events(self, since: int = 0, *, limit: int | None = None) -> EventPage:
        path = f"{API_PREFIX}/events?since={encode_query_value(since)}"
        if limit is not None:
            path += f"&limit={encode_query_value(limit)}"
        payload = self._request("GET", path)
        events = [
            (entry["seq"], LifecycleEvent.from_dict(entry["event"]))
            for entry in payload["events"]
        ]
        return EventPage(events, payload["next"])

    def health(self) -> dict[str, Any]:
        return self._request("GET", f"{API_PREFIX}/health")
