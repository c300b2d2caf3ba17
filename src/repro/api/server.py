"""Thread-per-connection HTTP/JSON server putting the SliceBroker on a socket.

Stdlib-only: a :class:`BrokerServer` wraps one -- already concurrency-safe --
:class:`~repro.api.broker.SliceBroker` and serves the route table of
:mod:`repro.api.transport` with one handler thread per live connection
(``socketserver.ThreadingTCPServer``).  The handler is a keep-alive loop over
the framing codec of :mod:`repro.api.transport` -- the same one the client
speaks: it frames the request, consumes its body, and answers in a single
write whose body is exactly a PR 5 DTO ``to_dict`` payload.  Nothing here
interprets broker semantics: the server decodes the envelope (path, method,
idempotency headers, JSON body), calls the facade, and encodes the result --
so driving a scenario over the wire is bit-identical to driving the facade in
process (``tests/api/test_transport.py`` pins this).

Every failure crossing the socket is a structured
:class:`~repro.api.errors.BrokerError` body under the status of its ``code``
(:data:`~repro.api.transport.STATUS_BY_CODE`); unexpected internal errors
are logged server-side and cross as a generic ``broker_error`` body --
never a traceback.  That includes what cannot be framed (malformed request
line, oversized line, unusable Content-Length, Transfer-Encoding): those
answer ``validation`` with ``Connection: close``, since the stream is lost.

The event-stream endpoint is a cursor-paged feed: the server subscribes to
the broker's :class:`~repro.api.events.EventBus` at construction and stamps
every published event with a monotonically increasing sequence number;
``GET /v1/events?since=<seq>`` returns the events after ``seq`` plus the
next cursor, so a client polling the cursor sees every event exactly once,
in publication order, regardless of how many sessions share the feed.  The
feed is ring-bounded (``event_retention``): a cursor older than the ring
fails with a ``validation`` error naming the oldest available seq.
"""

from __future__ import annotations

import logging
import threading
from http import HTTPStatus
from socketserver import StreamRequestHandler, ThreadingTCPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.api.broker import SliceBroker
from repro.api.errors import BrokerError, LifecycleError, NotFoundError, ValidationError
from repro.api.events import LifecycleEvent
from repro.api.transport import (
    API_PREFIX,
    DEFAULT_MAX_BATCH,
    IDEMPOTENCY_BATCH_HEADER,
    IDEMPOTENCY_HEADER,
    JSON_CONTENT_TYPE,
    STATUS_BY_CODE,
    batch_tokens_from_header,
    content_length,
    decode_json,
    encode_json,
    error_body,
    http_date,
    parse_slice_path,
    read_body,
    read_head,
    send,
    status_for,
    write_head,
)

__all__ = ["BrokerServer", "EventLog", "DEFAULT_EVENT_RETENTION"]

logger = logging.getLogger(__name__)


#: Default ring-retention cap of the event feed.  A day-long city-scale
#: replay publishes millions of lifecycle events; the feed keeps a bounded
#: tail instead of the whole history.
DEFAULT_EVENT_RETENTION = 65536

_STATUS_LINES = {
    status: f"HTTP/1.1 {status} {HTTPStatus(status).phrase}"
    for status in {200, 201, *STATUS_BY_CODE.values()}
}


class EventLog:
    """Sequence-stamped, thread-safe ring log of one broker's lifecycle events.

    Subscribes to the broker's event bus and appends every event under a
    monotonically increasing sequence number (the first event is seq 1).
    Retention is a ring: only the newest ``retention`` events stay resident
    (amortised O(1) per append via front-offset compaction, the ring-buffer
    TSDB's idiom), while sequence numbers keep counting -- ``__len__``
    still reports the total ever published.  :meth:`page` serves the
    cursor-paged ``/v1/events`` feed; paging from a cursor whose events
    have been evicted raises a typed :class:`ValidationError` naming the
    oldest sequence number still available.
    """

    def __init__(self, broker: SliceBroker, retention: int = DEFAULT_EVENT_RETENTION):
        if retention < 1:
            raise ValidationError(
                f"event retention must be >= 1, got {retention}"
            )
        self._lock = threading.Lock()
        self._retention = retention
        self._events: list[LifecycleEvent] = []
        self._start = 0  # index of the oldest retained event in _events
        self._total = 0  # events ever published == seq of the newest event
        self._token = broker.events.subscribe(self._append)

    def _append(self, event: LifecycleEvent) -> None:
        with self._lock:
            self._events.append(event)
            self._total += 1
            if len(self._events) - self._start > self._retention:
                self._start += 1
                if self._start > self._retention:
                    # Compact the dead prefix once it exceeds the live tail.
                    del self._events[: self._start]
                    self._start = 0

    def __len__(self) -> int:
        with self._lock:
            return self._total

    def page(self, since: int, limit: int | None = None) -> tuple[list[dict[str, Any]], int]:
        """Events with seq > ``since`` (at most ``limit``), plus the next cursor.

        Only the window is copied under the log lock; the payloads are
        encoded after it is dropped, so a large page never stalls
        :meth:`_append` -- which runs inside an epoch's event fan-out, under
        the broker's admission lock.
        """
        with self._lock:
            since = max(0, since)
            dropped = self._total - (len(self._events) - self._start)
            if since < dropped:
                raise ValidationError(
                    f"event cursor {since} has been evicted by retention; the "
                    f"oldest available event is seq {dropped + 1} "
                    f"(resume from since={dropped})",
                    details={
                        "requested_since": since,
                        "oldest_available_seq": dropped + 1,
                        "retention": self._retention,
                    },
                )
            stop_seq = (
                self._total if limit is None else min(self._total, since + limit)
            )
            first = self._start + (since - dropped)
            window = self._events[first : first + (stop_seq - since)]
        page = [
            {"seq": seq, "event": event.to_dict()}
            for seq, event in enumerate(window, start=since + 1)
        ]
        return page, stop_seq


class _BrokerRequestHandler(StreamRequestHandler):
    """Keep-alive loop over the shared codec: one framed request in, one
    single-write response out, dispatched onto the broker facade."""

    disable_nagle_algorithm = True
    server: "_BrokerHTTPServer"

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except ConnectionError:
            pass  # the client hung up (between requests, routinely): nothing to send

    def _serve_one(self) -> bool:
        """Serve one request; False once the connection must close."""
        # A request that cannot be framed leaves the stream out of step, so
        # until the body is in hand every failure answers and closes.
        self.keep_alive = False
        try:
            start, self.headers = read_head(self.rfile)
            logger.debug("%s - %r", self.client_address[0], start)
            parts = start.split()
            if len(parts) != 3 or parts[2] not in ("HTTP/1.1", "HTTP/1.0"):
                raise ValidationError(f"malformed request line {start[:80]!r}")
            if "transfer-encoding" in self.headers:
                raise ValidationError(
                    "Transfer-Encoding request bodies are not supported; "
                    "send a Content-Length"
                )
            length = content_length(self.headers)
            if length and self.headers.get("Expect", "").lower() == "100-continue":
                send(self.connection, b"HTTP/1.1 100 Continue\r\n\r\n")
            self.body = read_body(self.rfile, length)
        except ValidationError as error:
            self._respond(status_for(error), error_body(error))
            return False
        method, target, version = parts
        connection = self.headers.get("Connection", "").lower()
        # HEAD is no route, and a HEAD client will not read its 404's body.
        self.keep_alive = method != "HEAD" and (
            "close" not in connection if version == "HTTP/1.1" else "keep-alive" in connection
        )
        self._dispatch(method, target)
        return self.keep_alive

    def _respond(self, status: int, body: bytes) -> None:
        headers = {
            "Date": http_date(),
            "Content-Type": JSON_CONTENT_TYPE,
            "Content-Length": str(len(body)),
            "Connection": "keep-alive" if self.keep_alive else "close",
        }
        send(self.connection, write_head(_STATUS_LINES[status], headers), body)

    def _respond_json(self, payload: dict[str, Any], *, status: int = 200) -> None:
        self._respond(status, encode_json(payload))

    def _read_body(self) -> bytes:
        return self.body  # consumed before dispatch, whatever the route does

    def _dispatch(self, method: str, target: str) -> None:
        try:
            split = urlsplit(target)
            self.server.api._handle(self, method, split.path, parse_qs(split.query))
        except BrokerError as error:
            self._respond(status_for(error), error_body(error))
        except ConnectionError:
            raise  # client went away mid-response; nothing to send
        except Exception:  # noqa: BLE001 -- boundary guard: no tracebacks on the wire
            logger.exception("unhandled error serving %s %s", method, target)
            fault = BrokerError("internal broker error; see server logs")
            self._respond(status_for(fault), error_body(fault))


class _BrokerHTTPServer(ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Backlog for the pending-connection queue (the load harness opens
    #: hundreds of sessions in one burst; the default of 5 drops SYNs).
    request_queue_size = 1024
    api: "BrokerServer"

    def handle_error(self, request, client_address) -> None:
        # A client hanging up mid-exchange is routine under load; keep it off
        # stderr (the default implementation prints a full traceback).
        logger.debug("connection error from %s", client_address, exc_info=True)


class BrokerServer:
    """Serve one :class:`SliceBroker` over HTTP/JSON on a local socket.

    Usage::

        broker = SliceBroker(topology=..., solver=..., max_pending=4096)
        with BrokerServer(broker, port=0) as server:   # port 0: ephemeral
            client = BrokerClient(server.host, server.port)
            ...

    ``start``/``stop`` (or the context manager) control the acceptor thread;
    handler threads are daemonic and die with the process.
    """

    def __init__(
        self,
        broker: SliceBroker,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        event_retention: int = DEFAULT_EVENT_RETENTION,
    ):
        if max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        self.broker = broker
        self.max_batch = max_batch
        #: Cursor-paged event feed backing ``GET /v1/events`` (ring-bounded).
        self.event_log = EventLog(broker, retention=event_retention)
        self._http = _BrokerHTTPServer((host, port), _BrokerRequestHandler)
        self._http.api = self
        self._thread: threading.Thread | None = None
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "BrokerServer":
        if self._thread is not None:
            # Double-start is an operation illegal in the server's current
            # state; keep it inside the structured taxonomy (RA02) rather
            # than leaking a bare RuntimeError through the api package.
            raise LifecycleError(
                "BrokerServer is already running", details={"url": self.url}
            )
        if self._stopped:
            # stop() closes the listening socket, which was bound (possibly
            # to an ephemeral port) in __init__ -- a restarted thread would
            # serve_forever on a dead fd and every request would fail.  Fail
            # the start loudly instead of pretending to listen.
            raise LifecycleError(
                "BrokerServer has been stopped and cannot be restarted; "
                "construct a new server instead"
            )
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name=f"broker-server-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._http.shutdown()
        self._thread.join()
        self._http.server_close()
        self._thread = None
        self._stopped = True

    def __enter__(self) -> "BrokerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _handle(
        self,
        request: _BrokerRequestHandler,
        method: str,
        path: str,
        query: dict[str, list[str]],
    ) -> None:
        if method == "GET":
            if path == f"{API_PREFIX}/health":
                return request._respond_json(self._health_payload())
            if path == f"{API_PREFIX}/slices":
                return request._respond_json(self._slices_payload(query))
            if path == f"{API_PREFIX}/events":
                return request._respond_json(self._events_payload(query))
            name, verb = self._slice_segment(path)
            if name is not None and verb is None:
                return request._respond_json(self.broker.status(name).to_dict())
        elif method == "POST":
            if path == f"{API_PREFIX}/slices":
                body = decode_json(request._read_body())
                token = request.headers.get(IDEMPOTENCY_HEADER)
                ticket = self.broker.submit(self._payload_mapping(body), client_token=token)
                return request._respond_json(ticket.to_dict(), status=201)
            if path == f"{API_PREFIX}/slices:batch":
                return self._handle_batch(request)
            if path == f"{API_PREFIX}/quotes":
                body = decode_json(request._read_body())
                quote = self.broker.quote(self._payload_mapping(body))
                return request._respond_json(quote.to_dict())
            if path == f"{API_PREFIX}/epochs":
                body = decode_json(request._read_body())
                epoch = self._epoch_field(body)
                report = self.broker.advance_epoch(epoch)
                return request._respond_json(report.to_dict())
            name, verb = self._slice_segment(path)
            if name is not None and verb == "release":
                body = decode_json(request._read_body())
                epoch = self._epoch_field(body)
                status = self.broker.release(name, epoch=epoch)
                return request._respond_json(status.to_dict())
        raise NotFoundError(
            f"no route {method} {path}",
            details={"method": method, "path": path},
        )

    def _handle_batch(self, request: _BrokerRequestHandler) -> None:
        body = decode_json(request._read_body())
        payload = self._payload_mapping(body, what="batch body")
        requests = payload.get("requests")
        if not isinstance(requests, list):
            raise ValidationError(
                "batch body must carry a 'requests' list of SliceRequestV1 payloads"
            )
        if len(requests) > self.max_batch:
            raise ValidationError(
                f"batch of {len(requests)} requests exceeds the per-call bound "
                f"of {self.max_batch}",
                details={"requests": len(requests), "max_batch": self.max_batch},
            )
        tokens = batch_tokens_from_header(
            request.headers.get(IDEMPOTENCY_BATCH_HEADER), len(requests)
        )
        tickets = self.broker.submit_batch(
            [self._payload_mapping(entry, what="batch entry") for entry in requests],
            client_tokens=tokens,
        )
        request._respond_json(
            {"tickets": [ticket.to_dict() for ticket in tickets]}, status=201
        )

    # ------------------------------------------------------------------ #
    # Payload helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _payload_mapping(body: Any, *, what: str = "request body") -> dict[str, Any]:
        if not isinstance(body, dict):
            raise ValidationError(
                f"{what} must be a JSON object, got {type(body).__name__}"
            )
        return body

    @staticmethod
    def _epoch_field(body: Any) -> int:
        payload = BrokerServer._payload_mapping(body)
        epoch = payload.get("epoch")
        if isinstance(epoch, bool) or not isinstance(epoch, int):
            raise ValidationError(
                f"body field 'epoch' must be an integer, got {epoch!r}"
            )
        return epoch

    @staticmethod
    def _slice_segment(path: str) -> tuple[str | None, str | None]:
        prefix = f"{API_PREFIX}/slices/"
        if not path.startswith(prefix):
            return None, None
        segment = path[len(prefix):]
        if not segment or "/" in segment:
            return None, None
        name, verb = parse_slice_path(segment)
        return name, verb

    @staticmethod
    def _int_param(query: dict[str, list[str]], name: str, default: int | None) -> int | None:
        raw = query.get(name, [default])[-1]
        try:
            return raw if raw is None else int(raw)
        except (TypeError, ValueError):
            raise ValidationError(
                f"query parameter {name!r} must be an integer, got {raw!r}"
            ) from None

    def _events_payload(self, query: dict[str, list[str]]) -> dict[str, Any]:
        since = self._int_param(query, "since", 0)
        limit = self._int_param(query, "limit", None)
        if limit is not None and limit < 0:
            raise ValidationError(f"query parameter 'limit' must be >= 0, got {limit}")
        events, next_seq = self.event_log.page(since, limit)
        return {"events": events, "next": next_seq}

    def _slices_payload(self, query: dict[str, list[str]]) -> dict[str, Any]:
        offset = self._int_param(query, "offset", 0)
        limit = self._int_param(query, "limit", None)
        page = self.broker.list_slices(offset=offset, limit=limit)
        return {
            "slices": [status.to_dict() for status in page],
            "total": page.total,
            "offset": page.offset,
        }

    def _health_payload(self) -> dict[str, Any]:
        return {
            "health": self.broker.health.state.value,
            "pending_requests": self.broker.pending_count,
            "events_published": len(self.event_log),
            "epoch_in_flight": self.broker.epoch_in_flight,
        }
