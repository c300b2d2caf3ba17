"""Shared wire contract of the HTTP/JSON broker transport.

The server (:mod:`repro.api.server`) and the client
(:mod:`repro.api.client`) agree on exactly four things, all defined here so
neither can drift from the other:

* the **route table** (:data:`ROUTES`): method + path template per broker
  operation, the PR 5 DTO ``to_dict``/``from_dict`` payloads verbatim as the
  body schema (the transport adds nothing to the wire format -- a request
  body *is* ``SliceRequestV1.to_dict()``, a response body *is*
  ``AdmissionTicket.to_dict()`` and so on);
* the **error mapping** (:data:`STATUS_BY_CODE`): every structured
  :class:`~repro.api.errors.BrokerError` crosses the wire as its
  ``to_dict()`` JSON body under exactly one HTTP status code, and the client
  rebuilds the typed exception with
  :func:`~repro.api.errors.error_from_dict` -- a transport round trip
  preserves the taxonomy;
* the **idempotency-header contract**: a single submit carries its
  per-tenant token in :data:`IDEMPOTENCY_HEADER`; a batch submit carries a
  JSON array (one entry per request, ``null`` for tokenless) in
  :data:`IDEMPOTENCY_BATCH_HEADER`;
* the **framing**: one minimal HTTP/1.1 codec (:func:`read_head`,
  :func:`content_length` / :func:`read_body`, :func:`write_head` /
  :func:`send`) is the only code of either end that touches the socket --
  Content-Length bodies only, bounded lines and header counts, every message
  one write (DESIGN.md, "Framing").

Endpoint table (see DESIGN.md, "Service transport"):

======  ================================  =====================================
Method  Path                              Operation (body -> response)
======  ================================  =====================================
POST    ``/v1/slices``                    submit (SliceRequestV1 -> AdmissionTicket, 201)
POST    ``/v1/slices:batch``              submit_batch ({"requests": [...]} -> {"tickets": [...]}, 201)
POST    ``/v1/quotes``                    quote (SliceRequestV1 -> QuoteResponse)
GET     ``/v1/slices?offset=&limit=``     list_slices page (-> {"slices": [SliceStatus...], "total": n, "offset": n})
GET     ``/v1/slices/{name}``             status (-> SliceStatus)
POST    ``/v1/slices/{name}:release``     release ({"epoch": n} -> SliceStatus)
POST    ``/v1/epochs``                    advance_epoch ({"epoch": n} -> EpochReport)
GET     ``/v1/events?since={seq}``        event stream page (-> {"events": [...], "next": seq})
GET     ``/v1/health``                    liveness/health snapshot
======  ================================  =====================================

The ``:batch`` / ``:release`` suffixes are custom-verb path segments (the
ONAP/Google AIP style the exemplar ``instantiate_slice`` POST follows); they
can never collide with a slice name because names are URL-quoted into the
path, which escapes ``:``-bearing segments distinctly.
"""

from __future__ import annotations

import json
import math
import time
from email.utils import formatdate
from typing import Any, BinaryIO, Mapping
from urllib.parse import quote, unquote

from repro.api.errors import BrokerError, ValidationError
from repro.api.wire import checked
from repro.utils.validation import ensure_text

__all__ = [
    "API_PREFIX",
    "IDEMPOTENCY_HEADER",
    "IDEMPOTENCY_BATCH_HEADER",
    "JSON_CONTENT_TYPE",
    "MAX_BODY_BYTES",
    "DEFAULT_MAX_BATCH",
    "ROUTES",
    "STATUS_BY_CODE",
    "status_for",
    "error_body",
    "encode_json",
    "decode_json",
    "json_text",
    "encode_query_value",
    "decode_query_value",
    "slice_path",
    "parse_slice_path",
    "batch_tokens_from_header",
    "MAX_LINE_BYTES",
    "MAX_HEADERS",
    "Headers",
    "read_head",
    "write_head",
    "content_length",
    "read_body",
    "send",
    "http_date",
]

#: Version prefix of every route; bumping the wire format (WIRE_VERSION=2)
#: would mount ``/v2/`` next to it rather than mutating these paths.
API_PREFIX = "/v1"

#: Header carrying the per-tenant idempotency token of a single submit.
IDEMPOTENCY_HEADER = "Idempotency-Key"

#: Header carrying the JSON array of per-request tokens of a batch submit
#: (``null`` entries mean "no token for this request").
IDEMPOTENCY_BATCH_HEADER = "Idempotency-Keys"

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Requests larger than this are rejected with a ``validation`` error before
#: parsing (a transport-level guard against memory exhaustion, not a schema
#: rule).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Default bound on ``len(requests)`` per batch submit; oversized batches map
#: to the ``validation`` error code (the payload violates a documented
#: domain, it is not a transient capacity condition).
DEFAULT_MAX_BATCH = 256

#: (method, path template) per operation -- documentation and the basis of
#: the server's dispatch; ``{name}`` marks the URL-quoted slice-name segment.
ROUTES: dict[str, tuple[str, str]] = {
    "submit": ("POST", f"{API_PREFIX}/slices"),
    "submit_batch": ("POST", f"{API_PREFIX}/slices:batch"),
    "quote": ("POST", f"{API_PREFIX}/quotes"),
    "list_slices": ("GET", f"{API_PREFIX}/slices"),
    "status": ("GET", f"{API_PREFIX}/slices/{{name}}"),
    "release": ("POST", f"{API_PREFIX}/slices/{{name}}:release"),
    "advance_epoch": ("POST", f"{API_PREFIX}/epochs"),
    "events": ("GET", f"{API_PREFIX}/events"),
    "health": ("GET", f"{API_PREFIX}/health"),
}

#: ``BrokerError.code`` -> HTTP status.  One status per code: clients may
#: switch on either interchangeably.
STATUS_BY_CODE: dict[str, int] = {
    "validation": 400,
    "not_found": 404,
    "duplicate": 409,
    "lifecycle": 409,
    "capacity": 429,
    "solver": 500,
    "broker_error": 500,
}


def status_for(error: BrokerError) -> int:
    """HTTP status of a structured broker error (500 for unknown codes)."""
    return STATUS_BY_CODE.get(error.code, 500)


def error_body(error: BrokerError) -> bytes:
    """The JSON wire body of a structured broker error.  JSON has no NaN or
    infinity, so a non-finite number its ``details`` echo goes as text."""
    payload = error.to_dict()
    payload["details"] = {
        key: str(value) if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in payload["details"].items()
    }
    return encode_json(payload)


def _scalar(value: Any) -> Any:
    """A numpy scalar encodes as the Python number it holds."""
    if getattr(value, "shape", None) == () and hasattr(value, "item"):
        return value.item()
    raise ValidationError(f"a {type(value).__name__} is not a JSON value")


#: Built once (``json.dumps`` / ``loads`` with an option build one per call).
_ENCODER = json.JSONEncoder(sort_keys=True, default=_scalar)
_DECODER = json.JSONDecoder()


def encode_json(payload: Mapping[str, Any]) -> bytes:
    """Canonical JSON encoding of a response/request body."""
    return _ENCODER.encode(payload).encode("utf-8")


def decode_json(body: bytes, *, what: str = "request body") -> Any:
    """Parse a JSON body, mapping malformed input to the ``validation`` code.
    ``NaN`` / ``Infinity`` decode to floats (as ``1e999`` does), for the
    rule of the field they fill to refuse by name, as it does in process."""
    if not body:
        raise ValidationError(f"{what} must be a JSON document, got an empty body")
    try:
        return _DECODER.decode(body.decode("utf-8"))
    except ValueError as error:  # undecodable bytes, bad JSON, a 5000-digit int
        raise ValidationError(f"malformed JSON {what}: {error}") from error


def json_text(value: Any) -> str:
    """The JSON text of one value (a header's, a query value's)."""
    return _ENCODER.encode(value)


def encode_query_value(value: Any) -> str:
    """A query value: ``value``'s JSON text, URL-quoted, decoded back whole."""
    return quote(json_text(value), safe="")


def decode_query_value(raw: str, name: str) -> Any:
    """Inverse of :func:`encode_query_value` on unquoted text; text that is
    not JSON (``x``, ``+1``, ``1_0``) is refused naming ``name``."""
    try:
        return _DECODER.decode(raw)
    except ValueError:
        raise ValidationError(
            f"query parameter {name!r} must be a JSON value, got {raw!r}",
            details={name: raw},
        ) from None


def slice_path(name: str, *, verb: str | None = None) -> str:
    """Path of one slice's resource, with the name URL-quoted (a name that
    is not text has no path: the ``slice_name`` rule refuses it).

    ``quote(..., safe="")`` escapes ``/`` and ``:`` inside names, so a slice
    named ``a:release`` yields ``/v1/slices/a%3Arelease`` -- distinct from
    the custom-verb route ``/v1/slices/a:release``.
    """
    path = f"{API_PREFIX}/slices/{quote(checked(ensure_text, name, 'slice_name'), safe='')}"
    return f"{path}:{verb}" if verb else path


def parse_slice_path(segment: str) -> tuple[str, str | None]:
    """Split one ``/v1/slices/<segment>`` path segment into (name, verb).

    The verb is the suffix after the last *unquoted* ``:`` (quoted colons
    inside the name arrive as ``%3A`` and survive the split).
    """
    if ":" in segment:
        raw_name, verb = segment.rsplit(":", 1)
        return unquote(raw_name), verb
    return unquote(segment), None


def batch_tokens_from_header(value: str | None, count: int) -> list[str | None] | None:
    """Decode the :data:`IDEMPOTENCY_BATCH_HEADER` value (JSON array).

    Returns ``None`` when the header is absent; validates shape and length
    against the number of requests in the batch body.
    """
    if value is None:
        return None
    try:
        tokens = json.loads(value)
    except json.JSONDecodeError as error:
        raise ValidationError(
            f"malformed {IDEMPOTENCY_BATCH_HEADER} header (must be a JSON "
            f"array of tokens/nulls): {error}"
        ) from error
    if not isinstance(tokens, list):
        # Each entry meets the broker's ``client_tokens`` rule.
        raise ValidationError(
            f"{IDEMPOTENCY_BATCH_HEADER} header must be a JSON array of "
            "strings or nulls"
        )
    if len(tokens) != count:
        raise ValidationError(
            f"{IDEMPOTENCY_BATCH_HEADER} header lists {len(tokens)} tokens "
            f"for {count} requests",
            details={"requests": count, "tokens": len(tokens)},
        )
    return tokens


# --------------------------------------------------------------------- #
# HTTP/1.1 framing: the one codec the server and the client both speak
# --------------------------------------------------------------------- #
#: Longest start / header line, and most header lines, one message head may
#: carry (the bounds ``http.server`` applied, kept).
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100


class Headers(dict):
    """Header map keyed by lower-cased field name; ``get`` ignores case."""

    def get(self, name: str, default: str | None = None) -> str | None:
        return dict.get(self, name.lower(), default)


def _read_line(rfile: BinaryIO) -> str:
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise ValidationError(
            f"start or header line exceeds the {MAX_LINE_BYTES}-byte bound",
            details={"max_line_bytes": MAX_LINE_BYTES},
        )
    if not line.endswith(b"\n"):
        raise ConnectionError("peer closed the connection")
    return line.decode("latin-1").rstrip("\r\n")


def read_head(rfile: BinaryIO) -> tuple[str, Headers]:
    """Read one message head: the start line and the header map.

    Raises :class:`ValidationError` on a bound or syntax violation -- the
    stream cannot be resynchronised after one -- and ``ConnectionError`` when
    the peer closed before a complete head arrived.
    """
    start = _read_line(rfile)
    headers = Headers()
    while line := _read_line(rfile):
        name, colon, value = line.partition(":")
        if not colon:
            raise ValidationError(f"malformed header line {line[:80]!r}")
        if len(headers) >= MAX_HEADERS:
            raise ValidationError(
                f"message head exceeds the {MAX_HEADERS}-header bound",
                details={"max_headers": MAX_HEADERS},
            )
        name, value = name.strip().lower(), value.strip()
        # A repeated field is its values as one list (RFC 9110, 5.3) -- which
        # also makes two Content-Lengths malformed instead of a coin toss.
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    return start, headers


def write_head(start: str, headers: Mapping[str, str]) -> bytes:
    """Encode one message head; the inverse of :func:`read_head`."""
    lines = [start, *(f"{name}: {value}" for name, value in headers.items())]
    if any("\r" in line or "\n" in line for line in lines):
        raise ValidationError("a start line or header may not contain CR or LF")
    try:
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    except UnicodeEncodeError as error:
        raise ValidationError(f"header text is not latin-1: {error}") from None


def content_length(headers: Headers, limit: int | None = MAX_BODY_BYTES) -> int:
    """The declared body length of a message (0 without a Content-Length)."""
    length_header = headers.get("Content-Length", "0")
    # RFC 9110 8.6: 1*DIGIT -- no sign, no underscore, no other digit set.
    if not (length_header.isascii() and length_header.isdigit()):
        raise ValidationError(f"malformed Content-Length header {length_header!r}")
    length = int(length_header)
    if limit is not None and length > limit:
        raise ValidationError(
            f"request body of {length} bytes exceeds the {limit}-byte bound",
            details={"max_body_bytes": limit},
        )
    return length


def read_body(rfile: BinaryIO, length: int) -> bytes:
    """Read exactly ``length`` body bytes (``ConnectionError`` if cut short)."""
    body = rfile.read(length) if length else b""
    if len(body) != length:
        raise ConnectionError(f"body truncated at {len(body)} of {length} bytes")
    return body


def send(sock, head: bytes, body: bytes = b"") -> None:
    """Emit one message -- head and body -- in a single write."""
    sock.sendall(head + body)


_date: tuple[int, str] = (0, "")


def http_date() -> str:
    """The ``Date`` header value of now, formatted once per second."""
    global _date
    now = int(time.time())
    if now != _date[0]:
        _date = (now, formatdate(now, usegmt=True))
    return _date[1]
