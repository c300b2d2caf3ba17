"""Structured error taxonomy of the northbound SliceBroker API.

Every failure that crosses the broker boundary is a :class:`BrokerError`
subclass carrying a *stable*, machine-readable ``code`` string -- the contract
a REST/gRPC shim maps onto HTTP status codes and that clients may switch on.
Internal layers keep their existing exceptions (``ValueError`` from the
validation helpers, :class:`~repro.controlplane.state.SliceStateError` from
the registry); the broker translates them at the boundary so they never leak
to northbound callers.

============================  =================  ==============================
Class                         ``code``           Raised when
============================  =================  ==============================
:class:`ValidationError`      ``validation``     a payload/DTO is malformed or
                                                 a field violates its domain
:class:`DuplicateSliceError`  ``duplicate``      a submission collides with a
                                                 queued request of the same
                                                 name, or an idempotency token
                                                 is reused with a different
                                                 payload
:class:`LifecycleError`       ``lifecycle``      an operation is illegal in the
                                                 slice's current state (e.g.
                                                 renewing a live slice,
                                                 releasing one never admitted)
:class:`SolverError`          ``solver``         the admission solve itself
                                                 failed or produced an
                                                 inconsistent decision
:class:`CapacityError`        ``capacity``       the broker sheds load: the
                                                 bounded intake queue is full
                                                 (retry after the next epoch)
:class:`NotFoundError`        ``not_found``      a transport route (method +
                                                 path) does not exist
============================  =================  ==============================

The HTTP transport maps each ``code`` onto exactly one status code (see
:data:`repro.api.transport.STATUS_BY_CODE`); the table above is the
transport-agnostic contract.
"""

from __future__ import annotations

from typing import Any, Mapping


class BrokerError(Exception):
    """Base class of every error crossing the northbound API boundary."""

    #: Stable machine-readable error code (overridden per subclass).
    code = "broker_error"

    def __init__(self, message: str, *, details: Mapping[str, Any] | None = None):
        super().__init__(message)
        #: Optional JSON-safe context for clients (offending field, state...).
        self.details: dict[str, Any] = dict(details or {})

    def to_dict(self) -> dict[str, Any]:
        """Wire form of the error (what a transport shim would return)."""
        return {"error": self.code, "message": str(self), "details": dict(self.details)}


class ValidationError(BrokerError):
    """A request payload is malformed or violates a field's domain."""

    code = "validation"


class DuplicateSliceError(BrokerError):
    """A submission collides with an already-queued request of the same name."""

    code = "duplicate"


class LifecycleError(BrokerError):
    """The operation is illegal in the slice's current lifecycle state."""

    code = "lifecycle"


class SolverError(BrokerError):
    """The admission/reservation solve failed or was internally inconsistent."""

    code = "solver"


class CapacityError(BrokerError):
    """The broker is shedding load: the bounded intake queue is full.

    A 429-style, *transient* condition -- the request was well-formed, the
    broker simply refuses to grow its intake queue past the configured bound.
    Clients should retry after the next decision epoch drains the queue (the
    idempotency-token contract makes the retry safe).
    """

    code = "capacity"


class NotFoundError(BrokerError):
    """The transport route (method + path) does not exist."""

    code = "not_found"


#: ``code`` -> class, for decoding wire-form errors back into exceptions.
ERROR_TYPES: dict[str, type[BrokerError]] = {
    cls.code: cls
    for cls in (
        BrokerError,
        ValidationError,
        DuplicateSliceError,
        LifecycleError,
        SolverError,
        CapacityError,
        NotFoundError,
    )
}


def error_from_dict(payload: Mapping[str, Any]) -> BrokerError:
    """Rebuild a :class:`BrokerError` from its :meth:`~BrokerError.to_dict` form."""
    cls = ERROR_TYPES.get(str(payload.get("error")), BrokerError)
    return cls(str(payload.get("message", "")), details=payload.get("details"))
