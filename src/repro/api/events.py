"""Slice lifecycle events and the broker's subscription bus.

Monitoring, experiment harnesses and external clients subscribe to lifecycle
transitions instead of polling the registry.  Events are *facts about
completed transitions*: the broker publishes them only after the registry and
the domain controllers are consistent for the epoch, so a subscriber that
reads broker state from inside its callback sees the post-transition world.

Delivery is deterministic:

* within one epoch, events are ordered ``EXPIRED -> RENEWED -> ADMITTED ->
  REJECTED`` (the order the transitions happen inside the epoch: expiries are
  processed at epoch start, renewals re-register the name, then the admission
  decision lands), with slice names sorted alphabetically inside each kind;
* subscribers are invoked in subscription order, each receiving the events
  one at a time in the order above.

A renewal (PR 4 semantics: terminal record archived, fresh request competes
like a new arrival) of an admitted slice that expires and is re-admitted in
the same epoch therefore yields ``EXPIRED(name), RENEWED(name),
ADMITTED(name)`` -- in that order, always.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.api.wire import WireType
from repro.utils.validation import ensure_non_negative_int, ensure_scalar, ensure_text, ruled


class LifecycleEventKind(str, enum.Enum):
    """The lifecycle transitions the broker publishes."""

    ADMITTED = "admitted"
    REJECTED = "rejected"
    EXPIRED = "expired"
    RENEWED = "renewed"
    RELEASED = "released"


#: Delivery order of event kinds within one epoch report.
EPOCH_EVENT_ORDER = (
    LifecycleEventKind.EXPIRED,
    LifecycleEventKind.RENEWED,
    LifecycleEventKind.ADMITTED,
    LifecycleEventKind.REJECTED,
)


@dataclass(frozen=True, eq=True)
class LifecycleEvent(WireType):
    """One completed lifecycle transition of one slice."""

    kind: LifecycleEventKind = ruled(LifecycleEventKind)
    slice_name: str = ruled(ensure_text)
    epoch: int = ruled(ensure_non_negative_int)
    #: JSON-scalar decision metadata (compute unit, reserved bitrate, ...).
    #: Excluded from __hash__ (dicts are unhashable) so events can live in
    #: sets/dict keys -- e.g. a subscriber deduplicating its stream; equality
    #: still compares it.
    metadata: dict[str, Any] = ruled({str: ensure_scalar}, default_factory=dict, hash=False)


#: Subscriber signature: called once per event, in deterministic order.
EventCallback = Callable[[LifecycleEvent], None]


class EventBus:
    """Deterministic, synchronous fan-out of lifecycle events.

    Subscribers are invoked in subscription order; an optional kind filter
    restricts which events a subscriber sees.  Callbacks run synchronously on
    the publisher's thread -- an exception from a callback propagates to the
    publisher (the broker), which keeps failures loud and ordering trivially
    deterministic.
    """

    def __init__(self) -> None:
        self._subscribers: dict[int, tuple[EventCallback, frozenset[LifecycleEventKind] | None]] = {}
        self._next_token = 0

    def subscribe(
        self,
        callback: EventCallback,
        kinds: Iterable[LifecycleEventKind] | None = None,
    ) -> int:
        """Register ``callback``; returns a token for :meth:`unsubscribe`."""
        kind_filter = None if kinds is None else frozenset(kinds)
        token = self._next_token
        self._next_token += 1
        self._subscribers[token] = (callback, kind_filter)
        return token

    def unsubscribe(self, token: int) -> None:
        self._subscribers.pop(token, None)

    def __len__(self) -> int:
        return len(self._subscribers)

    def publish(self, events: Iterable[LifecycleEvent]) -> None:
        """Deliver ``events`` (in order) to every subscriber (in order)."""
        for event in events:
            for callback, kind_filter in list(self._subscribers.values()):
                if kind_filter is None or event.kind in kind_filter:
                    callback(event)
