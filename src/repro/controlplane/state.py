"""Slice lifecycle state, kept by the E2E orchestrator.

The orchestrator is the only stateful control-plane entity (Section 2.2.2):
it remembers which slices were admitted, where they were anchored, and when
they expire, so that constraint (13) -- once admitted, a slice stays admitted
until it expires -- can be enforced in later epochs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.core.slices import SliceRequest


class SliceState(str, enum.Enum):
    """Lifecycle of a slice request."""

    REQUESTED = "requested"
    ADMITTED = "admitted"
    REJECTED = "rejected"
    EXPIRED = "expired"


class SliceStateError(RuntimeError):
    """Raised on an invalid lifecycle transition."""


@dataclass
class SliceRecord:
    """Orchestrator-side record of one slice request."""

    request: SliceRequest
    state: SliceState = SliceState.REQUESTED
    admitted_epoch: int | None = None
    compute_unit: str | None = None
    last_reservations_mbps: dict[str, float] = field(default_factory=dict)
    #: True once the tenant ended this life early (:meth:`SliceRegistry.release`);
    #: the state is then EXPIRED, and the broker reports it as "released".
    released: bool = False

    @property
    def name(self) -> str:
        return self.request.name

    def copy(self) -> "SliceRecord":
        """Independent copy (records are mutated in place by transitions)."""
        return replace(
            self, last_reservations_mbps=dict(self.last_reservations_mbps)
        )

    def expires_at(self) -> int:
        """First epoch at which an admitted slice stops being provisioned."""
        start = self.admitted_epoch if self.admitted_epoch is not None else self.request.arrival_epoch
        return start + self.request.duration_epochs

    def is_active(self, epoch: int) -> bool:
        return self.state is SliceState.ADMITTED and epoch < self.expires_at()


#: States from which a slice name may be re-submitted as a fresh request.
TERMINAL_STATES = (SliceState.EXPIRED, SliceState.REJECTED)


class SliceRegistry:
    """All slice records known to the orchestrator."""

    def __init__(self) -> None:
        self._records: dict[str, SliceRecord] = {}
        #: Superseded records of renewed slices, oldest first (per name).
        self._archive: dict[str, list[SliceRecord]] = {}

    # ------------------------------------------------------------------ #
    def register(self, request: SliceRequest) -> SliceRecord:
        """Register a freshly received request (state: REQUESTED)."""
        if request.name in self._records:
            raise SliceStateError(f"slice {request.name!r} is already registered")
        record = SliceRecord(request=request)
        self._records[request.name] = record
        return record

    def renew(self, request: SliceRequest) -> SliceRecord:
        """Re-register a request under the name of a terminated slice.

        Renewal semantics: once a slice has reached a terminal state
        (EXPIRED or REJECTED), its tenant may submit a new request under the
        same name; the old record is archived and a fresh REQUESTED record
        takes its place, so the renewal goes through admission control like
        any new arrival.  Renewing a name that is still REQUESTED or ADMITTED
        is a lifecycle error -- the live slice owns the name.
        """
        record = self._records.get(request.name)
        if record is None:
            return self.register(request)
        if record.state not in TERMINAL_STATES:
            raise SliceStateError(
                f"cannot renew slice {request.name!r} from state "
                f"{record.state.value}: only expired or rejected slices "
                "can be re-submitted"
            )
        self._archive.setdefault(request.name, []).append(record)
        fresh = SliceRecord(request=request)
        self._records[request.name] = fresh
        return fresh

    def renewal_count(self, name: str) -> int:
        """How many archived (superseded) records a slice name has."""
        return len(self._archive.get(name, []))

    def archived_records(self, name: str) -> list[SliceRecord]:
        """Superseded records of one slice name, oldest first."""
        return list(self._archive.get(name, []))

    def record(self, name: str) -> SliceRecord:
        return self._records[name]

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def all_records(self) -> list[SliceRecord]:
        return list(self._records.values())

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #
    def mark_admitted(
        self,
        name: str,
        epoch: int,
        compute_unit: str | None,
        reservations_mbps: dict[str, float],
    ) -> SliceRecord:
        record = self._records[name]
        if record.state not in (SliceState.REQUESTED, SliceState.ADMITTED):
            raise SliceStateError(
                f"cannot admit slice {name!r} from state {record.state.value}"
            )
        if record.state is SliceState.REQUESTED:
            record.admitted_epoch = epoch
        record.state = SliceState.ADMITTED
        record.compute_unit = compute_unit
        record.last_reservations_mbps = dict(reservations_mbps)
        return record

    def mark_rejected(self, name: str) -> SliceRecord:
        record = self._records[name]
        if record.state is SliceState.ADMITTED:
            raise SliceStateError(
                f"cannot reject slice {name!r}: it was already admitted "
                "(admitted slices can only expire)"
            )
        record.state = SliceState.REJECTED
        return record

    def release(self, name: str) -> SliceRecord:
        """Tenant-initiated early termination of an admitted slice.

        The record moves straight to EXPIRED (the same terminal state a
        natural expiry reaches, so renewals and re-submissions behave
        identically afterwards) and is flagged ``released``; the reservations
        the controllers still hold are reclaimed at the start of the next
        decision epoch, exactly as for a natural expiry.  Releasing a slice
        that is not currently admitted is a lifecycle error.
        """
        record = self._records[name]
        if record.state is not SliceState.ADMITTED:
            raise SliceStateError(
                f"cannot release slice {name!r} from state {record.state.value}: "
                "only admitted slices can be released"
            )
        record.state = SliceState.EXPIRED
        record.released = True
        return record

    def expire_due(self, epoch: int) -> list[SliceRecord]:
        """Expire every admitted slice whose lifetime ended before ``epoch``."""
        expired = []
        for record in self._records.values():
            if record.state is SliceState.ADMITTED and epoch >= record.expires_at():
                record.state = SliceState.EXPIRED
                expired.append(record)
        return expired

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def active_slices(self, epoch: int) -> list[SliceRecord]:
        """Admitted slices that must remain provisioned during ``epoch``."""
        return [record for record in self._records.values() if record.is_active(epoch)]

    def admitted_names(self) -> list[str]:
        return [
            record.name
            for record in self._records.values()
            if record.state is SliceState.ADMITTED
        ]

    def rejected_names(self) -> list[str]:
        return [
            record.name
            for record in self._records.values()
            if record.state is SliceState.REJECTED
        ]

    # ------------------------------------------------------------------ #
    # Crash-consistent epochs (snapshot / restore)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> "SliceRegistry":
        """Capture the registry state for epoch-level rollback.

        The checkpoint is itself a :class:`SliceRegistry`, so everything
        that can query the live registry can query the checkpoint (the
        broker serves status reads from it while the epoch runs).  Live
        records are mutated in place by the lifecycle transitions, so each
        one is copied; archived records are immutable once archived, so
        only the per-name lists are copied.  The snapshot is independent of
        any later mutation and is never mutated itself -- :meth:`restore`
        brings the registry back to a byte-identical pre-epoch state.
        """
        frozen = SliceRegistry()
        frozen._records = {name: record.copy() for name, record in self._records.items()}
        frozen._archive = {name: list(records) for name, records in self._archive.items()}
        return frozen

    def restore(self, snapshot: "SliceRegistry") -> None:
        """Reset the registry to a :meth:`snapshot` taken earlier.

        The registry object itself is preserved (callers hold references to
        it); only its internal tables are swapped.  Records are re-copied so
        the same snapshot can be restored more than once (and stays a valid
        read view while the restored registry moves on).
        """
        self._records = {
            name: record.copy() for name, record in snapshot._records.items()
        }
        self._archive = {
            name: list(records) for name, records in snapshot._archive.items()
        }

    def counts_by_state(self) -> dict[SliceState, int]:
        counts = {state: 0 for state in SliceState}
        for record in self._records.values():
            counts[record.state] += 1
        return counts
