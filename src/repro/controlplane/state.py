"""Slice lifecycle state, kept by the E2E orchestrator.

The orchestrator is the only stateful control-plane entity (Section 2.2.2):
it remembers which slices were admitted, where they were anchored, and when
they expire, so that constraint (13) -- once admitted, a slice stays admitted
until it expires -- can be enforced in later epochs.

Records are immutable: a lifecycle transition replaces a slice's record, and
only :class:`SliceRegistry`'s writers do so, through the epoch journal
(:mod:`repro.utils.journal`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.core.slices import SliceRequest
from repro.utils.journal import ABSENT, Journal, drop, put


class SliceState(str, enum.Enum):
    """Lifecycle of a slice request."""

    REQUESTED = "requested"
    ADMITTED = "admitted"
    REJECTED = "rejected"
    EXPIRED = "expired"


class SliceStateError(RuntimeError):
    """Raised on an invalid lifecycle transition."""


@dataclass(frozen=True)
class SliceRecord:
    """Orchestrator-side record of one life of a slice request."""

    request: SliceRequest
    state: SliceState = SliceState.REQUESTED
    admitted_epoch: int | None = None
    compute_unit: str | None = None
    #: Never edited: a transition that changes it builds a new dict.
    last_reservations_mbps: dict[str, float] = field(default_factory=dict)
    #: True once the tenant ended this life early (:meth:`SliceRegistry.release`);
    #: the state is then EXPIRED, and the broker reports it as "released".
    released: bool = False

    @property
    def name(self) -> str:
        return self.request.name

    def expires_at(self) -> int:
        """First epoch at which an admitted slice stops being provisioned."""
        start = self.admitted_epoch if self.admitted_epoch is not None else self.request.arrival_epoch
        return start + self.request.duration_epochs

    def is_active(self, epoch: int) -> bool:
        return self.state is SliceState.ADMITTED and epoch < self.expires_at()


#: States from which a slice name may be re-submitted as a fresh request.
TERMINAL_STATES = (SliceState.EXPIRED, SliceState.REJECTED)


class SliceRegistry:
    """All slice records known to the orchestrator.

    Records never leave ``_records`` (a name's current life) or ``_archive``
    (its superseded lives), so the registry grows with every name the
    orchestrator has seen.  What an epoch reads and writes is the *live*
    set instead -- REQUESTED and ADMITTED names, ``_live`` -- walked in
    registry order: every name keeps the slot of its first registration
    (``_slots``), renewals included, and that order is the order of the
    AC-RR problem's tenants.
    """

    JOURNALED = ("_records", "_archive", "_slots", "_live")

    def __init__(self) -> None:
        self._records: dict[str, SliceRecord] = {}
        #: Superseded records of renewed slices, oldest first (per name).
        self._archive: dict[str, tuple[SliceRecord, ...]] = {}
        #: Name -> position of its first registration.
        self._slots: dict[str, int] = {}
        #: REQUESTED or ADMITTED name -> its slot.
        self._live: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def register(self, request: SliceRequest) -> SliceRecord:
        """Register a freshly received request (state: REQUESTED)."""
        if request.name in self._records:
            raise SliceStateError(f"slice {request.name!r} is already registered")
        slot = len(self._slots)
        put(self._slots, request.name, slot)
        put(self._live, request.name, slot)
        return self._write(SliceRecord(request=request))

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
        put(self._archive, request.name, (*self._archive.get(request.name, ()), record))
        put(self._live, request.name, self._slots[request.name])
        return self._write(SliceRecord(request=request))

    def renewal_count(self, name: str) -> int:
        """How many archived (superseded) records a slice name has."""
        return len(self._archive.get(name, ()))

    def archived_records(self, name: str) -> list[SliceRecord]:
        """Superseded records of one slice name, oldest first."""
        return list(self._archive.get(name, ()))

    def record(self, name: str) -> SliceRecord:
        return self._records[name]

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def all_records(self) -> list[SliceRecord]:
        return list(self._records.values())

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #
    def _write(self, record: SliceRecord) -> SliceRecord:
        """Make ``record`` its name's current life; a terminal one leaves
        the live set."""
        put(self._records, record.name, record)
        if record.state in TERMINAL_STATES and record.name in self._live:
            drop(self._live, record.name)
        return record

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
        reservations = dict(reservations_mbps)
        if (
            record.state is SliceState.ADMITTED
            and record.compute_unit == compute_unit
            and record.last_reservations_mbps == reservations
        ):
            return record  # re-admitted unchanged: nothing to write
        admitted_epoch = epoch if record.state is SliceState.REQUESTED else record.admitted_epoch
        return self._write(
            replace(
                record,
                state=SliceState.ADMITTED,
                admitted_epoch=admitted_epoch,
                compute_unit=compute_unit,
                last_reservations_mbps=reservations,
            )
        )

    def mark_rejected(self, name: str) -> SliceRecord:
        record = self._records[name]
        if record.state is SliceState.ADMITTED:
            raise SliceStateError(
                f"cannot reject slice {name!r}: it was already admitted "
                "(admitted slices can only expire)"
            )
        return self._write(replace(record, state=SliceState.REJECTED))

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
        return self._write(replace(record, state=SliceState.EXPIRED, released=True))

    def expire(self, name: str) -> SliceRecord:
        """End an admitted slice's life now (ADMITTED -> EXPIRED), as a
        natural expiry would: the re-homing of a displaced slice."""
        record = self._records[name]
        if record.state is not SliceState.ADMITTED:
            raise SliceStateError(
                f"cannot expire slice {name!r} from state {record.state.value}"
            )
        return self._write(replace(record, state=SliceState.EXPIRED))

    def expire_due(self, epoch: int) -> list[SliceRecord]:
        """Expire every admitted slice whose lifetime ended before ``epoch``."""
        return [
            self._write(replace(record, state=SliceState.EXPIRED))
            for record in self._live_records()
            if record.state is SliceState.ADMITTED and epoch >= record.expires_at()
        ]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _live_records(self) -> list[SliceRecord]:
        """REQUESTED and ADMITTED records, in registry order."""
        live = self._live
        return [self._records[name] for name in sorted(live, key=live.__getitem__)]

    def active_slices(self, epoch: int) -> list[SliceRecord]:
        """Admitted slices that must remain provisioned during ``epoch``."""
        return [record for record in self._live_records() if record.is_active(epoch)]

    def requested_records(self) -> list[SliceRecord]:
        """Registered slices still awaiting their admission decision."""
        return [
            record for record in self._live_records() if record.state is SliceState.REQUESTED
        ]

    def admitted_names(self) -> list[str]:
        return [
            record.name
            for record in self._live_records()
            if record.state is SliceState.ADMITTED
        ]

    def rejected_names(self) -> list[str]:
        return [
            record.name
            for record in self._records.values()
            if record.state is SliceState.REJECTED
        ]

    def counts_by_state(self) -> dict[SliceState, int]:
        counts = {state: 0 for state in SliceState}
        for record in self._records.values():
            counts[record.state] += 1
        return counts

    def before(self, journal: Journal) -> "RegistryView":
        """The registry as it was before ``journal``'s epoch wrote to it."""
        return RegistryView(self, journal)


class RegistryView:
    """A :class:`SliceRegistry` as it was before an epoch, read through the
    epoch's journal: the live records overlaid with the ones the epoch
    replaced.  Answers the status queries of the live registry, without a
    lock against the epoch's writers; valid until the registry is next
    written outside that journal (the next release or epoch).
    """

    def __init__(self, registry: SliceRegistry, journal: Journal) -> None:
        self._records = registry._records
        self._archive = registry._archive
        self._journal = journal

    def record(self, name: str) -> SliceRecord:
        record = self._journal.before(self._records, name)
        if record is ABSENT:
            raise KeyError(name)
        return record

    def __contains__(self, name: str) -> bool:
        return self._journal.before(self._records, name) is not ABSENT

    def renewal_count(self, name: str) -> int:
        return len(self._journal.before(self._archive, name, ()))

    def touched(self) -> tuple[str, ...]:
        """Names whose current life the epoch replaced: the only names an
        epoch can have moved through a lifecycle transition."""
        return self._journal.touched(self._records)
