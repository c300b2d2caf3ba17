"""An epoch costs what it changes, not every slice the broker has seen.
Counts, never timings.

2000 churn epochs through the broker on a stub solver: a few arrivals an
epoch, admitted or rejected by a coin, expiring after a few epochs, tenants
releasing admitted slices and cancelling queued ones, and renewals under
names that terminated long ago -- until the registry holds thousands of
records, almost all of them dormant.  Every epoch:

* the journal holds at most one entry per write the epoch made, and its
  size is bounded by the epoch's own traffic, flat in the registry's size;
* event derivation looks up only the names the journal holds;
* the events equal a brute-force diff of the whole registry against a copy
  taken before the epoch -- the derivation the journal replaced, kept here
  as the reference implementation.
"""

from __future__ import annotations

import numpy as np

from repro.api import SliceBroker, SliceRequestV1
from repro.api.events import LifecycleEvent, LifecycleEventKind
from repro.controlplane.state import SliceRegistry, SliceState
from repro.utils.journal import Journal
from tests.conftest import CoinSolver, build_tiny_topology

EPOCHS = 2000
ARRIVALS = 3
#: Share of arrivals that renew a terminated name instead of a new one.
RENEWAL_SHARE = 0.4
#: Per-epoch bound on journal entries.  An epoch writes a handful of
#: entries per slice it moves (record, live set, slot, archive, queue) plus
#: a fixed few (controllers, structure cache, last decision); with
#: ARRIVALS a batch and lives of at most 6 epochs that stays far below it.
JOURNAL_BOUND = 150


def full_diff(epoch, before, registry: SliceRegistry, decision) -> list[LifecycleEvent]:
    """The epoch's events by diffing every record against ``before`` (name
    -> ``(state, renewal count)`` of every record before the epoch): what
    the broker did before the journal."""
    expired, renewed, admitted, rejected = [], [], [], []
    ADMITTED, REJECTED, EXPIRED = SliceState.ADMITTED, SliceState.REJECTED, SliceState.EXPIRED

    def admission_metadata(name):
        allocation = decision.allocations.get(name)
        metadata = {"objective_value": decision.objective_value}
        if allocation is not None and allocation.accepted:
            metadata["compute_unit"] = allocation.compute_unit
            metadata["reserved_mbps_total"] = allocation.total_reserved_mbps
        return metadata

    def event(kind, name, metadata):
        return LifecycleEvent(kind=kind, slice_name=name, epoch=epoch, metadata=metadata)

    for name, record in sorted(registry._records.items()):
        prev_state, old_renewals = before.get(name, (None, 0))
        state = record.state
        renewals = registry.renewal_count(name) if old_renewals or name in registry._archive else 0
        if renewals > old_renewals:
            old = registry.archived_records(name)[-1]
            if prev_state is ADMITTED and old.state is EXPIRED:
                expired.append(
                    event(LifecycleEventKind.EXPIRED, name, {"admitted_epoch": old.admitted_epoch})
                )
            renewed.append(event(LifecycleEventKind.RENEWED, name, {"renewal_index": renewals}))
            if state is ADMITTED:
                admitted.append(event(LifecycleEventKind.ADMITTED, name, admission_metadata(name)))
            elif state is REJECTED:
                rejected.append(event(LifecycleEventKind.REJECTED, name, admission_metadata(name)))
        elif state is ADMITTED and prev_state is not ADMITTED:
            admitted.append(event(LifecycleEventKind.ADMITTED, name, admission_metadata(name)))
        elif state is REJECTED and prev_state is not REJECTED:
            rejected.append(event(LifecycleEventKind.REJECTED, name, admission_metadata(name)))
        elif state is EXPIRED and prev_state is ADMITTED:
            expired.append(
                event(LifecycleEventKind.EXPIRED, name, {"admitted_epoch": record.admitted_epoch})
            )
    return expired + renewed + admitted + rejected


class Probe:
    """Per epoch: the journal, the writes noted into it, and the names the
    event derivation looked up in the registry."""

    def __init__(self, broker: SliceBroker, monkeypatch) -> None:
        self.journal: Journal | None = None
        self.writes = 0
        self.looked_up: list[str] = []
        self.deriving = False
        publish = broker._publish_epoch_view
        derive = broker._derive_events
        note = Journal.note
        registry = broker.orchestrator.registry
        record = registry.record

        def publishing(checkpoint):
            self.journal, self.writes, self.looked_up = checkpoint.journal, 0, []
            publish(checkpoint)

        def noting(journal, mapping, key):
            self.writes += journal is self.journal
            note(journal, mapping, key)

        def deriving(epoch, checkpoint, decision):
            self.deriving = True
            try:
                return derive(epoch, checkpoint, decision)
            finally:
                self.deriving = False

        def looking_up(name):
            if self.deriving:
                self.looked_up.append(name)
            return record(name)

        broker._publish_epoch_view = publishing
        broker._derive_events = deriving
        registry.record = looking_up
        monkeypatch.setattr(Journal, "note", noting)


def test_journal_and_events_stay_flat_over_a_2000_epoch_churn(monkeypatch):
    broker = SliceBroker(topology=build_tiny_topology(), solver=CoinSolver())
    orchestrator = broker.orchestrator
    registry = orchestrator.registry
    probe = Probe(broker, monkeypatch)
    rng = np.random.default_rng(0)
    names: list[str] = []
    journal_sizes = []
    kinds: set[str] = set()
    for epoch in range(EPOCHS):
        picks = rng.integers(max(len(names), 1), size=8)
        terminal = [
            names[index]
            for index in dict.fromkeys(picks.tolist())
            if index < len(names)
            and names[index] in registry
            and registry.record(names[index]).state in (SliceState.EXPIRED, SliceState.REJECTED)
            and orchestrator.slice_manager.pending_request(names[index]) is None
        ]
        for _ in range(ARRIVALS):
            if terminal and rng.random() < RENEWAL_SHARE:
                name = terminal.pop()
            else:
                name = f"s{len(names):05d}"
                names.append(name)
            broker.submit(
                SliceRequestV1.of(
                    name,
                    "eMBB",
                    duration_epochs=int(rng.integers(1, 7)),
                    arrival_epoch=epoch + int(rng.integers(0, 2)),
                )
            )
        admitted = registry.admitted_names()
        if admitted and rng.random() < 0.3:
            broker.release(admitted[int(rng.integers(len(admitted)))], epoch=epoch)
        queued = orchestrator.slice_manager.pending_requests
        if queued and rng.random() < 0.1:
            broker.release(queued[-1].name, epoch=epoch)

        archive = registry._archive
        before = {
            name: (record.state, len(archive[name]) if name in archive else 0)
            for name, record in registry._records.items()
        }
        report = broker.advance_epoch(epoch)
        journal = probe.journal
        touched = journal.touched(registry._records)

        assert len(journal) <= probe.writes
        assert len(journal) <= JOURNAL_BOUND, (epoch, len(journal), len(registry._records))
        assert set(probe.looked_up) <= set(touched) and len(probe.looked_up) == len(touched)
        assert list(report.events) == full_diff(epoch, before, registry, broker.last_decision)
        journal_sizes.append(len(journal))
        kinds.update(event.kind.value for event in report.events)

    records = len(registry.all_records())
    assert records >= 3000, records
    assert sum(registry.renewal_count(r.name) for r in registry.all_records()) >= 1000
    assert kinds == {"admitted", "rejected", "expired", "renewed"}
    # Flat: the last epochs journal no more than the first ones, with ten
    # times the records behind them.
    assert np.mean(journal_sizes[-200:]) <= 1.2 * np.mean(journal_sizes[100:300])
