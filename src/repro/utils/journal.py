"""The write journal of one decision epoch.

State that an epoch must either commit or roll back is *declared* once, on
the class that owns it:

* ``JOURNALED`` names the attributes holding state.  Such an attribute is a
  *field* (its value is immutable: ``last_problem``, a tuple, a frozen
  record) or a *table* (a dict whose values are immutable: slice name ->
  :class:`~repro.controlplane.state.SliceRecord`).
* ``JOURNALED_PARTS`` names the attributes holding other declared structures
  (the orchestrator's registry, controllers, solver, ...).

Values are never edited in place.  A write replaces a value, and every write
goes through a declared writer -- a method of the owning class calling
:func:`assign` (a field), :func:`put` or :func:`drop` (a table entry) --
which is what RA07 (``python -m repro.analysis check``) enforces.

While an epoch runs (``with journal:`` on the epoch's thread) the writers
note ``(mapping, key, old value)`` the first time the epoch touches a key, in
the mapping the value lives in (``vars(owner)`` for a field, the table itself
for an entry).  That log is the whole per-epoch cost of crash consistency:

* :meth:`Journal.rollback` puts the old values back, newest first;
* :meth:`Journal.before` and :meth:`Journal.keys_before` overlay the old
  values on the live state, which is the pre-epoch state for readers on other
  threads, without a lock (see :meth:`Journal.before` for the protocol);
* :meth:`Journal.touched` is the set of keys the epoch changed, which is
  where the broker's lifecycle events come from.

A table's insertion order is state too (the intake queue's is the order
requests are decided in), and re-inserting a dropped key moves it last: the
epoch's first :func:`drop` from a table records the table's key order, and
a rollback puts it back.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator

#: What a key held before the epoch created it.
ABSENT: Any = type("Absent", (), {"__repr__": lambda self: "ABSENT"})()

#: The journal of the epoch running on each thread (``None``: no epoch).
_active = threading.local()


class Journal:
    """Undo log of one decision epoch; see the module docstring."""

    __slots__ = ("_undo", "_log", "_orders", "_outer")

    def __init__(self) -> None:
        #: ``id(mapping) -> {key: old value}``; the log keeps every mapping
        #: alive, so an id cannot be reused while the journal is.
        self._undo: dict[int, dict] = {}
        #: ``(mapping, key)`` in first-touch order.
        self._log: list[tuple[dict, Any]] = []
        #: ``id(mapping) -> (mapping, key order at the first deletion)`` for
        #: the tables the epoch deleted from.
        self._orders: dict[int, tuple[dict, tuple]] = {}
        self._outer: Journal | None = None

    def __enter__(self) -> "Journal":
        self._outer = getattr(_active, "journal", None)
        _active.journal = self
        return self

    def __exit__(self, *exc_info) -> None:
        _active.journal, self._outer = self._outer, None

    def __len__(self) -> int:
        return len(self._log)

    def note(self, mapping: dict, key: Any) -> None:
        """Record ``mapping[key]``'s value before the epoch's first write."""
        undo = self._undo.get(id(mapping))
        if undo is None:
            undo = self._undo[id(mapping)] = {}
        if key not in undo:
            undo[key] = mapping.get(key, ABSENT)
            self._log.append((mapping, key))

    def note_order(self, mapping: dict) -> None:
        """Record ``mapping``'s key order before the epoch's first deletion
        from it: the pre-epoch keys in their order, then any the epoch
        created, which the rollback removes again."""
        if id(mapping) not in self._orders:
            self._orders[id(mapping)] = (mapping, tuple(mapping))

    def rollback(self) -> None:
        """Put every value the epoch replaced back, newest first, and every
        reordered table back in its pre-epoch order."""
        for mapping, key in reversed(self._log):
            old = self._undo[id(mapping)][key]
            if old is ABSENT:
                mapping.pop(key, None)
            else:
                mapping[key] = old
        for mapping, order in self._orders.values():
            restored = {key: mapping[key] for key in order if key in mapping}
            mapping.clear()
            mapping.update(restored)

    # ------------------------------------------------------------------ #
    # The pre-epoch state, read through the journal
    # ------------------------------------------------------------------ #
    def before(self, mapping: dict, key: Any, default: Any = ABSENT) -> Any:
        """``mapping[key]`` as it was before the epoch.

        Lock-free against the epoch's writers: a writer notes the old value
        before it replaces the live one, and this reads the live value
        first, the journal second.  If the live read already saw the
        epoch's write, the note precedes it and the second read finds it;
        if not, the live value is still the pre-epoch one.
        """
        value = mapping.get(key, ABSENT)
        undo = self._undo.get(id(mapping))
        if undo is not None:
            value = undo.get(key, value)
        return default if value is ABSENT else value

    def keys_before(self, mapping: dict) -> list:
        """The keys ``mapping`` had before the epoch, in no set order.

        Same protocol as :meth:`before`; both listings are copied in one C
        call each, so a concurrent insert cannot break the iteration.
        """
        live = tuple(mapping)
        undo = self._undo.get(id(mapping))
        if undo is None:
            return list(live)
        notes = tuple(undo.items())
        created = {key for key, old in notes if old is ABSENT}
        present = set(live)
        kept = [key for key in live if key not in created]
        kept.extend(key for key, old in notes if old is not ABSENT and key not in present)
        return kept

    def touched(self, mapping: dict) -> tuple:
        """Keys of ``mapping`` the epoch wrote, in first-touch order."""
        return tuple(self._undo.get(id(mapping), ()))


def assign(owner: object, name: str, value: Any) -> None:
    """Declared writer of a field: ``owner.name = value``."""
    state = vars(owner)
    journal = getattr(_active, "journal", None)
    if journal is not None:
        journal.note(state, name)
    state[name] = value


def put(table: dict, key: Any, value: Any) -> None:
    """Declared writer of a table entry: ``table[key] = value``."""
    journal = getattr(_active, "journal", None)
    if journal is not None:
        journal.note(table, key)
    table[key] = value


def drop(table: dict, key: Any) -> Any:
    """Declared writer removing a table entry; returns its value."""
    journal = getattr(_active, "journal", None)
    if journal is not None:
        journal.note(table, key)
        journal.note_order(table)
    return table.pop(key)


def declared_state(structure: object) -> Iterator[tuple[str, Any]]:
    """``(path, value)`` for every declared field and table reachable from
    ``structure`` through its declared parts, in declaration order.

    A part that declares nothing (a stateless solver) contributes nothing.
    """
    yield from _walk(structure, "")


def _walk(structure: object, prefix: str) -> Iterator[tuple[str, Any]]:
    for name in getattr(structure, "JOURNALED", ()):
        yield prefix + name, getattr(structure, name)
    for name in getattr(structure, "JOURNALED_PARTS", ()):
        yield from _walk(getattr(structure, name), f"{prefix}{name}.")
