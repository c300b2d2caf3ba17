"""RA01 -- broker lock discipline.

The concurrency contract (DESIGN.md, "Concurrency-safe facade") has three
tiers.  Every mutating public entry point of
:class:`~repro.api.broker.SliceBroker` serialises on the one reentrant
admission-path lock (``self._lock``), which ``advance_epoch`` holds for a
whole solve.  ``quote`` and the documented read-only escape hatches are
*pure reads* that must never take it (a pure read acquiring the lock would
serialise the hot quote path behind epoch solves -- and, worse, would
advertise a consistency level the contract does not promise).  The
*snapshot reads* (``status``, ``list_slices``, ``slice_count``) are
consistent reads that must not take it either: they are answered under the
short state mutex, from the running epoch's checkpoint if there is one, so
that a read never waits out a solve -- one ``with self._lock`` sneaking
back in re-creates exactly the stall they were taken off the lock to
remove.

Mechanically:

* a public method (no leading underscore, not a ``@property``) counts as
  *locked* when it is decorated ``@_synchronized``, opens a
  ``with self._lock`` block, or calls ``self._lock.acquire()``;
* every public method not in the declared read surface must be locked;
* the declared pure reads / lock-free escape hatches
  (:data:`PURE_READ_METHODS`) and the declared snapshot reads
  (:data:`SNAPSHOT_READ_METHODS`) must **not** be ``@_synchronized`` and
  must **not** reference ``self._lock`` at all.

The read surface is declared here, not inferred: adding a new lock-free
method to the broker is a contract change and must be reviewed as one (the
checker fails until the method is either locked or added to one of the two
declared sets).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Checker, Finding, ProjectTree, SourceModule, dotted_name

#: Module that hosts the guarded facade.
BROKER_MODULE_SUFFIX = "repro/api/broker.py"

#: The guarded class.
BROKER_CLASS = "SliceBroker"

#: Attribute holding the admission-path lock.
LOCK_ATTR = "_lock"

#: Decorator that wraps a method in the admission-path lock.
SYNCHRONIZED_DECORATOR = "_synchronized"

#: Methods that are pure reads / lock-free escape hatches *by contract*
#: (DESIGN.md): they must not touch the admission lock.  ``quote`` is the
#: documented pure read; the three registry accessors are the in-process
#: escape hatches whose snapshot semantics are delegated to the registry.
PURE_READ_METHODS = frozenset(
    {"quote", "active_slices", "admitted_names", "rejected_names"}
)

#: Consistent reads served from the live tables or, while an epoch runs,
#: from its checkpoint -- under the state mutex, never the admission lock.
SNAPSHOT_READ_METHODS = frozenset({"status", "list_slices", "slice_count"})

#: method -> (what it is declared as, what to do instead of locking it).
_DECLARED_READS = {
    **dict.fromkeys(
        PURE_READ_METHODS,
        (
            "pure read",
            "pure reads must stay lock-free (or be removed from "
            "PURE_READ_METHODS and locked)",
        ),
    ),
    **dict.fromkeys(
        SNAPSHOT_READ_METHODS,
        ("snapshot read", "read under the state mutex from the epoch view instead"),
    ),
}

#: Dunder/lifecycle methods exempt from the discipline: ``__init__`` runs
#: before the instance is shared, so locking there is meaningless.
EXEMPT_METHODS = frozenset({"__init__"})


def _is_lock_reference(node: ast.AST) -> bool:
    """True for any ``self._lock`` attribute access."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == LOCK_ATTR
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _references_lock(func: ast.FunctionDef) -> bool:
    return any(_is_lock_reference(node) for node in ast.walk(func))


def _is_synchronized(func: ast.FunctionDef) -> bool:
    for decorator in func.decorator_list:
        name = dotted_name(decorator)
        if name and name.split(".")[-1] == SYNCHRONIZED_DECORATOR:
            return True
    return False


def _acquires_lock(func: ast.FunctionDef) -> bool:
    """Decorated ``@_synchronized``, ``with self._lock`` or ``.acquire()``."""
    if _is_synchronized(func):
        return True
    for node in ast.walk(func):
        if isinstance(node, ast.With):
            for item in node.items:
                if _is_lock_reference(item.context_expr):
                    return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
            and _is_lock_reference(node.func.value)
        ):
            return True
    return False


def _is_property(func: ast.FunctionDef) -> bool:
    for decorator in func.decorator_list:
        name = dotted_name(decorator)
        if name and name.split(".")[-1] in {"property", "cached_property"}:
            return True
    return False


class LockDisciplineChecker(Checker):
    rule = "RA01"
    title = "SliceBroker admission-lock discipline"
    description = (
        "Every mutating public SliceBroker method must hold the admission "
        "lock (@_synchronized, `with self._lock` or self._lock.acquire()); "
        "declared pure reads (quote, the registry escape hatches) and "
        "declared snapshot reads (status, list_slices, slice_count) must "
        "not touch it."
    )

    def check(self, tree: ProjectTree) -> Iterator[Finding]:
        module = tree.find(BROKER_MODULE_SUFFIX)
        if module is None:
            return
        yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == BROKER_CLASS:
                yield from self._check_class(module, node)

    def _check_class(self, module: SourceModule, cls: ast.ClassDef) -> Iterator[Finding]:
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            symbol = f"{cls.name}.{item.name}"
            declared = _DECLARED_READS.get(item.name)
            if declared is not None:
                kind, remedy = declared
                if _is_synchronized(item) or _references_lock(item):
                    yield self.finding(
                        module,
                        item,
                        symbol,
                        f"{item.name} is a declared {kind} but takes the "
                        f"admission lock (@{SYNCHRONIZED_DECORATOR} or "
                        f"self.{LOCK_ATTR}), so it would queue behind a "
                        f"whole epoch solve; {remedy}",
                    )
                continue
            if (
                item.name.startswith("_")
                or item.name in EXEMPT_METHODS
                or _is_property(item)
            ):
                continue
            if not _acquires_lock(item):
                yield self.finding(
                    module,
                    item,
                    symbol,
                    f"public SliceBroker method {item.name} touches facade "
                    "state without the admission lock: decorate it "
                    f"@{SYNCHRONIZED_DECORATOR}, wrap its body in `with "
                    f"self.{LOCK_ATTR}:`, or declare it a pure read in "
                    "PURE_READ_METHODS",
                )
