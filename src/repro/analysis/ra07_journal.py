"""RA07 -- journaled state is written only by its declared writers
(DESIGN.md, "Epoch journal").

A structure whose state an epoch commits or rolls back declares it once:
``JOURNALED = (...)`` on the class names the attributes holding it.  The
values it holds are immutable -- among them the frozen lifecycle records and
cut-pool entries, :data:`JOURNALED_VALUES` -- and every write goes through
the epoch journal's writers (``assign`` / ``put`` / ``drop`` of
``repro/utils/journal.py``), which note the old value before replacing it.
A plain write would change the live state behind the journal's back: the
rollback would miss it and a mid-epoch reader would see it.  So under
``src/repro/``:

* an attribute store to declared state -- ``self.<name> = ...`` in the
  declaring class outside ``__init__``, ``<other>.<name> = ...`` anywhere --
  is a finding;
* a subscript store or delete into declared state (``x.<name>[k] = ...``)
  or a mutating method call on it (``x.<name>.append(...)``) is a finding;
* a store to a field of a journaled value (``record.state = ...``,
  ``entry.multipliers = ...``, ``object.__setattr__(record, "state", ...)``) is a
  finding: build a new value with ``dataclasses.replace`` and write that.
  Field names are not unique (the Benders loop state has a ``best_x`` too),
  so a receiver the function types as another class -- an annotated
  parameter, or a name bound to ``OtherClass(...)`` -- is not a value.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Checker, Finding, ProjectTree, ScopedVisitor, SourceModule

#: Frozen dataclasses stored in journaled tables; their fields are state.
JOURNALED_VALUES = ("SliceRecord", "_PoolEntry")

#: Method calls that edit a list, dict or set in place.
MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "add",
        "discard",
    }
)

#: Calls that store an attribute by name.
SETTERS = frozenset({"setattr", "object.__setattr__"})


def _declarations(tree: ProjectTree) -> tuple[dict[str, set[str]], set[str]]:
    """``(class -> its JOURNALED names, fields of the journaled values)``."""
    state: dict[str, set[str]] = {}
    fields: set[str] = set()
    for module in tree.modules:
        if not module.path.startswith("src/repro/"):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for statement in node.body:
                declares = any(
                    isinstance(target, ast.Name) and target.id == "JOURNALED"
                    for target in getattr(statement, "targets", ())
                )
                if declares and isinstance(statement.value, (ast.Tuple, ast.List)):
                    state.setdefault(node.name, set()).update(
                        element.value
                        for element in statement.value.elts
                        if isinstance(element, ast.Constant) and isinstance(element.value, str)
                    )
                if node.name in JOURNALED_VALUES and isinstance(statement, ast.AnnAssign):
                    if isinstance(statement.target, ast.Name):
                        fields.add(statement.target.id)
    return state, fields


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _class_name(node: ast.AST | None) -> str | None:
    """The class an annotation or a constructor call names, if any."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rpartition(".")[2]
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class _Visitor(ScopedVisitor):
    def __init__(self, state: dict[str, set[str]], fields: set[str]) -> None:
        super().__init__()
        self._state = state
        self._declared = set().union(*state.values()) if state else set()
        self._fields = fields
        #: ``(kind, name)`` of the enclosing definitions, innermost last.
        self._stack: list[tuple[str, str]] = []
        #: Per enclosing function: local name -> the class it is typed as.
        self._types: list[dict[str, str]] = [{}]
        self.offences: list[tuple[ast.AST, str, str]] = []

    # -- scopes ---------------------------------------------------------- #
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(("class", node.name))
        super().visit_ClassDef(node)
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._stack.append(("def", node.name))
        arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        self._types.append(
            {
                argument.arg: name
                for argument in arguments
                if (name := _class_name(argument.annotation)) is not None
            }
        )
        self._enter(node.name, node)
        self._types.pop()
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _may_be_value(self, receiver: ast.AST) -> bool:
        """Could ``receiver`` be a journaled value?  Not ``self``, and not a
        name this function types as another class."""
        if _is_self(receiver):
            return False
        if isinstance(receiver, ast.Name):
            known = self._types[-1].get(receiver.id)
            return known is None or known in JOURNALED_VALUES
        return True

    def _owner(self) -> tuple[str | None, str | None]:
        """The class a method belongs to, and the method's name."""
        if len(self._stack) >= 2 and self._stack[-2][0] == "class" and self._stack[-1][0] == "def":
            return self._stack[-2][1], self._stack[-1][1]
        return None, None

    def _is_state(self, attribute: ast.Attribute) -> bool:
        """Does ``attribute`` name declared state of its receiver?"""
        if _is_self(attribute.value):
            owner, _ = self._owner()
            return attribute.attr in self._state.get(owner or "", ())
        return attribute.attr in self._declared

    def _is_written(self, attribute: ast.Attribute) -> bool:
        """Does editing ``attribute``'s value in place write journaled state?"""
        return self._is_state(attribute) or (
            attribute.attr in self._fields and self._may_be_value(attribute.value)
        )

    # -- writes ---------------------------------------------------------- #
    def _store(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(element, node)
            return
        if isinstance(target, ast.Starred):
            self._store(target.value, node)
            return
        if isinstance(target, ast.Attribute):
            self._attribute_store(target, node)
            return
        root = target
        while isinstance(root, ast.Subscript):
            root = root.value
        if root is not target and isinstance(root, ast.Attribute) and self._is_written(root):
            self._offend(node, root.attr, "an entry of it is written in place; use put() / drop()")

    def _attribute_store(self, target: ast.Attribute, node: ast.AST) -> None:
        if target.attr in self._fields and self._may_be_value(target.value):
            self._offend(
                node,
                target.attr,
                "a field of an immutable journaled value is written; replace the value",
            )
        elif self._is_state(target):
            owner, method = self._owner()
            if not (_is_self(target.value) and method == "__init__"):
                self._offend(node, target.attr, "it is assigned directly; use assign()")

    def _offend(self, node: ast.AST, name: str, how: str) -> None:
        message = f"journaled state {name!r} is written outside a declared writer: {how}"
        self.offences.append((node, self.symbol, message))

    def _bind(self, target: ast.AST, annotation: ast.AST | None) -> None:
        name = _class_name(annotation)
        if isinstance(target, ast.Name) and name is not None and name.lstrip("_")[:1].isupper():
            self._types[-1][target.id] = name

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._store(target, node)
            if isinstance(node.value, ast.Call):
                self._bind(target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._store(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._store(node.target, node)
        self._bind(node.target, node.annotation)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._store(target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
            root = func.value
            while isinstance(root, ast.Subscript):
                root = root.value
            if isinstance(root, ast.Attribute) and self._is_written(root):
                self._offend(node, root.attr, f"it is edited in place by .{func.attr}()")
        callee = ast.unparse(func)
        if (
            callee in SETTERS
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in self._fields | self._declared
        ):
            self._offend(node, node.args[1].value, f"it is stored by {callee}()")
        self.generic_visit(node)


class JournaledStateChecker(Checker):
    rule = "RA07"
    title = "journaled state has declared writers"
    description = (
        "Under src/repro/, state a class declares in JOURNALED is written only "
        "through the epoch journal's writers (assign / put / drop) -- never by "
        "a plain attribute store outside __init__, a subscript store or an "
        "in-place mutating call -- and the fields of the journaled values "
        "(SliceRecord, _PoolEntry) are never stored at all."
    )

    def check(self, tree: ProjectTree) -> Iterator[Finding]:
        state, fields = _declarations(tree)
        for module in tree.modules:
            if module.path.startswith("src/repro/"):
                yield from self._check_module(module, state, fields)

    def _check_module(
        self, module: SourceModule, state: dict[str, set[str]], fields: set[str]
    ) -> Iterator[Finding]:
        visitor = _Visitor(state, fields)
        visitor.visit(module.tree)
        for node, symbol, message in visitor.offences:
            yield self.finding(module, node, symbol, message)
