"""RA05 -- executor submission safety.

The :mod:`repro.utils.executors` contract: the function an executor fans out
must be a **module-level callable**.  The process pool hard-requires it
(pickling); the thread pool merely tolerates closures -- but a closure over
solver/controller mutable state is exactly how a "works serially" sweep
becomes a torn-state race the moment someone flips the executor, so the
contract is enforced uniformly and deliberate exceptions are grandfathered
in ``analysis-baseline.toml`` with their justification.

Mechanically, for every ``<something>executor-ish<.map(fn, ...)`` call site
(the receiver is named ``*executor*`` / ``*pool*``, or is a direct
``default_executor(...)`` result):

* ``fn`` as a ``lambda`` is a finding;
* ``fn`` naming a function *defined inside the enclosing scope* (a closure)
  is a finding;
* ``fn`` as an attribute rooted at ``self`` or ``cls`` (a bound method
  dragging the instance -- solver/controller state -- into the pool) is a
  finding;
* ``fn`` naming a module-level def / import, or an attribute rooted at a
  module-level import, passes.

``functools.partial(module_fn, ...)`` passes (the partial pins arguments,
not ambient state); a partial over a lambda or bound method does not.

Second, every thread we start is listed: under ``src/repro/`` a
``threading.Thread(...)`` or ``ThreadPoolExecutor(...)`` may be constructed
only at a :data:`DECLARED_THREAD_SITES` scope -- the HTTP server's accept
loop and the Benders pricing helper.  A new site is a design decision
(DESIGN.md, "Overlapped pricing"), added here, not to the baseline.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Checker,
    Finding,
    ProjectTree,
    ScopedVisitor,
    SourceModule,
    dotted_name,
    module_level_names,
)

#: Receiver name fragments that mark an executor-pool ``.map`` call.
EXECUTOR_NAME_FRAGMENTS = ("executor", "pool")

#: Factory calls whose result is an executor even without the name.
EXECUTOR_FACTORIES = frozenset(
    {
        "default_executor",
        "SerialExecutor",
        "ProcessPoolRunExecutor",
    }
)

#: Constructors that start a thread (or a pool that owns one).
THREAD_CONSTRUCTORS = frozenset({"Thread", "ThreadPoolExecutor"})

#: The only ``(module path, enclosing scope)`` pairs that may construct one.
DECLARED_THREAD_SITES = frozenset(
    {
        ("src/repro/api/server.py", "BrokerServer.start"),
        ("src/repro/core/benders.py", "_helper"),
    }
)


def _receiver_is_executor(node: ast.expr) -> bool:
    """Heuristic: does this ``.map`` receiver look like an executors pool?"""
    if isinstance(node, ast.Name):
        return any(f in node.id.lower() for f in EXECUTOR_NAME_FRAGMENTS)
    if isinstance(node, ast.Attribute):
        if any(f in node.attr.lower() for f in EXECUTOR_NAME_FRAGMENTS):
            return True
        return _receiver_is_executor(node.value)
    if isinstance(node, ast.Call):
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id in EXECUTOR_FACTORIES:
            return True
        if isinstance(callee, ast.Attribute) and callee.attr in EXECUTOR_FACTORIES:
            return True
    return False


def _attribute_root(node: ast.expr) -> ast.expr:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


class _Scanner(ScopedVisitor):
    def __init__(self, module: SourceModule, checker: "ExecutorSafetyChecker") -> None:
        super().__init__()
        self.module = module
        self.checker = checker
        self.findings: list[Finding] = []
        self.module_names = module_level_names(module.tree)
        #: Names of defs nested inside the current (non-module) scope stack.
        self._local_defs: list[set[str]] = []

    # -- scope bookkeeping: which names are local function defs ---------- #
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._local_defs:
            self._local_defs[-1].add(node.name)
        self._local_defs.append(set())
        super().visit_FunctionDef(node)
        self._local_defs.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        if self._local_defs:
            self._local_defs[-1].add(node.name)
        self._local_defs.append(set())
        super().visit_AsyncFunctionDef(node)
        self._local_defs.pop()

    def _is_local_def(self, name: str) -> bool:
        return any(name in scope for scope in self._local_defs)

    # -- the rules ------------------------------------------------------- #
    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "map"
            and node.args
            and _receiver_is_executor(node.func.value)
        ):
            self._check_fn(node, node.args[0])
        callee = (dotted_name(node.func) or "").rpartition(".")[2]
        if (
            callee in THREAD_CONSTRUCTORS
            and self.module.path.startswith("src/repro/")
            and (self.module.path, self.symbol) not in DECLARED_THREAD_SITES
        ):
            self.findings.append(
                self.checker.finding(
                    self.module,
                    node,
                    self.symbol,
                    f"{callee}(...) at an undeclared site; threads under src/repro/ "
                    "start only at ra05_executors.DECLARED_THREAD_SITES",
                )
            )
        self.generic_visit(node)

    def _report(self, node: ast.AST, why: str) -> None:
        self.findings.append(
            self.checker.finding(
                self.module,
                node,
                self.symbol,
                f"{why}; executor-pool callables must be module-level "
                "functions that close over no solver/controller mutable "
                "state (see utils/executors contract)",
            )
        )

    def _check_fn(self, call: ast.Call, fn: ast.expr) -> None:
        # functools.partial(inner, ...): judge the inner callable.
        if isinstance(fn, ast.Call):
            callee = fn.func
            callee_name = (
                callee.id
                if isinstance(callee, ast.Name)
                else callee.attr
                if isinstance(callee, ast.Attribute)
                else None
            )
            if callee_name == "partial" and fn.args:
                self._check_fn(call, fn.args[0])
                return
            self._report(fn, "callable built by an arbitrary call expression")
            return
        if isinstance(fn, ast.Lambda):
            self._report(fn, "lambda submitted to an executor pool")
            return
        if isinstance(fn, ast.Name):
            if self._is_local_def(fn.id):
                self._report(
                    fn, f"locally-defined closure {fn.id!r} submitted to an executor pool"
                )
            elif fn.id not in self.module_names:
                self._report(
                    fn,
                    f"callable {fn.id!r} is not a module-level name (local "
                    "variable or closure)",
                )
            return
        if isinstance(fn, ast.Attribute):
            root = _attribute_root(fn)
            if isinstance(root, ast.Name) and root.id in {"self", "cls"}:
                self._report(
                    fn,
                    f"bound method `{ast.unparse(fn)}` drags the instance "
                    "(solver/controller state) into the pool",
                )
            elif not (isinstance(root, ast.Name) and root.id in self.module_names):
                self._report(
                    fn, f"callable `{ast.unparse(fn)}` is not rooted at module scope"
                )
            return
        self._report(fn, "unrecognised callable expression submitted to an executor pool")


class ExecutorSafetyChecker(Checker):
    rule = "RA05"
    title = "executor-pool submission safety"
    description = (
        "Callables handed to utils/executors pools (.map) must be "
        "module-level functions -- no lambdas, closures or bound methods "
        "over solver/controller mutable state -- and threads under "
        "src/repro/ start only at the declared sites."
    )

    def check(self, tree: ProjectTree) -> Iterator[Finding]:
        for module in tree.modules:
            scanner = _Scanner(module, self)
            scanner.visit(module.tree)
            yield from scanner.findings
