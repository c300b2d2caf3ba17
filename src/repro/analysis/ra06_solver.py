"""RA06 -- one HiGHS entry point (DESIGN.md, "HiGHS is driven directly").

Under ``src/repro/``, ``scipy.optimize`` is imported (or reached as an
attribute) and ``_Highs(...)`` is constructed only in ``lpsolver.py``, and
SciPy's ``LinearConstraint`` appears nowhere: every LP and MILP reaches
HiGHS as one canonical matrix plus row bounds, through the module the
oracle tests shadow.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Checker, Finding, ProjectTree, dotted_name

ENTRY_POINT_SUFFIX = "repro/core/lpsolver.py"
SOLVER_PACKAGE = "scipy.optimize"
NATIVE_SOLVER = "_Highs"
RETIRED_CURRENCY = "LinearConstraint"


def _offences(node: ast.AST, entry_point: bool) -> Iterator[tuple[str, str]]:
    """``(symbol, message)`` for every part of the rule ``node`` breaks."""
    outside = f"outside {ENTRY_POINT_SUFFIX}, the one HiGHS entry point"
    imported: list[str] = []
    if isinstance(node, ast.Import):
        imported = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        imported = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module or ""]
    used = dotted_name(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
    callee = dotted_name(node.func) if isinstance(node, ast.Call) else None
    if not entry_point and (
        used == SOLVER_PACKAGE
        or any(name == SOLVER_PACKAGE or name.startswith(SOLVER_PACKAGE + ".") for name in imported)
    ):
        yield SOLVER_PACKAGE, f"{SOLVER_PACKAGE} is used {outside}"
    if not entry_point and callee is not None and callee.rpartition(".")[2] == NATIVE_SOLVER:
        yield NATIVE_SOLVER, f"{NATIVE_SOLVER}(...) is constructed {outside}"
    if any(name.rpartition(".")[2] == RETIRED_CURRENCY for name in [*imported, used or ""]):
        yield RETIRED_CURRENCY, (
            f"{RETIRED_CURRENCY} is used; hand solve_milp one canonical csc_matrix "
            "and its row bounds instead"
        )


class SolverEntryPointChecker(Checker):
    rule = "RA06"
    title = "one HiGHS entry point"
    description = (
        "Under src/repro/, scipy.optimize is imported and _Highs is "
        "constructed only in repro/core/lpsolver.py, and LinearConstraint "
        "appears nowhere: every model reaches HiGHS as one canonical matrix."
    )

    def check(self, tree: ProjectTree) -> Iterator[Finding]:
        for module in tree.modules:
            if module.path.startswith("src/repro/"):
                entry_point = module.matches(ENTRY_POINT_SUFFIX)
                for node in ast.walk(module.tree):
                    for symbol, message in _offences(node, entry_point):
                        yield self.finding(module, node, symbol, message)
