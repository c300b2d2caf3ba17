"""RA06 -- one HiGHS entry point (DESIGN.md, "HiGHS is driven directly").

Under ``src/repro/``, ``scipy.optimize`` is imported (or reached as an
attribute) and ``_Highs(...)`` is constructed only in ``lpsolver.py``, and
SciPy's ``LinearConstraint`` appears nowhere: every LP and MILP reaches
HiGHS as one canonical matrix plus row bounds, through the module the
oracle tests shadow.  ``Phase1Problem(...)`` is constructed only in
``decomposition.py``: infeasibility certificates come from the slave
problem, never from a Benders round, whose candidates are all
slave-feasible (DESIGN.md, "Benders master surrogates").
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Checker, Finding, ProjectTree, dotted_name

ENTRY_POINT_SUFFIX = "repro/core/lpsolver.py"
SOLVER_PACKAGE = "scipy.optimize"
NATIVE_SOLVER = "_Highs"
RETIRED_CURRENCY = "LinearConstraint"
PHASE1 = "Phase1Problem"
PHASE1_SITE_SUFFIX = "repro/core/decomposition.py"


def _offences(node: ast.AST, entry_point: bool, phase1_site: bool) -> Iterator[tuple[str, str]]:
    """``(symbol, message)`` for every part of the rule ``node`` breaks."""
    outside = f"outside {ENTRY_POINT_SUFFIX}, the one HiGHS entry point"
    imported: list[str] = []
    if isinstance(node, ast.Import):
        imported = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        imported = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module or ""]
    used = dotted_name(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
    callee = dotted_name(node.func) if isinstance(node, ast.Call) else None
    constructed = callee.rpartition(".")[2] if callee is not None else None
    if not entry_point and (
        used == SOLVER_PACKAGE
        or any(name == SOLVER_PACKAGE or name.startswith(SOLVER_PACKAGE + ".") for name in imported)
    ):
        yield SOLVER_PACKAGE, f"{SOLVER_PACKAGE} is used {outside}"
    if not entry_point and constructed == NATIVE_SOLVER:
        yield NATIVE_SOLVER, f"{NATIVE_SOLVER}(...) is constructed {outside}"
    if any(name.rpartition(".")[2] == RETIRED_CURRENCY for name in [*imported, used or ""]):
        yield RETIRED_CURRENCY, (
            f"{RETIRED_CURRENCY} is used; hand solve_milp one canonical csc_matrix "
            "and its row bounds instead"
        )
    if not phase1_site and constructed == PHASE1:
        yield PHASE1, (
            f"{PHASE1}(...) is constructed outside {PHASE1_SITE_SUFFIX}; certificates "
            "come from SlaveProblem.evaluate"
        )


class SolverEntryPointChecker(Checker):
    rule = "RA06"
    title = "one HiGHS entry point"
    description = (
        "Under src/repro/, scipy.optimize is imported and _Highs is "
        "constructed only in repro/core/lpsolver.py, LinearConstraint "
        "appears nowhere, and Phase1Problem is constructed only in "
        "repro/core/decomposition.py."
    )

    def check(self, tree: ProjectTree) -> Iterator[Finding]:
        for module in tree.modules:
            if module.path.startswith("src/repro/"):
                entry_point = module.matches(ENTRY_POINT_SUFFIX)
                phase1_site = module.matches(PHASE1_SITE_SUFFIX)
                for node in ast.walk(module.tree):
                    for symbol, message in _offences(node, entry_point, phase1_site):
                        yield self.finding(module, node, symbol, message)
