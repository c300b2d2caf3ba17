"""RA03 -- byte-determinism of content-hashed / fingerprinted paths.

PRs 2-4 and 6 made scenario sampling, campaign spec hashing, fault plans,
decision fingerprints and the warm-start cut pool *byte-deterministic*: the
same seed replays the same bytes, which is what the golden runs, the
differential oracle and the crash-consistency fingerprints all pin.  A
single wall-clock read or unseeded RNG draw on one of those paths silently
breaks every one of those guarantees.

Mechanically, inside the deterministic subtree (:data:`DETERMINISTIC_PREFIXES`):

* ``time.time`` / ``time.time_ns`` / ``datetime.now`` / ``datetime.utcnow``
  / ``date.today`` are always findings -- wall clocks never feed hashed
  state;
* ``random.<fn>()`` module-level calls (the unseeded global stdlib RNG) and
  unseeded ``np.random`` module calls (``np.random.rand``,
  ``np.random.default_rng()`` *without* a seed argument) are findings --
  every draw must come from an explicitly seeded generator
  (:mod:`repro.utils.rng`);
* ``time.perf_counter`` / ``time.monotonic`` are *timing measurements*:
  legal only at the sites declared in :data:`TIMING_ALLOWLIST` (solver
  runtime stats).  A new timing site is a reviewed contract change: add it
  to the allowlist here, with the reason, or the check fails;
* iterating directly over a set display / ``set(...)`` / ``frozenset(...)``
  expression (``for x in {...}``, a comprehension over ``set(...)``) is a
  finding unless wrapped in ``sorted(...)`` -- unordered iteration feeding
  hashed or fingerprinted output is exactly the PR 8 silent-clamp class of
  bug.  (Iteration over set-typed *variables* is out of AST reach; the
  rule catches the syntactically obvious sites.)
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Checker, Finding, ProjectTree, ScopedVisitor, SourceModule

#: Subtree whose modules must stay byte-deterministic (everything the
#: content hashes, fingerprints and golden runs cover).  ``repro/api`` and
#: the CLI/reporting layers may read clocks freely.
DETERMINISTIC_PREFIXES = (
    "repro/core/",
    "repro/scenarios/",
    "repro/faults/",
    "repro/traffic/",
    "repro/topology/",
    "repro/forecasting/",
    "repro/dataplane/",
    "repro/simulation/",
    "repro/controlplane/",
    "repro/experiments/campaign.py",
    "repro/workloads/",
)

#: Wall-clock reads that are never legal on a deterministic path.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "date.today",
        "datetime.date.today",
    }
)

#: Monotonic timers: timing measurements, legal only at allowlisted sites.
TIMING_CALLS = frozenset({"time.perf_counter", "time.monotonic", "perf_counter", "monotonic"})

#: Declared timing-measurement sites: ``(path suffix, symbol)`` pairs where
#: a monotonic timer is legal because it feeds *reported runtime stats*,
#: never hashed or fingerprinted content.  Each entry names the stat it
#: feeds; removing the timer invalidates the entry (the golden-tree test
#: would then flag it as unnecessary).
TIMING_ALLOWLIST = frozenset(
    {
        # SolveStats.runtime_s of the Benders master loop, the wall-clock
        # time-limit guard, and the warm-start fast path: all feed the
        # reported runtime/time_truncated stats, never the decision or any
        # hashed content.
        ("repro/core/benders.py", "BendersSolver.solve"),
        ("repro/core/benders.py", "BendersSolver._warm_fast_path"),
        # SolveStats.runtime_s of the exact MILP reference solver.
        ("repro/core/milp_solver.py", "DirectMILPSolver.solve"),
        # SolveStats.runtime_s of the KAC heuristic solver.
        ("repro/core/kac.py", "KACSolver.solve"),
    }
)

#: The stdlib ``random`` module's global-RNG functions (unseeded).
STDLIB_RANDOM_MODULES = frozenset({"random"})

#: ``numpy.random`` module-call prefixes that hit the legacy global RNG.
NUMPY_RANDOM_PREFIXES = ("np.random.", "numpy.random.")

#: ``numpy.random`` constructors that are fine *when given a seed*.
SEEDED_CONSTRUCTORS = frozenset(
    {
        "np.random.default_rng",
        "numpy.random.default_rng",
        "np.random.Generator",
        "numpy.random.Generator",
        "np.random.SeedSequence",
        "numpy.random.SeedSequence",
        "np.random.PCG64",
        "numpy.random.PCG64",
    }
)


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


class _DeterminismScanner(ScopedVisitor):
    def __init__(self, module: SourceModule, checker: "DeterminismChecker") -> None:
        super().__init__()
        self.module = module
        self.checker = checker
        self.findings: list[Finding] = []

    # -- calls ---------------------------------------------------------- #
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name:
            self._check_call(node, name)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, name: str) -> None:
        module, checker = self.module, self.checker
        if name in WALL_CLOCK_CALLS:
            self.findings.append(
                checker.finding(
                    module,
                    node,
                    self.symbol,
                    f"wall-clock read `{name}()` on a deterministic path; "
                    "hashed/fingerprinted state must never see the clock",
                )
            )
            return
        if name in TIMING_CALLS:
            site = (module.path, self.symbol)
            allowed = any(
                module.matches(suffix) and symbol == self.symbol
                for suffix, symbol in TIMING_ALLOWLIST
            )
            if not allowed:
                self.findings.append(
                    checker.finding(
                        module,
                        node,
                        self.symbol,
                        f"monotonic timer `{name}()` at {site[0]}:{site[1]} is "
                        "not a declared timing-measurement site; add it to "
                        "ra03_determinism.TIMING_ALLOWLIST with a reason or "
                        "remove the read",
                    )
                )
            return
        root = name.split(".")[0]
        if root in STDLIB_RANDOM_MODULES and "." in name:
            self.findings.append(
                checker.finding(
                    module,
                    node,
                    self.symbol,
                    f"unseeded global-RNG call `{name}()`; draw from an "
                    "explicitly seeded generator (repro.utils.rng) instead",
                )
            )
            return
        if name.startswith(NUMPY_RANDOM_PREFIXES):
            if name in SEEDED_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    self.findings.append(
                        checker.finding(
                            module,
                            node,
                            self.symbol,
                            f"`{name}()` without a seed argument yields an "
                            "OS-entropy generator on a deterministic path; "
                            "pass an explicit seed",
                        )
                    )
            else:
                self.findings.append(
                    checker.finding(
                        module,
                        node,
                        self.symbol,
                        f"legacy numpy global-RNG call `{name}()`; use a "
                        "seeded numpy.random.Generator instead",
                    )
                )

    # -- unordered iteration ------------------------------------------- #
    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        # Reached from every comprehension form (ListComp, SetComp, DictComp,
        # GeneratorExp) by the default traversal.
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _check_iter(self, iter_node: ast.expr) -> None:
        if _is_set_expression(iter_node):
            self.findings.append(
                self.checker.finding(
                    self.module,
                    iter_node,
                    self.symbol,
                    "iteration over an unordered set expression on a "
                    "deterministic path; wrap it in sorted(...) so the "
                    "order cannot leak into hashed or fingerprinted output",
                )
            )


class DeterminismChecker(Checker):
    rule = "RA03"
    title = "byte-determinism of hashed/fingerprinted paths"
    description = (
        "No wall clocks, unseeded RNG or unordered set iteration inside the "
        "deterministic subtree (solver, scenarios, faults, campaign "
        "hashing); monotonic timers only at declared timing-measurement "
        "sites."
    )

    def check(self, tree: ProjectTree) -> Iterator[Finding]:
        for module in tree.modules:
            if not any(
                f"/{prefix}" in "/" + module.path for prefix in DETERMINISTIC_PREFIXES
            ):
                continue
            scanner = _DeterminismScanner(module, self)
            scanner.visit(module.tree)
            yield from scanner.findings
