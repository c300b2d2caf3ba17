"""AST-walking framework of the ``repro.analysis`` invariant checker suite.

The repo's load-bearing conventions -- broker lock discipline, the stable
``BrokerError`` taxonomy at the API boundary, byte-determinism of everything
content-hashed, versioned DTO wire round-trips, executor submission safety --
lived only in DESIGN.md prose and after-the-fact tests until this package.
Each convention is now a *rule* (``RA01``..``RA07``) enforced mechanically
over the parsed source tree, in the spirit of refinement checking: the
implementation is verified against its declared contract by a tool, not by
reviewer inspection.

Vocabulary:

* :class:`SourceModule` -- one parsed file (repo-relative path, source text,
  ``ast`` tree).  Built from disk or, for fixture tests, from an in-memory
  string.
* :class:`ProjectTree` -- the set of modules a check runs over, plus
  non-Python documents the cross-checks consult (DESIGN.md for the error
  taxonomy table).  Fixture trees are assembled with
  :meth:`ProjectTree.from_sources`; the real tree with
  :meth:`ProjectTree.load`.
* :class:`Checker` -- one rule.  A checker sees the whole tree (several rules
  are cross-module: error codes declared in ``errors.py`` must appear in
  ``transport.STATUS_BY_CODE`` and in DESIGN.md) and yields
  :class:`Finding` records.
* :class:`Finding` -- one violation, addressed by ``file:line`` for humans
  and by the stable ``(rule, path, symbol)`` key for the baseline.
* :class:`Baseline` -- the explicit allowlist (``analysis-baseline.toml``)
  of grandfathered findings.  Keys are *symbol-stable*, not line-stable, so
  unrelated edits to a file do not churn the baseline; a baseline entry whose
  finding no longer fires is itself an error (stale suppressions rot).
"""

from __future__ import annotations

import ast
import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

#: Name of the committed allowlist file at the repo root.
BASELINE_FILENAME = "analysis-baseline.toml"

#: Directories never scanned (caches, VCS internals).
_SKIPPED_DIR_NAMES = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


# --------------------------------------------------------------------- #
# Findings
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Finding:
    """One rule violation at one site.

    ``symbol`` is the dotted qualname of the enclosing scope
    (``SliceBroker.submit``, ``<module>`` for module-level code): the
    baseline keys on ``(rule, path, symbol)`` so entries survive unrelated
    line churn but go stale when the offending scope is fixed or removed.
    """

    rule: str
    path: str
    line: int
    symbol: str
    message: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.symbol)

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.symbol}] {self.message}"


# --------------------------------------------------------------------- #
# Source modules and project trees
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SourceModule:
    """One parsed Python file of the tree under analysis."""

    #: Repo-relative POSIX path (``src/repro/api/broker.py``).
    path: str
    source: str
    tree: ast.Module

    @classmethod
    def from_source(cls, source: str, path: str) -> "SourceModule":
        return cls(path=path, source=source, tree=ast.parse(source, filename=path))

    def matches(self, suffix: str) -> bool:
        """True when this module's path ends with ``suffix`` (POSIX form)."""
        return self.path == suffix or self.path.endswith("/" + suffix.lstrip("/"))


class ProjectTree:
    """The file set one ``check`` run analyses.

    Holds the parsed Python modules plus the text documents cross-checks
    read (``documents`` maps repo-relative names like ``DESIGN.md`` to their
    contents).  Fixture tests build tiny in-memory trees; the CLI and the
    golden test load the real repo.
    """

    def __init__(
        self,
        modules: Sequence[SourceModule],
        documents: Mapping[str, str] | None = None,
    ):
        self.modules: list[SourceModule] = sorted(modules, key=lambda m: m.path)
        self.documents: dict[str, str] = dict(documents or {})

    @classmethod
    def from_sources(
        cls,
        sources: Mapping[str, str],
        documents: Mapping[str, str] | None = None,
    ) -> "ProjectTree":
        """Build an in-memory tree (fixture tests compile snippets here)."""
        return cls(
            [SourceModule.from_source(text, path) for path, text in sources.items()],
            documents,
        )

    @classmethod
    def load(
        cls,
        root: Path,
        paths: Sequence[str] = ("src",),
        documents: Sequence[str] = ("DESIGN.md",),
    ) -> "ProjectTree":
        """Parse every ``*.py`` file under ``root/<path>`` for each path.

        A file that does not parse is reported by the caller via the
        :class:`SyntaxError` this raises -- syntax rot is a finding-class
        problem, but the byte-compile CI gate owns it; here it just fails
        loudly.
        """
        modules: list[SourceModule] = []
        for entry in paths:
            base = root / entry
            if base.is_file():
                files: Iterable[Path] = [base]
            else:
                files = sorted(
                    p
                    for p in base.rglob("*.py")
                    if not _SKIPPED_DIR_NAMES.intersection(p.parts)
                )
            for file_path in files:
                rel = file_path.relative_to(root).as_posix()
                modules.append(SourceModule.from_source(file_path.read_text(), rel))
        docs: dict[str, str] = {}
        for name in documents:
            doc_path = root / name
            if doc_path.is_file():
                docs[name] = doc_path.read_text()
        return cls(modules, docs)

    def find(self, suffix: str) -> SourceModule | None:
        """The unique module whose path ends with ``suffix`` (None if absent)."""
        matches = [module for module in self.modules if module.matches(suffix)]
        return matches[0] if len(matches) == 1 else None

    def document(self, name: str) -> str | None:
        return self.documents.get(name)


# --------------------------------------------------------------------- #
# Scope tracking (qualnames for findings)
# --------------------------------------------------------------------- #
class ScopedVisitor(ast.NodeVisitor):
    """A NodeVisitor that tracks the dotted qualname of the current scope.

    Checkers subclass this to stamp findings with a symbol that is stable
    across line churn.  ``self.symbol`` is ``<module>`` at the top level and
    ``Class.method`` / ``outer.<locals>.inner`` inside definitions, mirroring
    ``__qualname__``.
    """

    def __init__(self) -> None:
        self._scopes: list[str] = []

    @property
    def symbol(self) -> str:
        return ".".join(self._scopes) if self._scopes else "<module>"

    def _enter(self, name: str, node: ast.AST) -> None:
        self._scopes.append(name)
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter(node.name, node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter(node.name, node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter(node.name, node)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_level_names(tree: ast.Module) -> set[str]:
    """Names bound at module scope (imports, defs, classes, assignments)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        names.add(name_node.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


# --------------------------------------------------------------------- #
# Checkers
# --------------------------------------------------------------------- #
class Checker:
    """One invariant rule.  Subclasses set the metadata and implement check."""

    #: Stable rule code (``RA01``); the baseline and the CLI key on it.
    rule: str = "RA00"
    #: One-line summary shown by ``list-rules``.
    title: str = ""
    #: The prose convention the rule replaces (shown by ``list-rules -v``).
    description: str = ""

    def check(self, tree: ProjectTree) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: SourceModule, node: ast.AST, symbol: str, message: str) -> Finding:
        return Finding(
            rule=self.rule,
            path=module.path,
            line=getattr(node, "lineno", 0),
            symbol=symbol,
            message=message,
        )


def default_checkers() -> list[Checker]:
    """The seven repo-specific checkers, in rule order."""
    # Imported lazily so ``core`` stays import-cycle-free (each checker
    # module imports ``core``).
    from repro.analysis.ra01_locks import LockDisciplineChecker
    from repro.analysis.ra02_errors import ErrorTaxonomyChecker
    from repro.analysis.ra03_determinism import DeterminismChecker
    from repro.analysis.ra04_wire import WireContractChecker
    from repro.analysis.ra05_executors import ExecutorSafetyChecker
    from repro.analysis.ra06_solver import SolverEntryPointChecker
    from repro.analysis.ra07_journal import JournaledStateChecker

    return [
        LockDisciplineChecker(),
        ErrorTaxonomyChecker(),
        DeterminismChecker(),
        WireContractChecker(),
        ExecutorSafetyChecker(),
        SolverEntryPointChecker(),
        JournaledStateChecker(),
    ]


# --------------------------------------------------------------------- #
# Baseline (grandfathered findings)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BaselineEntry:
    """One grandfathered finding: suppressed, but only while it still fires."""

    rule: str
    path: str
    symbol: str
    reason: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.symbol)


@dataclass
class Baseline:
    """The parsed ``analysis-baseline.toml`` allowlist."""

    entries: list[BaselineEntry] = field(default_factory=list)

    @classmethod
    def parse(cls, text: str) -> "Baseline":
        payload = tomllib.loads(text)
        entries: list[BaselineEntry] = []
        for raw in payload.get("suppress", []):
            missing = {"rule", "path", "symbol", "reason"} - set(raw)
            if missing:
                raise ValueError(
                    f"baseline entry {raw!r} is missing field(s): {sorted(missing)}"
                )
            entry = BaselineEntry(
                rule=str(raw["rule"]),
                path=str(raw["path"]),
                symbol=str(raw["symbol"]),
                reason=str(raw["reason"]).strip(),
            )
            if not entry.reason:
                raise ValueError(
                    f"baseline entry {entry.rule} {entry.path} [{entry.symbol}] "
                    "must carry a non-empty justification in 'reason'"
                )
            entries.append(entry)
        return cls(entries)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.is_file():
            return cls([])
        return cls.parse(path.read_text())


@dataclass
class CheckReport:
    """Outcome of one ``check`` run: new findings, suppressed, stale entries."""

    findings: list[Finding]
    suppressed: list[Finding]
    stale_entries: list[BaselineEntry]

    @property
    def clean(self) -> bool:
        return not self.findings and not self.stale_entries

    def to_dict(self) -> dict[str, Any]:
        return {
            "clean": self.clean,
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
            "stale_baseline_entries": [
                {"rule": e.rule, "path": e.path, "symbol": e.symbol, "reason": e.reason}
                for e in self.stale_entries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        lines: list[str] = []
        for finding in self.findings:
            lines.append(finding.render())
        for entry in self.stale_entries:
            lines.append(
                f"{entry.path}: STALE-BASELINE {entry.rule} [{entry.symbol}] "
                "no longer fires; remove its baseline entry"
            )
        if not lines:
            lines.append(
                f"clean: no un-baselined findings ({len(self.suppressed)} suppressed)"
            )
        return "\n".join(lines)


def run_checkers(
    tree: ProjectTree,
    checkers: Sequence[Checker] | None = None,
    baseline: Baseline | None = None,
) -> CheckReport:
    """Run every checker over ``tree`` and split findings against ``baseline``.

    Deterministic output: findings sort by (path, line, rule); a baseline
    entry suppresses *every* finding sharing its ``(rule, path, symbol)``
    key (one justified symbol, not one line); entries that suppress nothing
    are reported stale.
    """
    if checkers is None:
        checkers = default_checkers()
    baseline = baseline or Baseline([])
    all_findings: list[Finding] = []
    for checker in checkers:
        all_findings.extend(checker.check(tree))
    all_findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    suppress_keys = {entry.key for entry in baseline.entries}
    active_rules = {checker.rule for checker in checkers}
    fresh: list[Finding] = []
    suppressed: list[Finding] = []
    used_keys: set[tuple[str, str, str]] = set()
    for finding in all_findings:
        if finding.key in suppress_keys:
            suppressed.append(finding)
            used_keys.add(finding.key)
        else:
            fresh.append(finding)
    scanned_paths = {module.path for module in tree.modules}
    stale = [
        entry
        for entry in baseline.entries
        # Entries are only judged stale when their rule ran AND their file
        # was scanned this invocation (a partial `check src/repro/api` run
        # must not condemn entries for files outside its scope).
        if entry.key not in used_keys
        and entry.rule in active_rules
        and entry.path in scanned_paths
    ]
    return CheckReport(findings=fresh, suppressed=suppressed, stale_entries=stale)
