"""Reachability census of ``src/repro``: which functions do the declared runs enter?

    python tools/census.py [--format human|json] [--output FILE]
    python tools/census.py --save-entries FILE   # also keep the recorded entry set
    python tools/census.py --entries FILE        # judge a saved entry set, run nothing

The declared runs are what this repo says it runs: one ``--seconds 1 --trace
1`` pass of every ``BENCHMARK.json`` workload, the quick grid of every
``python -m repro.experiments`` campaign, every ``examples/`` script,
``python -m repro.analysis check`` (as run by hand and as CI runs it) and
``pytest -m chaos``.  Each runs as a subprocess with ``tools/census_site`` on
``PYTHONPATH``, whose ``sitecustomize`` records the code objects every
interpreter enters (child processes too).

A recorded code object matches a ``def`` by (file, first line including
decorators, name).  Each ``src/repro`` function no run entered is an ``RC01``
finding keyed, like the ``repro.analysis`` rules, by its scope qualname; the
findings are judged by ``repro.analysis.run_checkers`` against
``census-baseline.toml``, so every kept-but-unrun function carries a written
reason and an entry whose function is entered (or gone) fails as stale.

Exit status: 0 when clean, 1 on an un-baselined finding or a stale entry, 2
when a declared run fails (its entry set would be incomplete).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.core import (  # noqa: E402
    Baseline,
    Checker,
    Finding,
    ProjectTree,
    ScopedVisitor,
    run_checkers,
)

BASELINE_FILENAME = "census-baseline.toml"
#: The recorder's directory (holds ``sitecustomize.py``).
SITE_DIR = Path(__file__).resolve().parent / "census_site"
#: What the census counts.
SCANNED = "src/repro"
#: Seconds one declared run may take before the census gives up on it.
RUN_TIMEOUT_S = 1800

#: ``(file, first line including decorators, name)`` of one code object.
EntryKey = tuple[str, int, str]


# --------------------------------------------------------------------- #
# Matching defs to entries
# --------------------------------------------------------------------- #
def first_line(node: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    """The line ``co_firstlineno`` reports: the first decorator's, else the def's."""
    return min([node.lineno, *(decorator.lineno for decorator in node.decorator_list)])


def is_declaration(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True for an interface stub: a body of only a docstring, ``...`` or
    ``raise NotImplementedError``.  It has nothing to run, so it is not counted."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    if not body:
        return True
    if len(body) > 1:
        return False
    statement = body[0]
    if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
        return statement.value.value is Ellipsis
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        raised = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
        return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"
    return False


class _Definitions(ScopedVisitor):
    """Every counted ``def`` of a module with its ``ScopedVisitor`` qualname."""

    def __init__(self) -> None:
        super().__init__()
        self.found: list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]] = []

    def _enter(self, name: str, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not is_declaration(node):
            self.found.append((node, ".".join([*self._scopes, name])))
        super()._enter(name, node)


def definitions(tree: ast.Module) -> list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]]:
    visitor = _Definitions()
    visitor.visit(tree)
    return visitor.found


class CensusChecker(Checker):
    """RC01: a function no declared run enters."""

    rule = "RC01"
    title = "function never entered by a declared run"
    description = (
        "Every src/repro function is entered by a declared run (benchmark "
        "workloads, campaign quick grids, examples, the analysis check, the "
        "chaos suite) or carries a census-baseline.toml reason naming the "
        "test that enters it and why it stays."
    )

    def __init__(self, entries: Iterable[EntryKey]):
        self.entries = frozenset(entries)

    def check(self, tree: ProjectTree) -> Iterator[Finding]:
        for module in tree.modules:
            for node, symbol in definitions(module.tree):
                if (module.path, first_line(node), node.name) not in self.entries:
                    yield self.finding(
                        module, node, symbol, "no declared run enters this function"
                    )


# --------------------------------------------------------------------- #
# Declared runs
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class DeclaredRun:
    """One subprocess of the census: ``python <argv>`` in ``cwd``."""

    name: str
    argv: tuple[str, ...]
    cwd: Path


def declared_runs(scratch: Path) -> list[DeclaredRun]:
    """The runs the repo declares; ``scratch`` takes their caches and outputs."""
    from repro.experiments.cli import CAMPAIGNS

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs = [
        DeclaredRun(
            f"e2e {name}",
            (str(ROOT / "benchmarks/e2e/run.py"), "--workload", name,
             "--seconds", "1", "--trace", "1"),
            scratch,
        )
        for name in workloads
    ]
    runs += [
        DeclaredRun(
            f"campaign {name}",
            ("-m", "repro.experiments", "--cache-dir", str(scratch / "campaigns"), "run", name),
            scratch,
        )
        for name in sorted(CAMPAIGNS)
    ]
    runs += [
        DeclaredRun(f"example {script.stem}", (str(script),), scratch)
        for script in sorted((ROOT / "examples").glob("*.py"))
    ]
    runs += [
        DeclaredRun("analysis check", ("-m", "repro.analysis", "check"), ROOT),
        DeclaredRun(
            "analysis check (CI form)",
            ("-m", "repro.analysis", "check", "--format", "json",
             "--output", str(scratch / "analysis-report.json")),
            ROOT,
        ),
        DeclaredRun("pytest -m chaos", ("-m", "pytest", "-q", "-p", "no:cacheprovider", "-m", "chaos"), ROOT),
    ]
    return runs


def record(runs: list[DeclaredRun], out: Path) -> set[EntryKey]:
    """Run each declared run under the recorder; the union of their entries.

    Raises :class:`RuntimeError` naming the first run that fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SITE_DIR), str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["REPRO_CENSUS_OUT"] = str(out)
    env["REPRO_CENSUS_PREFIX"] = str(ROOT / SCANNED) + os.sep
    for run in runs:
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *run.argv], cwd=run.cwd, env=env,
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
        print(f"census: {run.name}: exit {done.returncode} "
              f"in {time.perf_counter() - started:.1f}s", file=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"declared run {run.name!r} failed:\n{done.stdout[-2000:]}"
                               f"{done.stderr[-2000:]}")
    return read_entries(out.glob("entries-*.tsv"))


def read_entries(files: Iterable[Path]) -> set[EntryKey]:
    """Parse recorder files (absolute paths) into repo-relative entry keys."""
    entries: set[EntryKey] = set()
    for file in files:
        for line in file.read_text().splitlines():
            path, lineno, name = line.split("\t")
            relative = Path(path).resolve().relative_to(ROOT).as_posix()
            entries.add((relative, int(lineno), name))
    return entries


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python tools/census.py", description=__doc__.split("\n")[0])
    parser.add_argument("--format", choices=("human", "json"), default="human")
    parser.add_argument("--output", type=Path, help="also write the JSON report here")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--entries", type=Path, help="judge this saved entry set; run nothing")
    source.add_argument("--save-entries", type=Path, help="write the recorded entry set here")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    baseline = Baseline.load(ROOT / BASELINE_FILENAME)
    runs: list[str] = []
    if args.entries is not None:
        entries = read_entries([args.entries])
    else:
        with tempfile.TemporaryDirectory(prefix="census-") as scratch:
            out = Path(scratch) / "entries"
            out.mkdir()
            declared = declared_runs(Path(scratch))
            runs = [run.name for run in declared]
            try:
                entries = record(declared, out)
            except (RuntimeError, subprocess.TimeoutExpired) as error:
                print(f"census: {error}", file=sys.stderr)
                return 2
        if args.save_entries is not None:
            args.save_entries.write_text(
                "".join(f"{ROOT / path}\t{line}\t{name}\n" for path, line, name in sorted(entries))
            )
    tree = ProjectTree.load(ROOT, (SCANNED,), documents=())
    report = run_checkers(tree, [CensusChecker(entries)], baseline)
    total = sum(len(definitions(module.tree)) for module in tree.modules)
    summary = {
        "runs": runs,
        "functions": total,
        "never_entered": len(report.findings) + len(report.suppressed),
    }
    payload = json.dumps({**report.to_dict(), "census": summary}, indent=2, sort_keys=True)
    if args.output is not None:
        args.output.write_text(payload + "\n")
    if args.format == "json":
        print(payload)
    else:
        print(report.render())
        print(f"census: {total - summary['never_entered']} of {total} functions entered"
              + (f" by {len(runs)} declared runs" if runs else ""))
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
