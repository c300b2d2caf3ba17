"""``python -m repro.analysis`` -- the invariant checker CLI.

Subcommands:

``check``
    Run every rule (RA01-RA07) over the tree, apply the committed
    ``analysis-baseline.toml`` allowlist, and print findings.  Exit status:
    0 when clean, 1 when any un-baselined finding or stale baseline entry
    remains, 2 on usage errors.  ``--format json`` emits the machine form
    (what the CI job uploads as its failure artifact); ``--output`` writes
    it to a file as well.

``list-rules``
    Print the rule table (code, title, enforced contract).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.core import (
    BASELINE_FILENAME,
    Baseline,
    ProjectTree,
    default_checkers,
    run_checkers,
)

#: Default scan roots, relative to the repo root.
DEFAULT_PATHS = ("src",)


def _find_repo_root(start: Path) -> Path:
    """Walk up from ``start`` to the first directory holding the baseline
    file or a ``src/repro`` package; fall back to ``start`` itself."""
    for candidate in (start, *start.parents):
        if (candidate / BASELINE_FILENAME).is_file() or (
            candidate / "src" / "repro"
        ).is_dir():
            return candidate
    return start


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant checker suite (rules RA01-RA07)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run every rule over the tree")
    check.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files/directories to scan, relative to --root (default: {DEFAULT_PATHS})",
    )
    check.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repo root (default: walk up from the cwd to the baseline file)",
    )
    check.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"allowlist file (default: <root>/{BASELINE_FILENAME})",
    )
    check.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    check.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the JSON report to this file (any --format)",
    )

    sub.add_parser("list-rules", help="print the rule table")
    return parser


def _cmd_check(args: argparse.Namespace) -> int:
    root = args.root if args.root is not None else _find_repo_root(Path.cwd())
    root = root.resolve()
    for entry in args.paths:
        if not (root / entry).exists():
            print(f"error: path {entry!r} does not exist under {root}", file=sys.stderr)
            return 2
    baseline_path = (
        args.baseline if args.baseline is not None else root / BASELINE_FILENAME
    )
    try:
        baseline = Baseline.load(baseline_path)
    except (ValueError, OSError) as error:
        print(f"error: cannot load baseline {baseline_path}: {error}", file=sys.stderr)
        return 2
    tree = ProjectTree.load(root, tuple(args.paths))
    report = run_checkers(tree, baseline=baseline)
    if args.output is not None:
        args.output.write_text(report.to_json() + "\n")
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.clean else 1


def _cmd_list_rules() -> int:
    for checker in default_checkers():
        print(f"{checker.rule}  {checker.title}")
        print(f"       {checker.description}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return _cmd_check(args)
    return _cmd_list_rules()
