"""AST-based invariant checker suite (rules RA01-RA07).

Mechanically enforces the repo's load-bearing conventions -- broker lock
discipline, the stable error taxonomy, byte-determinism of hashed paths,
versioned DTO wire round-trips, executor submission safety, the one HiGHS
entry point and the epoch journal's declared writers -- over the parsed
source tree.  See DESIGN.md, "Static analysis
& enforced invariants".

CLI: ``python -m repro.analysis check`` (non-zero exit on un-baselined
findings) and ``python -m repro.analysis list-rules``.
"""

from repro.analysis.core import (
    BASELINE_FILENAME,
    Baseline,
    BaselineEntry,
    Checker,
    CheckReport,
    Finding,
    ProjectTree,
    SourceModule,
    default_checkers,
    run_checkers,
)

__all__ = [
    "BASELINE_FILENAME",
    "Baseline",
    "BaselineEntry",
    "Checker",
    "CheckReport",
    "Finding",
    "ProjectTree",
    "SourceModule",
    "default_checkers",
    "run_checkers",
]
