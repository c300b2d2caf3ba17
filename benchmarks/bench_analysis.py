"""Benchmark of the `repro.analysis` full-tree invariant check.

The AST checker suite runs in CI on every push and (via the golden test)
inside the default pytest suite, so its cost is paid constantly: this
benchmark pins the full-tree RA01-RA06 run -- load + parse of every module
under ``src/`` plus all six checkers plus baseline matching -- under a
hard wall-clock budget so the tool stays cheap enough to gate commits.

Record/compare a baseline with::

    PYTHONPATH=src python -m pytest benchmarks/bench_analysis.py \
        --benchmark-json=BENCH_perf.json -q
"""

from pathlib import Path

import pytest

from repro.analysis import Baseline, ProjectTree, run_checkers
from repro.analysis.core import BASELINE_FILENAME

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Hard budget for one cold full-tree check (load + parse + all checkers).
#: Generous versus the observed time so runner jitter never flakes the CI
#: job, but far below the point where developers would stop running it.
FULL_TREE_BUDGET_S = 10.0


def run_full_check():
    tree = ProjectTree.load(REPO_ROOT)
    baseline = Baseline.parse(
        (REPO_ROOT / BASELINE_FILENAME).read_text(encoding="utf-8")
    )
    return tree, run_checkers(tree, baseline=baseline)


def test_full_tree_check_under_budget(benchmark):
    tree, report = benchmark(run_full_check)

    assert report.clean, "\n" + report.render()
    stats = benchmark.stats.stats
    assert stats.max < FULL_TREE_BUDGET_S, (
        f"full-tree analysis took {stats.max:.2f}s (budget {FULL_TREE_BUDGET_S}s)"
    )

    benchmark.extra_info["modules_scanned"] = len(tree.modules)
    benchmark.extra_info["suppressed_findings"] = len(report.suppressed)
    benchmark.extra_info["budget_s"] = FULL_TREE_BUDGET_S
