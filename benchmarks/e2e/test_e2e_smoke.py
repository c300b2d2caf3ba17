"""Smoke test of the end-to-end benchmark: every workload, untraced and
traced, at a few ops per pass.  It checks that the benchmark still runs
against the program and still speaks the result contract -- it asserts no
timing of any kind.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
SMOKE_OPS = {"online_week": 4, "churn_replay": 4, "cold_sweep": 4, "wire_mixed": 2}
CASES = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]


def _spans_module():
    spec = importlib.util.spec_from_file_location("e2e_spans", HERE / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every case run once, two at a time (nothing here is timed)."""
    out = tmp_path_factory.mktemp("e2e")

    def one(case):
        workload, trace = case
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", "1", "--ops", str(SMOKE_OPS[workload]), "--trace", str(trace),
        ]
        if trace:
            command += ["--spans-out", str(out / f"{workload}.spans.json")]
        return subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=out)

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(CASES, pool.map(one, CASES))), out


@pytest.mark.parametrize("workload,trace", CASES)
def test_result_object(runs, workload, trace):
    if workload == "wire_mixed" and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("wire_mixed needs two CPUs")
    done = runs[0][(workload, trace)]
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"], entry["name"]
        assert math.isfinite(metric["value"]), entry["name"]


@pytest.mark.parametrize("workload", ["online_week", "churn_replay"])
def test_spans_are_balanced(runs, workload):
    """Inside ``advance_epoch`` the self times of all spans add up to the
    span itself: children lie inside their parents and do not overlap."""
    spans = _spans_module()
    recorded = json.loads((runs[1] / f"{workload}.spans.json").read_text())
    assert recorded["spans"], "a traced run wrote no spans"
    for rows in recorded["spans"]:
        whole, parts = spans.subtree_self_seconds(rows, "api.broker.advance_epoch")
        assert whole > 0
        assert abs(parts - whole) <= 0.05 * whole


def test_stamp_and_digest(runs):
    """Every run says where it ran and what its passes decided."""
    for (workload, trace), done in runs[0].items():
        if done.returncode != 0:
            continue
        report_line = done.stdout.strip().splitlines()[-2]
        assert report_line.startswith("REPORT "), (workload, trace)
        report = json.loads(report_line.removeprefix("REPORT "))
        assert len(report["digest"]) == 1, (workload, trace)
        for key in ("nproc", "affinity", "thread_caps", "python", "numpy", "scipy",
                    "git_commit", "git_dirty", "seed", "seconds", "passes"):
            assert key in report["stamp"], key
