"""Framework-level tests of repro.analysis: findings, baseline, CLI."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    Finding,
    ProjectTree,
    default_checkers,
    run_checkers,
)
from repro.analysis.core import Checker

REPO_ROOT = Path(__file__).resolve().parents[2]


class _OneShotChecker(Checker):
    """Test double: fires one fixed finding per module."""

    rule = "RA99"
    title = "test rule"
    description = "fires once per module"

    def check(self, tree):
        for module in tree.modules:
            yield Finding(
                rule=self.rule,
                path=module.path,
                line=1,
                symbol="<module>",
                message="synthetic finding",
            )


class TestFindings:
    def test_render_is_file_line_addressable(self):
        finding = Finding("RA01", "src/x.py", 12, "Cls.meth", "broke the rule")
        assert finding.render() == "src/x.py:12: RA01 [Cls.meth] broke the rule"

    def test_key_ignores_line(self):
        a = Finding("RA01", "src/x.py", 12, "Cls.meth", "m1")
        b = Finding("RA01", "src/x.py", 99, "Cls.meth", "m2")
        assert a.key == b.key

    def test_report_sorts_deterministically(self):
        tree = ProjectTree.from_sources({"b.py": "x = 1", "a.py": "y = 2"})
        report = run_checkers(tree, checkers=[_OneShotChecker()])
        assert [f.path for f in report.findings] == ["a.py", "b.py"]


class TestBaseline:
    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            Baseline.parse('[[suppress]]\nrule = "RA01"\npath = "x.py"\n')

    def test_empty_reason_rejected(self):
        text = (
            '[[suppress]]\nrule = "RA01"\npath = "x.py"\n'
            'symbol = "f"\nreason = "  "\n'
        )
        with pytest.raises(ValueError, match="justification"):
            Baseline.parse(text)

    def test_entry_suppresses_matching_finding(self):
        tree = ProjectTree.from_sources({"a.py": "x = 1"})
        baseline = Baseline(
            [BaselineEntry("RA99", "a.py", "<module>", "grandfathered for the test")]
        )
        report = run_checkers(tree, checkers=[_OneShotChecker()], baseline=baseline)
        assert report.clean
        assert len(report.suppressed) == 1

    def test_stale_entry_is_an_error(self):
        tree = ProjectTree.from_sources({"a.py": "x = 1"})
        baseline = Baseline(
            [
                BaselineEntry("RA99", "a.py", "<module>", "used"),
                BaselineEntry("RA99", "a.py", "gone_function", "stale"),
            ]
        )
        report = run_checkers(tree, checkers=[_OneShotChecker()], baseline=baseline)
        assert not report.clean
        assert [e.symbol for e in report.stale_entries] == ["gone_function"]
        assert "STALE-BASELINE" in report.render()

    def test_entry_for_unscanned_file_is_not_judged_stale(self):
        tree = ProjectTree.from_sources({"a.py": "x = 1"})
        baseline = Baseline(
            [BaselineEntry("RA99", "other/b.py", "<module>", "out of scope")]
        )
        report = run_checkers(tree, checkers=[_OneShotChecker()], baseline=baseline)
        assert report.stale_entries == []


class TestReportShapes:
    def test_json_shape(self):
        tree = ProjectTree.from_sources({"a.py": "x = 1"})
        report = run_checkers(tree, checkers=[_OneShotChecker()])
        payload = json.loads(report.to_json())
        assert payload["clean"] is False
        assert payload["findings"][0] == {
            "rule": "RA99",
            "path": "a.py",
            "line": 1,
            "symbol": "<module>",
            "message": "synthetic finding",
        }
        assert payload["stale_baseline_entries"] == []

    def test_clean_render_mentions_suppressed_count(self):
        tree = ProjectTree.from_sources({})
        report = run_checkers(tree, checkers=[_OneShotChecker()])
        assert "clean" in report.render()


class TestDefaultCheckers:
    def test_all_rules_registered_in_order(self):
        assert [c.rule for c in default_checkers()] == [
            "RA01",
            "RA02",
            "RA03",
            "RA04",
            "RA05",
            "RA06",
            "RA07",
        ]

    def test_rules_carry_title_and_description(self):
        for checker in default_checkers():
            assert checker.title
            assert checker.description


class TestCli:
    def _run(self, *argv: str, cwd: Path = REPO_ROOT):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *argv],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_check_clean_tree_exits_zero(self):
        result = self._run("check")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_check_json_format(self):
        result = self._run("check", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["clean"] is True
        assert payload["findings"] == []

    def test_check_writes_output_file(self, tmp_path):
        out = tmp_path / "findings.json"
        result = self._run("check", "--output", str(out))
        assert result.returncode == 0
        assert json.loads(out.read_text())["clean"] is True

    def test_check_unknown_path_is_usage_error(self):
        result = self._run("check", "no/such/dir")
        assert result.returncode == 2

    def test_list_rules(self):
        result = self._run("list-rules")
        assert result.returncode == 0
        for rule in ("RA01", "RA02", "RA03", "RA04", "RA05", "RA06"):
            assert rule in result.stdout
