"""Tests of the reachability census (``tools/census.py``).

The census itself runs every declared run (minutes); these tests drive its
parts on a small fixture tree with a synthetic entry set, plus one real
recording of a fixture module through the ``sitecustomize`` recorder.
"""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Baseline, BaselineEntry, ProjectTree, run_checkers

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_census():
    spec = importlib.util.spec_from_file_location("census", REPO_ROOT / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


census = _load_census()

PATH = "src/repro/fixture.py"

FIXTURE = '''\
import functools


def entered():
    return 1


def never_entered():
    return 2


@functools.lru_cache(
    maxsize=None,
)
def decorated():
    return 3


class Holder:
    def method(self):
        def inner():
            return 4
        return inner()

    async def waiting(self):
        return 5

    def declared(self):
        """An interface stub."""
        raise NotImplementedError

    def ellipsis(self): ...
'''

#: What a run that calls everything but ``never_entered`` records.
ALL_BUT_ONE = {
    (PATH, 4, "entered"),
    (PATH, 12, "decorated"),
    (PATH, 20, "method"),
    (PATH, 21, "inner"),
    (PATH, 25, "waiting"),
}


def check(entries, baseline=None):
    tree = ProjectTree.from_sources({PATH: FIXTURE})
    return run_checkers(tree, [census.CensusChecker(entries)], baseline)


def entry(symbol):
    return BaselineEntry("RC01", PATH, symbol, "kept on purpose; tests/x.py::test_y enters it")


class TestFindings:
    def test_a_never_entered_function_is_exactly_one_finding(self):
        report = check(ALL_BUT_ONE)
        assert [(f.rule, f.path, f.line, f.symbol) for f in report.findings] == [
            ("RC01", PATH, 8, "never_entered")
        ]

    def test_an_entered_function_is_no_finding(self):
        assert check(ALL_BUT_ONE | {(PATH, 8, "never_entered")}).clean

    def test_symbols_are_scope_qualnames(self):
        symbols = {f.symbol for f in check(set()).findings}
        assert symbols == {
            "entered", "never_entered", "decorated", "Holder.method",
            "Holder.method.inner", "Holder.waiting",
        }

    def test_a_decorated_function_matches_on_its_first_decorator_line(self):
        on_def_line = (ALL_BUT_ONE - {(PATH, 12, "decorated")}) | {(PATH, 15, "decorated")}
        assert [f.symbol for f in check(on_def_line).findings] == ["never_entered", "decorated"]

    def test_a_nested_function_matches_on_its_own_line(self):
        moved = (ALL_BUT_ONE - {(PATH, 21, "inner")}) | {(PATH, 20, "inner")}
        assert "Holder.method.inner" in {f.symbol for f in check(moved).findings}

    def test_interface_stubs_are_not_counted(self):
        tree = ProjectTree.from_sources({PATH: FIXTURE})
        names = [node.name for node, _ in census.definitions(tree.modules[0].tree)]
        assert "declared" not in names and "ellipsis" not in names


class TestBaseline:
    def test_a_baselined_finding_is_suppressed(self):
        report = check(ALL_BUT_ONE, Baseline([entry("never_entered")]))
        assert report.clean
        assert [f.symbol for f in report.suppressed] == ["never_entered"]

    def test_an_entry_for_an_entered_function_is_stale(self):
        report = check(ALL_BUT_ONE, Baseline([entry("never_entered"), entry("entered")]))
        assert not report.clean
        assert [e.symbol for e in report.stale_entries] == ["entered"]

    def test_an_entry_for_a_deleted_function_is_stale(self):
        report = check(ALL_BUT_ONE, Baseline([entry("never_entered"), entry("gone")]))
        assert [e.symbol for e in report.stale_entries] == ["gone"]


class TestRecorder:
    def test_a_recorded_run_matches_its_defs(self, tmp_path):
        module = tmp_path / "fixture.py"
        module.write_text(FIXTURE)
        out = tmp_path / "entries"
        out.mkdir()
        script = (
            "import asyncio, fixture\n"
            "fixture.entered(); fixture.decorated(); fixture.Holder().method()\n"
            "asyncio.run(fixture.Holder().waiting())\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(census.SITE_DIR), str(tmp_path)]),
            REPRO_CENSUS_OUT=str(out),
            REPRO_CENSUS_PREFIX=str(tmp_path) + os.sep,
        )
        subprocess.run([sys.executable, "-c", script], env=env, check=True, cwd=tmp_path)
        (recorded,) = out.glob("entries-*.tsv")
        entries = set()
        for line in recorded.read_text().splitlines():
            file, lineno, name = line.split("\t")
            if Path(file).name == "fixture.py":
                entries.add((PATH, int(lineno), name))
        assert entries >= ALL_BUT_ONE
        assert [f.symbol for f in check(entries).findings] == ["never_entered"]

    def test_the_recorder_is_off_without_an_output_directory(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(census.SITE_DIR))
        env.pop("REPRO_CENSUS_OUT", None)
        done = subprocess.run(
            [sys.executable, "-c", "import sys; print(sys.getprofile())"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == "None"


class TestCommittedBaseline:
    @pytest.fixture(scope="class")
    def baseline(self):
        return Baseline.load(REPO_ROOT / census.BASELINE_FILENAME)

    def test_every_entry_is_an_rc01_entry_for_a_counted_function(self, baseline):
        tree = ProjectTree.load(REPO_ROOT, (census.SCANNED,), documents=())
        counted = {
            (module.path, symbol)
            for module in tree.modules
            for _, symbol in census.definitions(module.tree)
        }
        assert baseline.entries
        for item in baseline.entries:
            assert item.rule == "RC01"
            assert (item.path, item.symbol) in counted, item

    def test_every_reason_names_a_test_that_exists(self, baseline):
        for item in baseline.entries:
            named = re.findall(r"tests/[\w/]+\.py", item.reason)
            assert named, f"{item.symbol}: the reason names no test"
            for path in named:
                assert (REPO_ROOT / path).is_file(), f"{item.symbol}: {path} does not exist"
