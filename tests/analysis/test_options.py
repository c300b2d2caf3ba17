"""Every option has a caller.

An *option* is a parameter with a default value of one of the classes and
methods in :data:`SURFACE` (for a dataclass: a field the constructor takes
with a default).  Each must be set to a non-default value somewhere in
``src/``, ``benchmarks/``, ``examples/`` or ``tools/`` -- or be listed in
:data:`KEPT` with the reason it stays although only tests set it.  Anything
else is a knob for nobody: make it a module constant at its default.

A call site *sets* an option when it passes it (by keyword, or by position
to a class) as anything but a literal equal to the default;
``dataclasses.replace(..., name=value)`` and ``obj.name = value`` set a
dataclass field of that name.  Method calls are matched by keyword on
``.run(...)``, since a receiver's type is not known to an AST scan.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from repro.api.broker import SliceBroker
from repro.api.server import BrokerServer
from repro.controlplane.orchestrator import E2EOrchestrator, ForecastingBlock, OrchestratorConfig
from repro.core.baseline import NoOverbookingSolver
from repro.core.benders import BendersSolver, CutPool
from repro.core.kac import KACSolver
from repro.core.milp_solver import DirectMILPSolver
from repro.core.problem import ProblemOptions
from repro.experiments.campaign import Campaign
from repro.faults.safeguard import HealthMonitor, SafeguardedSolver
from repro.simulation.engine import SimulationEngine

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Where a caller counts.  ``tests/`` does not.
CALLER_DIRS = ("src", "benchmarks", "examples", "tools")

#: The configuration surface under the rule: classes (their constructor)
#: and the two sweep entry points.
SURFACE = (
    BendersSolver,
    DirectMILPSolver,
    NoOverbookingSolver,
    KACSolver,
    CutPool,
    ProblemOptions,
    OrchestratorConfig,
    E2EOrchestrator,
    ForecastingBlock,
    SliceBroker,
    BrokerServer,
    SafeguardedSolver,
    HealthMonitor,
    Campaign.run,
    SimulationEngine.run,
)

#: Options that stay although no code outside ``tests/`` sets them, each
#: with its reason.  The one list: DESIGN.md "Configuration surface" names
#: the kinds, this names the options.
KEPT = {
    "E2EOrchestrator.forecasting": "tests inject counting forecasters (forecast soak)",
    "ForecastingBlock.fallback": "tests inject a counting fallback tier (forecast soak)",
    "SafeguardedSolver.baseline": "tests substitute a baseline that drops committed slices",
    "SliceBroker.max_pending": "deployment setting: intake backpressure bound",
    "BrokerServer.host": "deployment setting: the address the service binds",
    "BrokerServer.port": "deployment setting: the port the service binds (0: ephemeral)",
    "BrokerServer.max_batch": "deployment setting: largest accepted batch",
    "BrokerServer.event_retention": "deployment setting: event-log memory bound",
    "BendersSolver.multi_cut": (
        "inert; benchmarks/e2e/ passes it, and it goes with that directory's next edit"
    ),
}


def _options(target) -> dict[str, object]:
    """Option name -> default, in signature order."""
    if dataclasses.is_dataclass(target):
        return {
            field.name: field.default
            if field.default is not dataclasses.MISSING
            else field.default_factory
            for field in dataclasses.fields(target)
            if field.init
            and (
                field.default is not dataclasses.MISSING
                or field.default_factory is not dataclasses.MISSING
            )
        }
    signature = inspect.signature(target.__init__ if inspect.isclass(target) else target)
    return {
        name: parameter.default
        for name, parameter in signature.parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }


def _positional_names(target) -> list[str]:
    """Parameters a positional argument of a constructor call binds, in order."""
    if dataclasses.is_dataclass(target):
        return [field.name for field in dataclasses.fields(target) if field.init]
    signature = inspect.signature(target.__init__)
    return [
        name
        for name, parameter in list(signature.parameters.items())[1:]
        if parameter.kind in (parameter.POSITIONAL_ONLY, parameter.POSITIONAL_OR_KEYWORD)
    ]


def _is_default(node: ast.expr, default) -> bool:
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return False
    return type(value) is type(default) and value == default


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def set_options(sources: list[str]) -> set[str]:
    """Every ``Target.option`` the module ``sources`` set to a non-default
    value."""
    classes = {target.__name__: target for target in SURFACE if inspect.isclass(target)}
    methods = [target for target in SURFACE if not inspect.isclass(target)]
    dataclass_fields: dict[str, list[str]] = {}
    for name, target in classes.items():
        if dataclasses.is_dataclass(target):
            for option in _options(target):
                dataclass_fields.setdefault(option, []).append(name)
    found: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        for owner in dataclass_fields.get(target.attr, ()):
                            found.add(f"{owner}.{target.attr}")
                continue
            if not isinstance(node, ast.Call):
                continue
            called = _called_name(node)
            if called in classes:
                target = classes[called]
                options = _options(target)
                passed = [
                    *zip(_positional_names(target), node.args, strict=False),
                    *((keyword.arg, keyword.value) for keyword in node.keywords),
                ]
                for name, value in passed:
                    if name in options and not _is_default(value, options[name]):
                        found.add(f"{called}.{name}")
            elif called == "replace":
                for keyword in node.keywords:
                    for owner in dataclass_fields.get(keyword.arg, ()):
                        found.add(f"{owner}.{keyword.arg}")
            elif called == "run":
                for method in methods:
                    options = _options(method)
                    for keyword in node.keywords:
                        if keyword.arg in options and not _is_default(
                            keyword.value, options[keyword.arg]
                        ):
                            found.add(f"{method.__qualname__}.{keyword.arg}")
    return found


def declared_options() -> set[str]:
    return {
        f"{target.__qualname__}.{option}" for target in SURFACE for option in _options(target)
    }


@pytest.fixture(scope="module")
def callers() -> set[str]:
    return set_options(
        [
            path.read_text()
            for directory in CALLER_DIRS
            for path in sorted((REPO_ROOT / directory).rglob("*.py"))
        ]
    )


def test_every_option_has_a_caller_or_a_reason(callers):
    orphans = sorted(declared_options() - callers - set(KEPT))
    assert orphans == [], (
        "options no code outside tests/ sets: make each a module constant at "
        f"its default, or keep it in KEPT with a reason: {orphans}"
    )


def test_the_kept_list_holds_only_options_without_a_caller(callers):
    stale = sorted(name for name in KEPT if name not in declared_options() or name in callers)
    assert stale == [], f"KEPT entries that are gone or have a caller now: {stale}"
    assert all(reason.strip() for reason in KEPT.values())


class TestScanner:
    """The rule's matcher on small sources."""

    def test_a_keyword_or_positional_non_default_sets_an_option(self):
        found = set_options(
            [
                "BendersSolver(max_iterations=150)\n"
                "x.DirectMILPSolver(None)\n"
                "BrokerServer(broker, '0.0.0.0')\n"
            ]
        )
        assert found == {
            "BendersSolver.max_iterations",
            "DirectMILPSolver.time_limit_s",
            "BrokerServer.host",
        }

    def test_a_literal_default_sets_nothing(self):
        found = set_options(
            ["BendersSolver(max_iterations=200, warm_start=True)\nSliceBroker(t, s)\n"]
        )
        assert found == set()

    def test_replace_and_attribute_assignment_set_dataclass_fields(self):
        found = set_options(
            ["replace(config, reuse_unchanged_decisions=False)\nblock.fault_hook = f\n"]
        )
        assert found == {
            "OrchestratorConfig.reuse_unchanged_decisions",
            "ForecastingBlock.fault_hook",
        }

    def test_run_keywords_match_the_sweep_entry_points(self):
        found = set_options(["campaign.run(workers=2)\nengine.run(False)\n"])
        assert found == {"Campaign.run.workers"}
