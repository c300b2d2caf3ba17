"""FaultInjector semantics: deterministic firing, budgets, attempts, links."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.benders import BendersSolver, CutPool
from repro.faults import (
    HOOK_FORECAST,
    HOOK_SOLVER,
    HOOK_TOPOLOGY,
    ChaosSolver,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    SolverBudgetExceededError,
    TransientSolverError,
)
from repro.utils.journal import declared_state
from tests.conftest import build_tiny_topology


def solver_fault(kind: FaultKind, epoch: int = 0, times: int = 1) -> FaultSpec:
    return FaultSpec(hook=HOOK_SOLVER, epoch=epoch, kind=kind, times=times)


class TestFiring:
    def test_fire_covers_consecutive_invocations_in_plan_order(self):
        plan = FaultPlan.of(
            solver_fault(FaultKind.TRANSIENT, times=2),
            solver_fault(FaultKind.BUDGET, times=1),
        )
        injector = FaultInjector(plan)
        injector.begin_epoch(0)
        kinds = [getattr(injector.fire(HOOK_SOLVER), "kind", None) for _ in range(4)]
        assert kinds == [
            FaultKind.TRANSIENT,
            FaultKind.TRANSIENT,
            FaultKind.BUDGET,
            None,
        ]

    def test_faults_anchor_to_the_current_epoch(self):
        plan = FaultPlan.of(solver_fault(FaultKind.CRASH, epoch=1))
        injector = FaultInjector(plan)
        injector.begin_epoch(0)
        assert injector.fire(HOOK_SOLVER) is None
        injector.begin_epoch(1)
        assert injector.fire(HOOK_SOLVER).kind is FaultKind.CRASH

    @pytest.mark.parametrize(
        "kind,expected",
        [
            (FaultKind.TRANSIENT, TransientSolverError),
            (FaultKind.BUDGET, SolverBudgetExceededError),
            (FaultKind.CRASH, InjectedFaultError),
        ],
        ids=lambda value: getattr(value, "value", getattr(value, "__name__", value)),
    )
    def test_enact_raises_the_kind_specific_exception(self, kind, expected):
        injector = FaultInjector(FaultPlan.of(solver_fault(kind)))
        injector.begin_epoch(0)
        with pytest.raises(expected):
            injector.enact(HOOK_SOLVER)

    def test_enact_is_a_no_op_without_a_covering_spec(self):
        injector = FaultInjector(FaultPlan.empty())
        injector.begin_epoch(0)
        injector.enact(HOOK_SOLVER)
        injector.enact(HOOK_FORECAST)
        assert injector.fired == []


class TestAttemptAccounting:
    def test_fired_in_attempt_excludes_a_rolled_back_attempt(self):
        plan = FaultPlan.of(
            FaultSpec(hook=HOOK_FORECAST, epoch=1, kind=FaultKind.CRASH)
        )
        injector = FaultInjector(plan)
        injector.begin_epoch(1)
        with pytest.raises(InjectedFaultError):
            injector.enact(HOOK_FORECAST)
        # The epoch is retried: a fresh attempt starts, the fault's budget is
        # spent, so the retry is clean -- and its report must not inherit the
        # first attempt's fault.
        injector.begin_epoch(1)
        injector.enact(HOOK_FORECAST)
        assert injector.fired_in_attempt() == []
        assert len(injector.fired_in_epoch(1)) == 1

    def test_fired_in_epoch_spans_all_attempts(self):
        plan = FaultPlan.of(
            FaultSpec(hook=HOOK_FORECAST, epoch=0, kind=FaultKind.CRASH, times=2)
        )
        injector = FaultInjector(plan)
        for _ in range(2):
            injector.begin_epoch(0)
            with pytest.raises(InjectedFaultError):
                injector.enact(HOOK_FORECAST)
        assert len(injector.fired_in_epoch(0)) == 2
        assert len(injector.fired_in_attempt()) == 1


class TestLinkFaults:
    def link_plan(self, **params) -> FaultPlan:
        params.setdefault("factor", 0.5)
        return FaultPlan.of(
            FaultSpec(
                hook=HOOK_TOPOLOGY, epoch=1, kind=FaultKind.LINK_DOWN, params=params
            ),
            seed=5,
        )

    def test_explicit_links_resolve_verbatim_with_normalised_keys(self):
        topology = build_tiny_topology()
        plan = self.link_plan(links=[["sw", "bs-0"]])
        injector = FaultInjector(plan)
        assert injector.link_faults(1, topology) == [(("bs-0", "sw"), 0.5)]
        assert injector.fired_in_epoch(1)[0].hook == HOOK_TOPOLOGY

    def test_fractional_specs_resolve_deterministically(self):
        topology = build_tiny_topology()
        plan = self.link_plan(fraction=0.5)
        first = FaultInjector(plan).link_faults(1, topology)
        second = FaultInjector(plan).link_faults(1, topology)
        assert first == second
        assert len(first) == 2  # ceil(0.5 * 4 links)
        valid_keys = {link.key for link in topology.links}
        assert {key for key, _ in first} <= valid_keys

    def test_seed_steers_fractional_link_choice(self):
        topology = build_tiny_topology(num_base_stations=6)
        spec = FaultSpec(
            hook=HOOK_TOPOLOGY,
            epoch=1,
            kind=FaultKind.LINK_DOWN,
            params={"factor": 0.5, "fraction": 0.3},
        )
        picks = {
            tuple(FaultInjector(FaultPlan.of(spec, seed=seed)).link_faults(1, topology))
            for seed in range(8)
        }
        assert len(picks) > 1

    def test_resolution_is_idempotent_per_epoch(self):
        # A rolled-back epoch's retry calls link_faults again; resolving the
        # same specs twice would damage the topology twice.
        topology = build_tiny_topology()
        injector = FaultInjector(self.link_plan(links=[["bs-0", "sw"]]))
        assert injector.link_faults(1, topology)
        assert injector.link_faults(1, topology) == []
        assert len(injector.fired_in_epoch(1)) == 1


class TestChaosSolver:
    class Recorder:
        def __init__(self):
            self.solved = []

        def solve(self, problem):
            self.solved.append(problem)
            return "decision"

    def test_proxies_solve_and_injects_solver_faults(self):
        inner = self.Recorder()
        injector = FaultInjector(FaultPlan.of(solver_fault(FaultKind.CRASH)))
        proxy = ChaosSolver(inner, injector)
        injector.begin_epoch(0)
        with pytest.raises(InjectedFaultError):
            proxy.solve("problem")
        assert inner.solved == []  # the fault fires before the real solve
        assert proxy.solve("problem") == "decision"
        assert inner.solved == ["problem"]

    def test_the_inner_solvers_state_is_declared_through_the_proxy(self):
        inner = BendersSolver()
        proxy = ChaosSolver(inner, FaultInjector(FaultPlan.empty()))
        paths = [path for path, _ in declared_state(proxy)]
        assert paths == [f"inner.cut_pool.{name}" for name in CutPool.JOURNALED]
        inner.cut_pool.record(("k",), 4, [(np.zeros(4), None)], np.zeros(2))
        assert dict(declared_state(proxy))["inner.cut_pool._slot"] is inner.cut_pool._slot

    def test_tolerates_inner_solvers_without_declared_state(self):
        class Bare:
            def solve(self, problem):
                return problem

        proxy = ChaosSolver(Bare(), FaultInjector(FaultPlan.empty()))
        assert list(declared_state(proxy)) == []
