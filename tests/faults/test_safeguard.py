"""SafeguardedSolver chain and HealthMonitor state machine."""

from __future__ import annotations

import copy

import pytest

from repro.core.baseline import NoOverbookingSolver
from repro.core.forecast_inputs import ForecastInput
from repro.core.milp_solver import DirectMILPSolver
from repro.core.problem import ACRRProblem
from repro.core.solution import OrchestrationDecision, SolverStats, TenantAllocation
from repro.faults import (
    TIER_NO_OVERBOOKING,
    TIER_PRIMARY,
    TIER_REJECT_ALL,
    TIER_WARM_REPLAY,
    BrokerHealth,
    HealthMonitor,
    SafeguardedSolver,
    SolverBudgetExceededError,
    TransientSolverError,
)
from repro.faults.safeguard import MAX_RETRIES, PROBE_INTERVAL, RECOVERY_EPOCHS
from repro.scenarios import decision_fingerprint
from repro.topology.generators import degrade_link_capacities
from repro.topology.paths import compute_path_sets
from repro.utils.journal import Journal, declared_state
from tests.conftest import low_load_forecasts


class FlakyPrimary:
    """DirectMILPSolver wrapper that raises a scripted exception sequence."""

    def __init__(self, failures=()):
        self.inner = DirectMILPSolver()
        self.failures = list(failures)
        self.calls = 0

    def solve(self, problem):
        self.calls += 1
        if self.failures:
            raise self.failures.pop(0)
        return self.inner.solve(problem)


class TestChainTiers:
    def test_clean_solve_returns_the_primary_decision_untouched(self, mixed_problem):
        returned = []

        class Recording(FlakyPrimary):
            def solve(self, problem):
                decision = super().solve(problem)
                returned.append(decision)
                return decision

        chain = SafeguardedSolver(Recording())
        decision = chain.solve(mixed_problem)
        # Identity, not equality: the chain must not even restamp the stats,
        # so a zero-fault chained run is byte-identical to an unchained one.
        assert decision is returned[0]
        assert chain.health.state is BrokerHealth.HEALTHY

    def test_transient_failure_is_retried_on_the_primary_tier(self, mixed_problem):
        primary = FlakyPrimary([TransientSolverError("blip")])
        chain = SafeguardedSolver(primary)
        decision = chain.solve(mixed_problem)
        assert primary.calls == 2
        assert decision.stats.tier == TIER_PRIMARY
        assert decision.stats.retries == 1
        assert chain.health.state is BrokerHealth.DEGRADED

    def test_retry_exhaustion_matches_the_no_overbooking_oracle(self, mixed_problem):
        primary = FlakyPrimary([TransientSolverError("blip")] * (MAX_RETRIES + 1))
        chain = SafeguardedSolver(primary)
        decision = chain.solve(mixed_problem)
        assert primary.calls == MAX_RETRIES + 1
        assert decision.stats.tier == TIER_NO_OVERBOOKING
        assert decision.stats.retries == MAX_RETRIES
        assert "transient failures exhausted" in decision.stats.fallback_reason
        oracle = NoOverbookingSolver().solve(mixed_problem)
        assert decision_fingerprint(decision) == decision_fingerprint(oracle)

    def test_budget_exhaustion_is_never_retried(self, mixed_problem):
        primary = FlakyPrimary([SolverBudgetExceededError("no incumbent")])
        chain = SafeguardedSolver(primary)
        decision = chain.solve(mixed_problem)
        assert primary.calls == 1
        assert decision.stats.tier == TIER_NO_OVERBOOKING

    def test_slave_numerical_error_degrades_without_retry(self, mixed_problem):
        # The typed error the slave raises when its LP fails despite an
        # essentially-feasible phase-1 certificate (PR 7): deterministic, so
        # the chain must fall through to a conservative tier immediately
        # instead of burning retries on an identical re-solve.
        from repro.core.decomposition import SlaveNumericalError

        primary = FlakyPrimary([SlaveNumericalError("LP failed on feasible basis")])
        chain = SafeguardedSolver(primary)
        decision = chain.solve(mixed_problem)
        assert primary.calls == 1
        assert decision.stats.tier == TIER_NO_OVERBOOKING
        assert "LP failed on feasible basis" in decision.stats.fallback_reason

    def test_crash_after_a_certified_solve_replays_it(self, mixed_problem):
        primary = FlakyPrimary()
        chain = SafeguardedSolver(primary)
        certified = chain.solve(mixed_problem)
        primary.failures = [RuntimeError("simplex caught fire")]
        replayed = chain.solve(mixed_problem)
        assert replayed.stats.tier == TIER_WARM_REPLAY
        assert replayed.stats.message == "replayed last certified decision"
        assert replayed.stats.iterations == 0
        assert replayed.stats.runtime_s == 0.0
        assert "simplex caught fire" in replayed.stats.fallback_reason
        assert decision_fingerprint(replayed) == decision_fingerprint(certified)
        assert chain.health.state is BrokerHealth.DEGRADED

    def test_warm_replay_is_invalidated_by_topology_change(self, mixed_problem):
        primary = FlakyPrimary()
        chain = SafeguardedSolver(primary)
        chain.solve(mixed_problem)
        # Same requests, but the network lost capacity since certification:
        # the certified reservations are no longer provably feasible.
        damaged_topology = degrade_link_capacities(
            copy.deepcopy(mixed_problem.topology), [("bs-0", "sw")], 0.5
        )
        damaged = ACRRProblem(
            topology=damaged_topology,
            path_set=compute_path_sets(damaged_topology, k=3),
            requests=mixed_problem.requests,
            forecasts={r.name: mixed_problem.forecast(r.name) for r in mixed_problem.requests},
        )
        primary.failures = [RuntimeError("crash")]
        decision = chain.solve(damaged)
        assert decision.stats.tier == TIER_NO_OVERBOOKING

    def test_reject_all_when_the_baseline_drops_a_committed_slice(
        self, tiny_topology, tiny_path_set, mixed_requests
    ):
        class DroppingBaseline:
            def solve(self, problem):
                return OrchestrationDecision(
                    allocations={
                        request.name: TenantAllocation(
                            request=request, accepted=False, compute_unit=None
                        )
                        for request in problem.requests
                    },
                    objective_value=0.0,
                    stats=SolverStats(solver="dropper"),
                )

        committed = [mixed_requests[0].as_committed()] + mixed_requests[1:3]
        problem = ACRRProblem(
            topology=tiny_topology,
            path_set=tiny_path_set,
            requests=committed,
            forecasts=low_load_forecasts(committed),
        )
        chain = SafeguardedSolver(
            FlakyPrimary([RuntimeError("crash")]), baseline=DroppingBaseline()
        )
        decision = chain.solve(problem)
        assert decision.stats.tier == TIER_REJECT_ALL
        assert "baseline dropped a committed slice" in decision.stats.fallback_reason
        # Committed slices stay admitted with suspended reservations; every
        # uncommitted request is rejected.
        kept = decision.allocations[committed[0].name]
        assert kept.accepted
        assert kept.reservations_mbps == {}
        for request in committed[1:]:
            assert not decision.allocations[request.name].accepted
        assert chain.health.state is BrokerHealth.SAFE_MODE

    def test_safe_mode_skips_the_primary_until_the_probe(self, mixed_problem):
        primary = FlakyPrimary()
        chain = SafeguardedSolver(primary)
        chain.health.state = BrokerHealth.SAFE_MODE
        # The solves short of the probe go straight to reject-all.
        for _ in range(PROBE_INTERVAL - 1):
            decision = chain.solve(mixed_problem)
            assert decision.stats.tier == TIER_REJECT_ALL
            assert "awaiting recovery probe" in decision.stats.fallback_reason
        assert primary.calls == 0
        # The next solve is the recovery probe: the primary runs, succeeds,
        # and the chain leaves safe mode.
        decision = chain.solve(mixed_problem)
        assert primary.calls == 1
        assert decision.stats.tier == TIER_PRIMARY
        assert chain.health.state is BrokerHealth.DEGRADED


class TestCertifiedDecisionIsEpochState:
    def test_a_rolled_back_epoch_leaves_the_earlier_certified_decision(self, mixed_problem):
        chain = SafeguardedSolver(FlakyPrimary())
        certified = chain.solve(mixed_problem)
        fewer = mixed_problem.requests[:-1]
        other = ACRRProblem(
            topology=mixed_problem.topology,
            path_set=mixed_problem.path_set,
            requests=fewer,
            forecasts=low_load_forecasts(fewer, fraction=0.5, sigma=0.3),
        )
        journal = Journal()
        with journal:
            chain.solve(other)  # certifies another structure's decision ...
        journal.rollback()  # ... in an epoch that did not happen

        chain.primary.failures.append(RuntimeError("crash"))
        replayed = chain.solve(mixed_problem)
        assert replayed.stats.tier == TIER_WARM_REPLAY
        assert decision_fingerprint(replayed) == decision_fingerprint(certified)

    def test_the_certified_decision_is_declared_beside_the_primarys_state(self, mixed_problem):
        chain = SafeguardedSolver(FlakyPrimary())
        assert dict(declared_state(chain)) == {"_certified": None}
        chain.solve(mixed_problem)
        assert dict(declared_state(chain))["_certified"] is not None


class TestHealthMonitor:
    def test_non_primary_tier_degrades(self):
        monitor = HealthMonitor()
        monitor.note_outcome(TIER_WARM_REPLAY, degraded=True)
        assert monitor.state is BrokerHealth.DEGRADED

    def test_degraded_primary_epoch_degrades(self):
        monitor = HealthMonitor()
        monitor.note_outcome(TIER_PRIMARY, degraded=True)
        assert monitor.state is BrokerHealth.DEGRADED

    def test_recovery_needs_consecutive_clean_primary_epochs(self):
        monitor = HealthMonitor()
        monitor.note_outcome(TIER_NO_OVERBOOKING, degraded=True)
        for _ in range(RECOVERY_EPOCHS - 1):
            monitor.note_outcome(TIER_PRIMARY, degraded=False)
            assert monitor.state is BrokerHealth.DEGRADED
        monitor.note_outcome(TIER_PRIMARY, degraded=False)
        assert monitor.state is BrokerHealth.HEALTHY

    def test_a_degraded_epoch_resets_the_clean_streak(self):
        monitor = HealthMonitor()
        monitor.note_outcome(TIER_NO_OVERBOOKING, degraded=True)
        for _ in range(RECOVERY_EPOCHS - 1):
            monitor.note_outcome(TIER_PRIMARY, degraded=False)
        monitor.note_outcome(TIER_PRIMARY, degraded=True)
        for _ in range(RECOVERY_EPOCHS - 1):
            monitor.note_outcome(TIER_PRIMARY, degraded=False)
        assert monitor.state is BrokerHealth.DEGRADED
        assert monitor.clean_streak == RECOVERY_EPOCHS - 1

    def test_reject_all_enters_safe_mode(self):
        monitor = HealthMonitor()
        monitor.note_outcome(TIER_REJECT_ALL, degraded=True)
        assert monitor.state is BrokerHealth.SAFE_MODE

    def test_probe_cadence_in_safe_mode(self):
        monitor = HealthMonitor()
        monitor.note_outcome(TIER_REJECT_ALL, degraded=True)
        probes = [monitor.should_probe() for _ in range(2 * PROBE_INTERVAL)]
        assert probes == 2 * ([False] * (PROBE_INTERVAL - 1) + [True])

    def test_should_probe_is_always_true_outside_safe_mode(self):
        monitor = HealthMonitor()
        assert all(monitor.should_probe() for _ in range(6))
        monitor.note_outcome(TIER_PRIMARY, degraded=True)
        assert all(monitor.should_probe() for _ in range(6))

    def test_successful_probe_re_enters_degraded_then_recovers(self):
        monitor = HealthMonitor()
        monitor.note_outcome(TIER_REJECT_ALL, degraded=True)
        for _ in range(RECOVERY_EPOCHS - 1):
            monitor.note_outcome(TIER_PRIMARY, degraded=False)
            assert monitor.state is BrokerHealth.DEGRADED
        monitor.note_outcome(TIER_PRIMARY, degraded=False)
        assert monitor.state is BrokerHealth.HEALTHY

    def test_failed_epoch_degrades_and_resets_the_streak(self):
        monitor = HealthMonitor()
        assert monitor.state is BrokerHealth.HEALTHY
        monitor.note_failed_epoch()
        assert monitor.state is BrokerHealth.DEGRADED
        monitor.note_outcome(TIER_PRIMARY, degraded=False)
        monitor.note_failed_epoch()
        assert monitor.clean_streak == 0


class FailsOnCall:
    """DirectMILPSolver wrapper that raises ``error`` on call ``failing``."""

    def __init__(self, failing: int, error: Exception):
        self.inner = DirectMILPSolver()
        self.failing = failing
        self.error = error
        self.calls = 0

    def solve(self, problem):
        self.calls += 1
        if self.calls == self.failing:
            raise self.error
        return self.inner.solve(problem)


class TestDecisionReuseUnderTheChain:
    """The orchestrator reuses an unchanged decision only when the solver
    certified it, and a reused epoch reports the work it did: none."""

    def _broker(self, primary):
        from repro.api import SliceBroker, SliceRequestV1
        from tests.conftest import build_tiny_topology

        chain = SafeguardedSolver(primary)
        # The core CU lies beyond the eMBB latency tolerance, so both slices
        # stay on the edge CU and, with constant forecasts, every epoch from
        # the second on poses the same problem.
        topology = build_tiny_topology(core_latency_ms=40.0)
        broker = SliceBroker(topology=topology, solver=chain)
        for name in ("e1", "e2"):
            broker.submit(SliceRequestV1.of(name, "eMBB", duration_epochs=24))
        forecast = ForecastInput(lambda_hat_mbps=10.0, sigma_hat=0.2)
        broker.set_forecast_overrides({"e1": forecast, "e2": forecast})
        return broker

    def test_a_fallback_decision_is_not_reused(self):
        from repro.controlplane.orchestrator import REUSED_MESSAGE

        primary = FailsOnCall(2, RuntimeError("boom"))
        broker = self._broker(primary)
        assert broker.advance_epoch(0).solver_tier == TIER_PRIMARY
        fallback = broker.advance_epoch(1)  # committed now: nothing to replay
        assert fallback.solver_tier == TIER_NO_OVERBOOKING
        assert fallback.health == BrokerHealth.DEGRADED.value
        resolved = broker.advance_epoch(2)  # same problem as epoch 1
        assert primary.calls == 3  # the primary is asked again
        assert resolved.solver_message != REUSED_MESSAGE
        assert resolved.solver_tier == TIER_PRIMARY
        # The certified decision is reused, and every clean epoch counts
        # towards recovery from the resolved one on.
        reused = [broker.advance_epoch(epoch) for epoch in range(3, 2 + RECOVERY_EPOCHS)]
        for report in reused:
            assert report.solver_message == REUSED_MESSAGE
            assert report.solver_tier == TIER_PRIMARY
        assert primary.calls == 3
        assert [report.health for report in [resolved, *reused]] == (
            [BrokerHealth.DEGRADED.value] * (RECOVERY_EPOCHS - 1) + [BrokerHealth.HEALTHY.value]
        )

    def test_a_reused_decision_reports_no_retries(self):
        from repro.controlplane.orchestrator import REUSED_MESSAGE

        primary = FailsOnCall(2, TransientSolverError("flaky"))
        broker = self._broker(primary)
        broker.advance_epoch(0)
        retried = broker.advance_epoch(1)
        assert primary.calls == 3
        assert retried.solver_retries == 1
        assert retried.degraded_reasons == ("primary solver needed 1 transient retries",)
        reports = [broker.advance_epoch(epoch) for epoch in range(2, 2 + RECOVERY_EPOCHS)]
        assert primary.calls == 3
        for report in reports:
            assert report.solver_message == REUSED_MESSAGE
            assert report.solver_retries == 0
            assert report.degraded_reasons == ()
        assert [report.health for report in reports] == (
            [BrokerHealth.DEGRADED.value] * (RECOVERY_EPOCHS - 1) + [BrokerHealth.HEALTHY.value]
        )


class TestArmingChaos:
    """``SliceBroker.enable_chaos`` arms one plan on the broker's own chain."""

    def _broker(self, solver):
        from repro.api import SliceBroker
        from repro.topology.operators import testbed_topology

        return SliceBroker(topology=testbed_topology(), solver=solver)

    def test_re_arming_replaces_the_previous_plans_solver_faults(self):
        from repro.api import SliceRequestV1
        from repro.faults import HOOK_SOLVER, ChaosSolver, FaultKind, FaultPlan, FaultSpec

        broker = self._broker(DirectMILPSolver())
        broker.enable_chaos(
            FaultPlan.of(FaultSpec(hook=HOOK_SOLVER, kind=FaultKind.CRASH, epoch=0))
        )
        injector = broker.enable_chaos(FaultPlan.empty())
        broker.submit(SliceRequestV1.of("u1", "uRLLC"))
        report = broker.advance_epoch(0)
        assert report.solver_tier == TIER_PRIMARY
        assert report.health == BrokerHealth.HEALTHY.value
        assert report.accepted == ("u1",)
        # One proxy, carrying the plan armed last.
        primary = broker.orchestrator.solver.primary
        assert isinstance(primary, ChaosSolver) and primary.injector is injector
        assert isinstance(primary.inner, DirectMILPSolver)

    def test_arming_keeps_the_health_the_broker_reached(self):
        from repro.api import SliceRequestV1, SolverError
        from repro.faults import FaultPlan

        broker = self._broker(FailsOnCall(1, RuntimeError("boom")))
        broker.submit(SliceRequestV1.of("u1", "uRLLC"))
        with pytest.raises(SolverError):
            broker.advance_epoch(0)
        assert broker.health.state is BrokerHealth.DEGRADED
        broker.enable_chaos(FaultPlan.empty())
        assert broker.health.state is BrokerHealth.DEGRADED
        assert broker.orchestrator.solver.health is broker.health
