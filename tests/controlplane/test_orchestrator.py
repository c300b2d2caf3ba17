"""Tests for the end-to-end orchestrator (admission cycle, state, forecasting)."""

import numpy as np
import pytest

from repro.controlplane.orchestrator import E2EOrchestrator, OrchestratorConfig
from repro.controlplane.state import SliceState
from repro.core.forecast_inputs import ForecastInput
from repro.core.milp_solver import DirectMILPSolver
from repro.core.slices import EMBB_TEMPLATE, URLLC_TEMPLATE, SliceRequest
from tests.conftest import build_tiny_topology


@pytest.fixture
def orchestrator():
    topology = build_tiny_topology(edge_cpus=16.0, core_cpus=64.0, core_latency_ms=28.0)
    return E2EOrchestrator(
        topology=topology,
        solver=DirectMILPSolver(),
        config=OrchestratorConfig(epochs_per_day=24, samples_per_epoch=4),
    )


def urllc(name, arrival=0, duration=24):
    return SliceRequest(
        name=name, template=URLLC_TEMPLATE, arrival_epoch=arrival, duration_epochs=duration
    )


class TestIdleBehaviour:
    def test_epoch_without_requests_is_a_noop(self, orchestrator):
        decision = orchestrator.run_epoch(0)
        assert decision.allocations == {}
        assert decision.stats.solver == "idle"


class TestAdmissionCycle:
    def test_new_slice_without_history_reserves_full_sla(self, orchestrator):
        orchestrator.submit_request(urllc("u1"))
        decision = orchestrator.run_epoch(0)
        assert decision.is_accepted("u1")
        alloc = decision.allocations["u1"]
        for mbps in alloc.reservations_mbps.values():
            assert mbps == pytest.approx(URLLC_TEMPLATE.sla_mbps, rel=1e-2)
        assert orchestrator.registry.record("u1").state is SliceState.ADMITTED

    def test_overbooking_admits_second_slice_after_learning(self, orchestrator):
        # Edge CU has 16 CPUs; a uRLLC slice at full SLA needs 10 (2 BSs x 5),
        # so two fresh slices do not fit.  After observing low load on the
        # first slice, the orchestrator adapts its reservation and admits the
        # second -- the Fig. 8 behaviour.
        orchestrator.submit_request(urllc("u1", arrival=0))
        orchestrator.submit_request(urllc("u2", arrival=2))
        orchestrator.run_epoch(0)
        for epoch in (0, 1):
            for bs in ("bs-0", "bs-1"):
                orchestrator.observe_load("u1", bs, epoch, [5.0, 6.0, 5.5, 6.2])
        decision = orchestrator.run_epoch(2)
        assert decision.is_accepted("u1")
        assert decision.is_accepted("u2")

    def test_without_learning_second_slice_rejected(self, orchestrator):
        orchestrator.submit_request(urllc("u1", arrival=0))
        orchestrator.submit_request(urllc("u2", arrival=1))
        orchestrator.run_epoch(0)
        # No monitoring feedback at all: both forecasts stay pessimistic.
        decision = orchestrator.run_epoch(1)
        assert decision.is_accepted("u1")
        assert not decision.is_accepted("u2")
        assert orchestrator.registry.record("u2").state is SliceState.REJECTED

    def test_committed_slice_stays_admitted_until_expiry(self, orchestrator):
        orchestrator.submit_request(urllc("u1", arrival=0, duration=3))
        orchestrator.run_epoch(0)
        assert orchestrator.run_epoch(1).is_accepted("u1")
        assert orchestrator.run_epoch(2).is_accepted("u1")
        # Expired afterwards: epoch 3 has no active slices.
        decision = orchestrator.run_epoch(3)
        assert decision.allocations == {}
        assert orchestrator.registry.record("u1").state is SliceState.EXPIRED

    def test_forecast_override_takes_precedence(self, orchestrator):
        orchestrator.forecast_overrides["u1"] = ForecastInput(
            lambda_hat_mbps=5.0, sigma_hat=0.2
        )
        request = urllc("u1")
        forecast = orchestrator.forecast_for(request)
        assert forecast.lambda_hat_mbps == pytest.approx(5.0)

    def test_controllers_follow_decision(self, orchestrator):
        orchestrator.submit_request(urllc("u1"))
        orchestrator.run_epoch(0)
        shares = orchestrator.controllers.ran.shares("bs-0")
        assert "u1" in shares


class TestForecastingBlockFallbacks:
    def test_fallback_chain_by_history_length(self, orchestrator):
        request = SliceRequest(name="e1", template=EMBB_TEMPLATE)
        block = orchestrator.forecasting
        # No history: pessimistic full-SLA forecast.
        empty = block.forecast_for(request, np.array([]))
        assert empty.lambda_hat_mbps > 0.99 * EMBB_TEMPLATE.sla_mbps * 0.999
        # Short history: naive/double-exponential forecast near the data.
        short = block.forecast_for(request, np.array([10.0, 11.0, 10.5]))
        assert short.lambda_hat_mbps < 20.0
        # Two full seasons: Holt-Winters kicks in.
        seasonal = 10.0 + 5.0 * np.sin(np.arange(48) * 2 * np.pi / 24)
        long = block.forecast_for(request, np.clip(seasonal, 0.1, None))
        assert 0.0 < long.lambda_hat_mbps < 20.0


class _CountingSolver:
    """Wraps DirectMILPSolver and counts how often it is actually invoked."""

    def __init__(self):
        self.inner = DirectMILPSolver()
        self.calls = 0

    def solve(self, problem):
        self.calls += 1
        return self.inner.solve(problem)


class TestEpochReuse:
    """Structure cache + decision reuse across unchanged epochs."""

    def _orchestrator(self, **config_kwargs):
        topology = build_tiny_topology()
        solver = _CountingSolver()
        orchestrator = E2EOrchestrator(
            topology=topology,
            solver=solver,
            config=OrchestratorConfig(samples_per_epoch=4, **config_kwargs),
        )
        request = SliceRequest(name="e1", template=EMBB_TEMPLATE, duration_epochs=24)
        orchestrator.submit_request(request)
        orchestrator.forecast_overrides["e1"] = ForecastInput(
            lambda_hat_mbps=10.0, sigma_hat=0.2
        )
        return orchestrator, solver

    def test_unchanged_epochs_reuse_the_previous_decision(self):
        orchestrator, solver = self._orchestrator()
        orchestrator.run_epoch(0)          # fresh request: solve
        first = orchestrator.run_epoch(1)  # now committed: structure changed, solve
        second = orchestrator.run_epoch(2)  # nothing changed: reuse
        third = orchestrator.run_epoch(3)
        assert solver.calls == 2
        # Reused decisions share the allocations but report zero solver work.
        assert second.allocations is first.allocations
        assert third.allocations is first.allocations
        assert second.objective_value == first.objective_value
        assert second.stats.runtime_s == 0.0
        assert "reused" in second.stats.message
        # The skeleton cache hit on the unchanged epochs.
        assert orchestrator.problem_cache.hits == 2
        assert orchestrator.problem_cache.misses == 2

    def test_forecast_change_invalidates_the_decision_but_not_the_skeleton(self):
        orchestrator, solver = self._orchestrator()
        orchestrator.run_epoch(0)
        orchestrator.run_epoch(1)
        orchestrator.run_epoch(2)
        assert solver.calls == 2
        orchestrator.forecast_overrides["e1"] = ForecastInput(
            lambda_hat_mbps=25.0, sigma_hat=0.2
        )
        orchestrator.run_epoch(3)
        assert solver.calls == 3
        # Only the forecasts changed, so the skeleton was still reused
        # (epochs 2 and 3; epochs 0 and 1 differ structurally).
        assert orchestrator.problem_cache.hits == 2

    def test_reuse_can_be_disabled(self):
        orchestrator, solver = self._orchestrator(reuse_unchanged_decisions=False)
        for epoch in range(4):
            orchestrator.run_epoch(epoch)
        assert solver.calls == 4

    def test_reused_decision_matches_a_fresh_solve(self):
        orchestrator, _solver = self._orchestrator()
        orchestrator.run_epoch(0)
        reference = orchestrator.run_epoch(1)
        reused = orchestrator.run_epoch(2)

        fresh_orchestrator, _ = self._orchestrator()
        fresh_orchestrator.config = OrchestratorConfig(
            samples_per_epoch=4, reuse_unchanged_decisions=False
        )
        fresh_orchestrator.run_epoch(0)
        fresh_orchestrator.run_epoch(1)
        fresh = fresh_orchestrator.run_epoch(2)
        assert reused.objective_value == fresh.objective_value
        assert reused.accepted_tenants == fresh.accepted_tenants
        for name, allocation in fresh.allocations.items():
            assert (
                reused.allocations[name].reservations_mbps
                == allocation.reservations_mbps
            )
        assert reference.accepted_tenants == fresh.accepted_tenants
