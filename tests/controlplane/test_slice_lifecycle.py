"""Regression tests for the slice-lifecycle fixes.

Three bugs the scenario harness's churn families exposed:

* stale controller reservations: an idle epoch (last slice expired) used to
  return early without touching the controllers, which kept enforcing the
  previous decision's reservations forever;
* silently-dropped renewals: a request re-submitted under the name of an
  EXPIRED/REJECTED slice was neither registered nor treated as a candidate,
  so it vanished without admission or rejection;
* warm-state wipe: the idle branch reset ``_last_solve``, forcing a cold
  re-solve when the same slices returned.
"""

import pytest

from repro.controlplane.orchestrator import E2EOrchestrator, OrchestratorConfig
from repro.controlplane.state import SliceRegistry, SliceState, SliceStateError
from repro.core.forecast_inputs import ForecastInput
from repro.core.milp_solver import DirectMILPSolver
from repro.core.slices import URLLC_TEMPLATE, SliceRequest
from tests.conftest import build_tiny_topology


def urllc(name, arrival=0, duration=24):
    return SliceRequest(
        name=name, template=URLLC_TEMPLATE, arrival_epoch=arrival, duration_epochs=duration
    )


@pytest.fixture
def orchestrator():
    topology = build_tiny_topology(edge_cpus=16.0, core_cpus=64.0, core_latency_ms=28.0)
    return E2EOrchestrator(
        topology=topology,
        solver=DirectMILPSolver(),
        config=OrchestratorConfig(epochs_per_day=24, samples_per_epoch=4),
    )


class TestIdleEpochClearsControllers:
    def test_reservations_released_after_final_slice_expires(self, orchestrator):
        orchestrator.submit_request(urllc("u1", arrival=0, duration=2))
        orchestrator.run_epoch(0)
        controllers = orchestrator.controllers
        assert controllers.ran.shares("bs-0")  # enforced while admitted
        assert any(controllers.transport.reservations_mbps.values())
        assert any(controllers.cloud.reservations_cpus.values())

        orchestrator.run_epoch(1)
        decision = orchestrator.run_epoch(2)  # u1 expired: idle epoch
        assert decision.allocations == {}
        for bs in ("bs-0", "bs-1"):
            assert controllers.ran.shares(bs) == {}
        assert all(not v for v in controllers.transport.reservations_mbps.values())
        assert all(not v for v in controllers.cloud.reservations_cpus.values())

    def test_headroom_fully_recovers_on_idle(self, orchestrator):
        orchestrator.submit_request(urllc("u1", arrival=0, duration=1))
        orchestrator.run_epoch(0)
        orchestrator.run_epoch(1)
        topology = orchestrator.topology
        for cu in topology.compute_unit_names:
            assert orchestrator.controllers.cloud.cu_headroom(cu) == pytest.approx(
                topology.compute_unit(cu).capacity_cpus
            )
        for link in topology.links:
            assert orchestrator.controllers.transport.link_headroom(
                link.key
            ) == pytest.approx(link.capacity_mbps)


class TestRenewals:
    def test_renewal_after_expiry_is_admitted_again(self, orchestrator):
        orchestrator.submit_request(urllc("u1", arrival=0, duration=2))
        orchestrator.run_epoch(0)
        orchestrator.run_epoch(1)
        orchestrator.run_epoch(2)  # expires
        assert orchestrator.registry.record("u1").state is SliceState.EXPIRED

        orchestrator.submit_request(urllc("u1", arrival=3, duration=2))
        decision = orchestrator.run_epoch(3)
        assert decision.is_accepted("u1")
        record = orchestrator.registry.record("u1")
        assert record.state is SliceState.ADMITTED
        assert record.admitted_epoch == 3
        assert orchestrator.registry.renewal_count("u1") == 1
        archived = orchestrator.registry.archived_records("u1")
        assert len(archived) == 1 and archived[0].state is SliceState.EXPIRED

    def test_renewal_after_rejection_gets_a_fresh_verdict(self, orchestrator):
        # Two fresh uRLLC slices at full SLA do not fit the 16-CPU edge CU:
        # the second is rejected, then renewed after the first expires.
        orchestrator.submit_request(urllc("u1", arrival=0, duration=2))
        orchestrator.submit_request(urllc("u2", arrival=1, duration=4))
        orchestrator.run_epoch(0)
        orchestrator.run_epoch(1)
        assert orchestrator.registry.record("u2").state is SliceState.REJECTED

        orchestrator.run_epoch(2)  # u1 expired; idle for committed purposes
        orchestrator.submit_request(urllc("u2", arrival=3, duration=4))
        decision = orchestrator.run_epoch(3)
        assert decision.is_accepted("u2")
        assert orchestrator.registry.renewal_count("u2") == 1

    def test_renewal_is_never_silently_dropped(self, orchestrator):
        """The original bug: the renewal vanished with no verdict at all."""
        orchestrator.submit_request(urllc("u1", arrival=0, duration=1))
        orchestrator.run_epoch(0)
        orchestrator.run_epoch(1)
        orchestrator.submit_request(urllc("u1", arrival=2, duration=1))
        decision = orchestrator.run_epoch(2)
        assert "u1" in decision.allocations
        assert orchestrator.registry.record("u1").state in (
            SliceState.ADMITTED,
            SliceState.REJECTED,
        )

    def test_renewing_a_live_slice_is_rejected_at_intake(self, orchestrator):
        orchestrator.submit_request(urllc("u1", arrival=0, duration=24))
        orchestrator.run_epoch(0)
        # u1 is ADMITTED until epoch 24: a same-name re-submission arriving
        # inside that window must fail loudly at submit time, before it can
        # enter (and poison) an epoch batch.
        with pytest.raises(SliceStateError, match="still admitted"):
            orchestrator.submit_request(urllc("u1", arrival=1, duration=24))

    def test_advance_renewal_booked_beyond_expiry_is_accepted(self, orchestrator):
        orchestrator.submit_request(urllc("u1", arrival=0, duration=2))
        orchestrator.run_epoch(0)
        # Booked while u1 is still live, but arriving at its expiry epoch:
        # legal, and admitted again once collected.
        orchestrator.submit_request(urllc("u1", arrival=2, duration=2))
        orchestrator.run_epoch(1)
        decision = orchestrator.run_epoch(2)
        assert decision.is_accepted("u1")
        assert orchestrator.registry.renewal_count("u1") == 1

    def test_invalid_renewal_cannot_strand_batch_mates(self, orchestrator):
        """A live-name renewal smuggled past intake (direct manager submit)
        raises at collection -- the crash-consistent epoch rolls the whole
        batch back to the intake queue, so its mates are never silently
        lost: withdrawing the poisoned request unblocks them."""
        orchestrator.submit_request(urllc("u1", arrival=0, duration=24))
        orchestrator.run_epoch(0)
        orchestrator.slice_manager.submit(urllc("u1", arrival=1, duration=24))
        orchestrator.slice_manager.submit(urllc("u2", arrival=1, duration=24))
        with pytest.raises(SliceStateError):
            orchestrator.run_epoch(1)
        # The rollback returned both requests to the intake queue intact.
        assert orchestrator.slice_manager.pending_request("u1") is not None
        assert orchestrator.slice_manager.pending_request("u2") is not None
        assert "u2" not in orchestrator.registry
        # Cancelling the invalid renewal lets its batch mate proceed.
        orchestrator.slice_manager.withdraw("u1")
        decision = orchestrator.run_epoch(2)
        assert "u2" in decision.allocations
        assert orchestrator.registry.record("u2").state in (
            SliceState.ADMITTED,
            SliceState.REJECTED,
        )


class TestRegistryRenewSemantics:
    def test_renew_unknown_name_registers(self):
        registry = SliceRegistry()
        record = registry.renew(urllc("s"))
        assert record.state is SliceState.REQUESTED
        assert registry.renewal_count("s") == 0

    def test_renew_from_terminal_states(self):
        registry = SliceRegistry()
        registry.register(urllc("s", duration=1))
        registry.mark_rejected("s")
        renewed = registry.renew(urllc("s", arrival=5))
        assert renewed.state is SliceState.REQUESTED
        assert renewed.request.arrival_epoch == 5
        assert registry.renewal_count("s") == 1

    def test_renew_from_live_states_raises(self):
        registry = SliceRegistry()
        registry.register(urllc("s"))
        with pytest.raises(SliceStateError):
            registry.renew(urllc("s"))
        registry.mark_admitted("s", epoch=0, compute_unit="edge-cu", reservations_mbps={})
        with pytest.raises(SliceStateError):
            registry.renew(urllc("s"))


class TestWarmStateSurvivesIdleEpochs:
    def _orchestrator(self):
        topology = build_tiny_topology()
        orchestrator = E2EOrchestrator(
            topology=topology,
            solver=DirectMILPSolver(),
            config=OrchestratorConfig(samples_per_epoch=4),
        )
        orchestrator.forecast_overrides["u1"] = ForecastInput(
            lambda_hat_mbps=10.0, sigma_hat=0.2
        )
        return orchestrator

    def test_last_solve_survives_an_idle_epoch(self):
        orchestrator = self._orchestrator()
        orchestrator.submit_request(urllc("u1", arrival=0, duration=2))
        orchestrator.run_epoch(0)
        orchestrator.run_epoch(1)
        assert orchestrator._last_solve is not None
        key_before = orchestrator._last_solve[0]
        # The reuse key carries the solver and the solved problem's identity.
        assert orchestrator.solver in key_before
        assert orchestrator.last_problem.identity() in key_before
        orchestrator.run_epoch(2)  # idle: u1 expired
        orchestrator.run_epoch(3)  # still idle
        assert orchestrator._last_solve is not None
        assert orchestrator._last_solve[0] == key_before

    @staticmethod
    def _benders_orchestrator(monkeypatch):
        """A Benders orchestrator, and per solve ``(whether the pool held
        the problem's identity, cuts seeded)``."""
        from repro.core.benders import BendersSolver, CutPool

        solves = []
        seed_master, solve = CutPool.seed_master, BendersSolver.solve

        def noting_solve(solver, problem):
            if solver.cut_pool is not None:  # not the cold reference
                solves.append([problem.identity() in solver.cut_pool, 0])
            return solve(solver, problem)

        def noting_seed(pool, key, master, slave):
            seeded, best_x = seed_master(pool, key, master, slave)
            solves[-1][1] = len(seeded)
            return seeded, best_x

        monkeypatch.setattr(BendersSolver, "solve", noting_solve)
        monkeypatch.setattr(CutPool, "seed_master", noting_seed)
        orchestrator = E2EOrchestrator(
            topology=build_tiny_topology(),
            solver=BendersSolver(master_time_limit_s=None, time_limit_s=None),
            config=OrchestratorConfig(samples_per_epoch=4),
        )
        orchestrator.forecast_overrides["u1"] = ForecastInput(
            lambda_hat_mbps=10.0, sigma_hat=0.2
        )
        return orchestrator, solves

    @staticmethod
    def _cold(problem):
        from repro.core.benders import BendersSolver

        return BendersSolver(
            master_time_limit_s=None, time_limit_s=None, warm_start=False
        ).solve(problem)

    def test_solver_warm_state_survives_idle_and_renewal(self, monkeypatch):
        """After an idle gap, a renewed identical slice warm-starts Benders
        when its structure is the last one solved."""
        from repro.scenarios import decision_fingerprint

        orchestrator, solves = self._benders_orchestrator(monkeypatch)
        orchestrator.submit_request(urllc("u1", arrival=0, duration=1))
        assert orchestrator.run_epoch(0).is_accepted("u1")
        orchestrator.run_epoch(1)  # idle: u1 expired, nothing solved
        orchestrator.submit_request(urllc("u1", arrival=2, duration=1))
        # Another forecast: the orchestrator's decision reuse misses.
        orchestrator.forecast_overrides["u1"] = ForecastInput(
            lambda_hat_mbps=10.5, sigma_hat=0.2
        )
        renewed = orchestrator.run_epoch(2)
        assert renewed.is_accepted("u1")
        # The renewal's candidate problem has the identity of the original
        # candidate instance (arrival epochs enter neither the key nor the
        # MILP) and nothing was solved in between, so the slot still holds
        # the slice's previous certificate and seeds the renewal's solve --
        # which decides exactly what a cold solve of the same instance
        # decides.
        assert [held for held, _ in solves] == [False, True]
        assert solves[1][1] > 0
        cold = self._cold(orchestrator.last_problem)
        assert decision_fingerprint(renewed) == decision_fingerprint(cold)

    def test_a_renewal_after_another_structure_runs_cold(self, monkeypatch):
        """Candidate, committed (another identity), idle, renewal: the slot
        holds the committed structure's certificate, so the renewal seeds
        nothing and decides what a cold solve decides."""
        from repro.scenarios import decision_fingerprint

        orchestrator, solves = self._benders_orchestrator(monkeypatch)
        orchestrator.submit_request(urllc("u1", arrival=0, duration=2))
        assert orchestrator.run_epoch(0).is_accepted("u1")
        orchestrator.run_epoch(1)
        orchestrator.run_epoch(2)  # idle
        orchestrator.submit_request(urllc("u1", arrival=3, duration=2))
        renewed = orchestrator.run_epoch(3)
        assert renewed.is_accepted("u1")
        assert [held for held, _ in solves] == [False, False, False]
        assert renewed.stats.cuts_warm == 0
        cold = self._cold(orchestrator.last_problem)
        assert decision_fingerprint(renewed) == decision_fingerprint(cold)
