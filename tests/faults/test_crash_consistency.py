"""Crash-consistent epochs under the full fault matrix.

Every injected fault must leave the broker in exactly one of two states:

* the epoch raised and the control plane was restored byte-identically to
  its pre-epoch state (verified via ``control_plane_fingerprint``), after
  which a clean retry commits; or
* the epoch committed a consistent decision flagged ``degraded`` in its
  report, with no-overbooking-tier decisions matching the
  :class:`NoOverbookingSolver` oracle bit for bit.

The fast matrix below runs in the unit shard; the exhaustive generated
sweeps are ``chaos``-marked and run in CI's time-capped chaos job.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BrokerError, SliceBroker, SliceRequestV1, SolverError
from repro.controlplane.orchestrator import OrchestratorConfig
from repro.core import lpsolver
from repro.core.baseline import NoOverbookingSolver
from repro.core.benders import BendersSolver, CutPool, _MasterState
from repro.core.decomposition import SlaveProblem
from repro.core.forecast_inputs import ForecastInput
from repro.core.milp_solver import DirectMILPSolver
from repro.core.slices import EMBB_TEMPLATE, URLLC_TEMPLATE
from repro.faults import (
    HOOK_CLOUD_APPLY,
    HOOK_FORECAST,
    HOOK_RAN_APPLY,
    HOOK_SOLVER,
    HOOK_TOPOLOGY,
    HOOK_TRANSPORT_APPLY,
    TIER_NO_OVERBOOKING,
    TIER_PRIMARY,
    FaultKind,
    FaultPlan,
    FaultSpec,
    control_plane_fingerprint,
)
from repro.scenarios import DIFFERENTIAL_FAMILY, decision_fingerprint, sample_scenario
from repro.topology import operators
from repro.utils.journal import Journal
from tests.differential.conftest import BASE_SEED

#: Every (hook, kind) pair the fault matrix covers.  LINK_DOWN gets a
#: fractional spec so any topology works.
FAULT_MATRIX = [
    (HOOK_SOLVER, FaultKind.TRANSIENT),
    (HOOK_SOLVER, FaultKind.CRASH),
    (HOOK_SOLVER, FaultKind.BUDGET),
    (HOOK_FORECAST, FaultKind.CRASH),
    (HOOK_RAN_APPLY, FaultKind.CRASH),
    (HOOK_TRANSPORT_APPLY, FaultKind.CRASH),
    (HOOK_CLOUD_APPLY, FaultKind.CRASH),
    (HOOK_TOPOLOGY, FaultKind.LINK_DOWN),
]

#: Hooks whose crash faults fail the epoch (controller applies fire inside
#: the commit path).  Everything else degrades and commits: solver faults
#: are absorbed by the safeguard chain, forecast faults by the pessimistic
#: fallback, link faults by re-homing.
ROLLBACK_HOOKS = {HOOK_RAN_APPLY, HOOK_TRANSPORT_APPLY, HOOK_CLOUD_APPLY}


def make_spec(hook: str, kind: FaultKind, epoch: int, times: int = 1) -> FaultSpec:
    params = {"factor": 0.5, "fraction": 0.5} if kind is FaultKind.LINK_DOWN else {}
    return FaultSpec(hook=hook, epoch=epoch, kind=kind, times=times, params=params)


def make_chaos_broker(plan: FaultPlan, solver=None) -> SliceBroker:
    broker = SliceBroker(
        topology=operators.testbed_topology(), solver=solver or DirectMILPSolver()
    )
    broker.enable_chaos(plan)
    broker.submit(SliceRequestV1.of("u1", "uRLLC", duration_epochs=6))
    broker.submit(
        SliceRequestV1.of("u2", "uRLLC", duration_epochs=4, arrival_epoch=1)
    )
    return broker


def advance_with_invariant(broker: SliceBroker, epoch: int, max_attempts: int = 10):
    """Advance one epoch, asserting the fault-matrix invariant.

    Retries after byte-identical rollbacks (a fault spec with ``times > 1``
    can fail several consecutive attempts) and returns the committing
    report.  The randomized sweep can stack up to 3 faults x times 3 = 9
    failing attempts on one epoch, so the bound must leave a 10th attempt
    for the commit.
    """
    orchestrator = broker.orchestrator
    for _ in range(max_attempts):
        before = control_plane_fingerprint(orchestrator)
        try:
            report = broker.advance_epoch(epoch)
        except BrokerError:
            assert control_plane_fingerprint(orchestrator) == before, (
                "a failed epoch must restore the pre-epoch control-plane state"
            )
            continue
        fired = broker._fault_injector.fired_in_attempt()
        if fired:
            assert report.degraded, (
                f"epoch {epoch} committed undegraded although {fired} fired"
            )
            assert report.degraded_reasons
        if (
            report.solver_tier == TIER_NO_OVERBOOKING
            and broker.last_problem is not None
        ):
            oracle = NoOverbookingSolver().solve(broker.last_problem)
            assert decision_fingerprint(broker.last_decision) == decision_fingerprint(
                oracle
            ), "no-overbooking-tier decisions must match the oracle bit for bit"
        return report
    pytest.fail(f"epoch {epoch} never committed within {max_attempts} attempts")


class TestFastFaultMatrix:
    @pytest.mark.parametrize(
        "hook,kind", FAULT_MATRIX, ids=[f"{h}-{k.value}" for h, k in FAULT_MATRIX]
    )
    def test_every_fault_rolls_back_or_commits_degraded(self, hook, kind):
        plan = FaultPlan.of(make_spec(hook, kind, epoch=1))
        broker = make_chaos_broker(plan)
        clean = broker.advance_epoch(0)
        assert not clean.degraded and clean.health == "healthy"

        orchestrator = broker.orchestrator
        before = control_plane_fingerprint(orchestrator)
        if hook in ROLLBACK_HOOKS:
            with pytest.raises(SolverError):
                broker.advance_epoch(1)
            assert control_plane_fingerprint(orchestrator) == before
            retry = broker.advance_epoch(1)
            assert not retry.degraded
            assert retry.health == "degraded"  # the rollback still counts
            assert "u2" in retry.accepted + retry.rejected  # got its verdict
        else:
            report = broker.advance_epoch(1)
            assert report.degraded
            assert report.health != "healthy"
            assert report.degraded_reasons
            assert broker._fault_injector.fired_in_epoch(1)
            if report.solver_tier == TIER_NO_OVERBOOKING:
                oracle = NoOverbookingSolver().solve(broker.last_problem)
                assert decision_fingerprint(
                    broker.last_decision
                ) == decision_fingerprint(oracle)

    def test_single_transient_is_absorbed_by_the_retry_tier(self):
        plan = FaultPlan.of(make_spec(HOOK_SOLVER, FaultKind.TRANSIENT, epoch=1))
        broker = make_chaos_broker(plan)
        broker.advance_epoch(0)
        report = broker.advance_epoch(1)
        assert report.solver_tier == TIER_PRIMARY
        assert report.solver_retries == 1
        assert report.degraded

    def test_transient_storm_exhausts_retries_and_falls_back(self):
        plan = FaultPlan.of(
            make_spec(HOOK_SOLVER, FaultKind.TRANSIENT, epoch=1, times=3)
        )
        broker = make_chaos_broker(plan)
        broker.advance_epoch(0)
        report = broker.advance_epoch(1)
        # u2 arrives at epoch 1, so the certified epoch-0 decision cannot be
        # replayed (the request set changed): the chain lands on the
        # no-overbooking tier.
        assert report.solver_tier == TIER_NO_OVERBOOKING
        assert report.solver_retries == 2
        oracle = NoOverbookingSolver().solve(broker.last_problem)
        assert decision_fingerprint(broker.last_decision) == decision_fingerprint(
            oracle
        )

    def test_a_rolled_back_renewal_restores_the_released_life(self):
        # Whether a life was released lives on its registry record, so the
        # epoch checkpoint carries it and the fingerprint covers it.
        plan = FaultPlan.of(make_spec(HOOK_CLOUD_APPLY, FaultKind.CRASH, epoch=2))
        broker = make_chaos_broker(plan)
        broker.advance_epoch(0)
        broker.release("u1", epoch=1)
        broker.advance_epoch(1)
        broker.submit(SliceRequestV1.of("u1", "uRLLC", duration_epochs=2, arrival_epoch=2))
        orchestrator = broker.orchestrator
        before = control_plane_fingerprint(orchestrator)
        with pytest.raises(SolverError):
            broker.advance_epoch(2)  # renews u1, solves, then the cloud apply crashes
        assert control_plane_fingerprint(orchestrator) == before
        assert orchestrator.registry.renewal_count("u1") == 0
        assert broker.status("u1").state == "queued"  # the renewal is back at intake
        broker.release("u1", epoch=2)  # cancel it
        assert broker.status("u1").state == "released"

    def test_health_recovers_after_consecutive_clean_epochs(self):
        plan = FaultPlan.of(make_spec(HOOK_SOLVER, FaultKind.CRASH, epoch=1))
        broker = make_chaos_broker(plan)
        broker.advance_epoch(0)
        assert broker.advance_epoch(1).health == "degraded"
        states = [broker.advance_epoch(epoch).health for epoch in range(2, 5)]
        assert states[-1] == "healthy", states


#: Four slices whose structure stays put while their forecasts drift.
STEADY_SLAS = {
    "u0": URLLC_TEMPLATE.sla_mbps,
    "u1": URLLC_TEMPLATE.sla_mbps,
    "e0": EMBB_TEMPLATE.sla_mbps,
    "e1": EMBB_TEMPLATE.sla_mbps,
}


def steady_broker(plan: FaultPlan) -> tuple[SliceBroker, BendersSolver]:
    """From epoch 2 on every epoch is a warm fast-path hit."""
    solver = BendersSolver(master_time_limit_s=None, time_limit_s=None)
    broker = SliceBroker(topology=operators.testbed_topology(), solver=solver)
    broker.enable_chaos(plan)
    broker.submit_batch(
        [
            SliceRequestV1.of(name, "uRLLC" if name[0] == "u" else "eMBB", duration_epochs=12)
            for name in STEADY_SLAS
        ]
    )
    return broker, solver


def advance_drifting(broker: SliceBroker, epoch: int):
    broker.set_forecast_overrides(
        {
            name: ForecastInput(
                lambda_hat_mbps=(0.30 + 0.01 * ((3 * epoch + index) % 5)) * sla,
                sigma_hat=0.2,
            )
            for index, (name, sla) in enumerate(STEADY_SLAS.items())
        }
    )
    return broker.advance_epoch(epoch)


def pool_state(solver: BendersSolver) -> tuple | None:
    """The pool's slot as comparable bytes: identity, multipliers, best_x,
    the carried halves and the held slave basis."""
    if solver.cut_pool._slot is None:
        return None
    key, entry = solver.cut_pool._slot
    multipliers = [(block_id, mu.tobytes()) for mu, block_id in entry.multipliers]
    halves = [
        None if half is None else (np.float64(half[0]).tobytes(), half[1].tobytes())
        for half in entry.halves
    ]
    basis = entry.slave_basis
    held = None if basis is None else tuple(codes.tobytes() for codes in basis.statuses())
    return key, multipliers, entry.best_x.tobytes(), halves, held


def handed_bases(patch) -> list:
    """Record, per model HiGHS is handed, the basis it is handed (as
    comparable bytes, None for a cold solve); sorted by the caller, since
    the pricing helper hands its model over concurrently."""
    handed, real_run = [], lpsolver._run

    def recording_run(highs, model, is_mip, basis=None):
        handed.append(
            (is_mip, model.matrix.shape)
            + (() if basis is None else tuple(codes.tobytes() for codes in basis.statuses()))
        )
        return real_run(highs, model, is_mip, basis)

    patch.setattr(lpsolver, "_run", recording_run)
    return handed


class MidRoundCrash(Exception):
    """Not a solver error the safeguard chain absorbs: it fails the epoch."""


class TestWarmStartStateRollsBack:
    def test_cut_pool_is_fingerprinted_and_restored(self):
        # The fingerprint must digest a *populated* cut pool (its multipliers
        # are (mu, block_id) pairs) and a rolled-back epoch
        # must leave the pool exactly as the previous epoch recorded it.
        plan = FaultPlan.of(make_spec(HOOK_CLOUD_APPLY, FaultKind.CRASH, epoch=1))
        solver = BendersSolver(master_time_limit_s=None, time_limit_s=None)
        broker = make_chaos_broker(plan, solver=solver)
        broker.advance_epoch(0)
        assert solver.cut_pool._slot[1].multipliers
        before = control_plane_fingerprint(broker.orchestrator)
        with pytest.raises(SolverError):
            broker.advance_epoch(1)  # solved (the pool grew), then crashed
        assert control_plane_fingerprint(broker.orchestrator) == before
        broker.advance_epoch(1)
        assert control_plane_fingerprint(broker.orchestrator) != before

    def test_a_hits_pool_write_rolls_back_and_the_retry_seeds_what_a_twin_seeds(self):
        # Steady structure, drifting forecasts: from epoch 2 on every epoch
        # is a fast-path hit that replaces the pool's certificate -- slack
        # seeded cuts leave, the priced one joins -- *before* the
        # controllers apply.  A crash there must put the old one back, and
        # the retry must then seed exactly what a never-faulted twin seeds.
        crash_epoch = 4
        plan = FaultPlan.of(make_spec(HOOK_CLOUD_APPLY, FaultKind.CRASH, epoch=crash_epoch))
        broker, solver = steady_broker(plan)
        twin, twin_solver = steady_broker(FaultPlan.empty())
        for epoch in range(crash_epoch):
            report, twin_report = advance_drifting(broker, epoch), advance_drifting(twin, epoch)
        assert "warm fast path" in report.solver_message == twin_report.solver_message
        before, pool_before = control_plane_fingerprint(broker.orchestrator), pool_state(solver)
        assert before == control_plane_fingerprint(twin.orchestrator)
        # The certificate carries the forecast-free half of what it holds.
        entry_before = solver.cut_pool._slot[1]
        basis_before = entry_before.slave_basis
        assert any(half is not None for half in entry_before.halves)
        carried = [None if half is None else half[1] for half in entry_before.halves]

        written = []
        real_record = CutPool.record

        def noting_record(pool, *args):
            real_record(pool, *args)
            written.append(pool_state(solver))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CutPool, "record", noting_record)
            with pytest.raises(SolverError):
                # Certified, recorded -- then crashed.
                advance_drifting(broker, crash_epoch)
        assert len(written) == 1 and written[0] != pool_before
        assert control_plane_fingerprint(broker.orchestrator) == before
        assert pool_state(solver) == pool_before
        # The old entry itself is back, its carried arrays and the slave
        # basis the hit before left with it.
        restored = solver.cut_pool._slot[1]
        assert restored is entry_before
        assert all(
            (got is None and want is None) or got[1] is want
            for got, want in zip(restored.halves, carried)
        )
        assert restored.slave_basis is basis_before is not None

        # The retry hands HiGHS what the twin hands it, bases included.
        with pytest.MonkeyPatch.context() as patch:
            handed = handed_bases(patch)
            report = advance_drifting(broker, crash_epoch)
            retried, handed[:] = sorted(handed), []
            twin_report = advance_drifting(twin, crash_epoch)
            assert retried == sorted(handed)
            assert sum(len(model) > 2 for model in retried) == 1  # the hot pricing
        assert "warm fast path" in report.solver_message
        assert report.solver_message == twin_report.solver_message  # same seeded cuts
        assert pool_state(solver) == pool_state(twin_solver) == written[0]
        assert control_plane_fingerprint(broker.orchestrator) == control_plane_fingerprint(
            twin.orchestrator
        )
        assert decision_fingerprint(broker.last_decision) == decision_fingerprint(
            twin.last_decision
        )

    def test_a_solve_crash_in_the_middle_of_a_round_rolls_back(self):
        # A fast-path round overlaps two solves: the seeded master here (its
        # tight cuts are read off it) and the previous decision's slave LP
        # on the pricing helper.  That LP crashing surfaces from inside
        # solver.solve, before the hit writes the pool: the epoch must still
        # roll back byte for byte, and its retry must equal a never-faulted
        # twin's epoch.
        crash_epoch = 3
        broker, solver = steady_broker(FaultPlan.empty())
        twin, _ = steady_broker(FaultPlan.empty())
        for epoch in range(crash_epoch):
            advance_drifting(broker, epoch)
            advance_drifting(twin, epoch)
        before, pool_before = control_plane_fingerprint(broker.orchestrator), pool_state(solver)

        read, priced, written = [], [], []
        real_tight = _MasterState.tight_cuts

        def noting_tight(master, x):
            read.append(master)
            return real_tight(master, x)

        def crashing_evaluate(slave, x, basis=None):
            priced.append(x)
            raise MidRoundCrash("the slave LP died mid-round")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_MasterState, "tight_cuts", noting_tight)
            patch.setattr(SlaveProblem, "evaluate", crashing_evaluate)
            patch.setattr(CutPool, "record", lambda pool, *args: written.append(args))
            with pytest.raises(MidRoundCrash):
                advance_drifting(broker, crash_epoch)
        # Master solved, its tight cuts read, pricing crashed, nothing recorded.
        assert len(read) == len(priced) == 1 and written == []
        assert control_plane_fingerprint(broker.orchestrator) == before
        assert pool_state(solver) == pool_before

        # The retry prices from the basis the twin prices from.
        with pytest.MonkeyPatch.context() as patch:
            handed = handed_bases(patch)
            report = advance_drifting(broker, crash_epoch)
            retried, handed[:] = sorted(handed), []
            twin_report = advance_drifting(twin, crash_epoch)
            assert retried == sorted(handed)
        assert "warm fast path" in report.solver_message == twin_report.solver_message
        assert report.solver_message.endswith("hot pricing)")
        assert control_plane_fingerprint(broker.orchestrator) == control_plane_fingerprint(
            twin.orchestrator
        )
        assert decision_fingerprint(broker.last_decision) == decision_fingerprint(
            twin.last_decision
        )


class TestFingerprintCoversTheDeclaredState:
    def test_a_rollback_that_skips_the_structure_cache_is_caught(self, monkeypatch):
        # The fingerprint is derived from what the journal declares, so
        # state a hand-written section list once left out -- the problem
        # structure cache -- is covered: a rollback that leaves the cache
        # holding the failed epoch's problem must not pass for a restore.
        plan = FaultPlan.of(make_spec(HOOK_CLOUD_APPLY, FaultKind.CRASH, epoch=1))
        broker = make_chaos_broker(plan)
        broker.advance_epoch(0)
        cache = vars(broker.orchestrator.problem_cache)
        rollback = Journal.rollback

        def rollback_skipping_the_cache(journal):
            journal._log = [(mapping, key) for mapping, key in journal._log if mapping is not cache]
            rollback(journal)

        monkeypatch.setattr(Journal, "rollback", rollback_skipping_the_cache)
        before = control_plane_fingerprint(broker.orchestrator)
        with pytest.raises(SolverError):
            broker.advance_epoch(1)  # built and cached u1 + u2's problem, then crashed
        assert broker.orchestrator.problem_cache.misses == 2  # the cache kept the write
        assert control_plane_fingerprint(broker.orchestrator) != before


class TestForecastsAcrossRollback:
    def test_a_crash_after_forecasting_retries_with_a_twins_forecasts(self):
        # The forecasting block's per-slice memo is not checkpointed: it is
        # a function of the monitoring history, which a rolled-back epoch
        # leaves alone.  The crashed attempt forecast (and memoised) every
        # slice before the cloud apply died; the retry must still forecast
        # what a never-faulted twin forecasts.
        season = 4
        crash_epoch = 3 * season
        names = ("u0", "u1", "e0")

        def build(plan: FaultPlan) -> SliceBroker:
            broker = SliceBroker(
                topology=operators.testbed_topology(),
                solver=DirectMILPSolver(),
                config=OrchestratorConfig(epochs_per_day=season),
            )
            broker.enable_chaos(plan)
            broker.submit_batch(
                [
                    SliceRequestV1.of(name, "uRLLC" if name[0] == "u" else "eMBB", duration_epochs=40)
                    for name in names
                ]
            )
            return broker

        broker = build(FaultPlan.of(make_spec(HOOK_CLOUD_APPLY, FaultKind.CRASH, epoch=crash_epoch)))
        twin = build(FaultPlan.empty())
        rng = np.random.default_rng(0)
        for epoch in range(crash_epoch):
            loads = {(name, bs): rng.uniform(1.0, 9.0, 3) for name in names for bs in ("bs-0", "bs-1")}
            for each in (broker, twin):
                each.advance_epoch(epoch)
                for (name, bs), samples in loads.items():
                    each.report_load(name, bs, epoch, samples)

        before = control_plane_fingerprint(broker.orchestrator)
        with pytest.raises(SolverError):
            broker.advance_epoch(crash_epoch)
        assert control_plane_fingerprint(broker.orchestrator) == before
        broker.advance_epoch(crash_epoch)
        twin.advance_epoch(crash_epoch)
        assert broker.orchestrator.monitoring.peak_history("u0").size >= 2 * season
        forecast_names = [request.name for request in broker.last_problem.requests]
        assert forecast_names == [request.name for request in twin.last_problem.requests]
        assert len(forecast_names) >= 2
        for name in forecast_names:
            forecast = broker.last_problem.forecast(name)
            assert forecast == twin.last_problem.forecast(name)
            template = URLLC_TEMPLATE if name[0] == "u" else EMBB_TEMPLATE
            assert forecast.lambda_hat_mbps < 0.5 * template.sla_mbps  # learnt, not pessimistic


class TestZeroFaultIdentity:
    def report_key(self, report) -> dict:
        payload = report.to_dict()
        payload.pop("solver_runtime_s")
        return payload

    def test_empty_plan_reproduces_an_uninstrumented_run(self):
        def build(chaos: bool) -> SliceBroker:
            broker = SliceBroker(
                topology=operators.testbed_topology(), solver=DirectMILPSolver()
            )
            if chaos:
                broker.enable_chaos(FaultPlan.empty())
            broker.submit(SliceRequestV1.of("u1", "uRLLC", duration_epochs=4))
            broker.submit(
                SliceRequestV1.of("u2", "uRLLC", duration_epochs=3, arrival_epoch=1)
            )
            return broker

        plain, chaos = build(False), build(True)
        for epoch in range(5):
            plain_report = plain.advance_epoch(epoch)
            chaos_report = chaos.advance_epoch(epoch)
            assert self.report_key(chaos_report) == self.report_key(plain_report)
            assert decision_fingerprint(chaos.last_decision) == decision_fingerprint(
                plain.last_decision
            )
        assert [s.to_dict() for s in chaos.list_slices()] == [
            s.to_dict() for s in plain.list_slices()
        ]


def scenario_broker(scenario) -> SliceBroker:
    """A chaos-ready broker loaded with one generated scenario's tenants.

    The direct MILP keeps every sampled instance sub-second; the sweep
    checks fault-handling invariants, not solver performance (the
    differential shard owns Benders-vs-MILP equivalence).
    """
    broker = SliceBroker(topology=scenario.topology, solver=DirectMILPSolver())
    broker.submit_batch([workload.request for workload in scenario.workloads])
    broker.set_forecast_overrides(
        {
            workload.name: ForecastInput(
                lambda_hat_mbps=0.4 * workload.request.sla_mbps, sigma_hat=0.25
            )
            for workload in scenario.workloads
        }
    )
    return broker


@pytest.mark.chaos
class TestGeneratedFaultSweep:
    @pytest.mark.parametrize("offset", range(4))
    @pytest.mark.parametrize(
        "hook,kind", FAULT_MATRIX, ids=[f"{h}-{k.value}" for h, k in FAULT_MATRIX]
    )
    def test_fault_matrix_on_generated_scenarios(self, offset, hook, kind):
        seed = BASE_SEED + offset
        scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=seed)
        epoch = min(1, scenario.num_epochs - 1)
        broker = scenario_broker(scenario)
        broker.enable_chaos(FaultPlan.of(make_spec(hook, kind, epoch=epoch), seed=seed))
        for current in range(scenario.num_epochs):
            advance_with_invariant(broker, current)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_randomized_fault_schedules(self, data):
        seed = BASE_SEED + data.draw(st.integers(0, 40), label="scenario offset")
        scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=seed)
        specs = []
        for index in range(data.draw(st.integers(1, 3), label="num faults")):
            hook, kind = data.draw(
                st.sampled_from(FAULT_MATRIX), label=f"fault {index}"
            )
            epoch = data.draw(
                st.integers(0, scenario.num_epochs - 1), label=f"epoch {index}"
            )
            times = data.draw(st.integers(1, 3), label=f"times {index}")
            specs.append(make_spec(hook, kind, epoch=epoch, times=times))
        broker = scenario_broker(scenario)
        broker.enable_chaos(FaultPlan.of(*specs, seed=seed))
        for epoch in range(scenario.num_epochs):
            advance_with_invariant(broker, epoch)
