"""Unit tests for the Benders cross-epoch warm-start layer (CutPool)."""

from dataclasses import replace

import numpy as np

import repro.core.benders as benders
from repro.core.benders import (
    _MAX_IDLE_SOLVES,
    BendersSolver,
    CutPool,
    _MasterState,
)
from repro.core.decomposition import SlaveProblem
from repro.core.forecast_inputs import ForecastInput
from repro.core.problem import ACRRProblem
from repro.core.slices import EMBB_TEMPLATE, make_requests
from repro.scenarios import DIFFERENTIAL_FAMILY, sample_scenario
from repro.scenarios.oracle import _perturbed_forecast_sequence, problem_for_scenario
from repro.topology.paths import compute_path_sets
from repro.utils.journal import Journal, put
from repro.utils.rng import derive_seed
from tests.conftest import build_tiny_topology
from tests.differential.conftest import BASE_SEED


def small_problem(load_fraction=0.3, num_tenants=4, edge_cpus=12.0):
    topology = build_tiny_topology(
        num_base_stations=2,
        bs_capacity_mhz=22.0,
        link_capacity_mbps=900.0,
        edge_cpus=edge_cpus,
        core_cpus=90.0,
    )
    path_set = compute_path_sets(topology, k=2)
    requests = make_requests(EMBB_TEMPLATE, num_tenants, duration_epochs=24)
    forecasts = {
        request.name: ForecastInput(
            lambda_hat_mbps=load_fraction * request.sla_mbps, sigma_hat=0.2
        )
        for request in requests
    }
    return ACRRProblem(
        topology=topology, path_set=path_set, requests=requests, forecasts=forecasts
    )


def perturbed(problem, scale):
    forecasts = {
        request.name: ForecastInput(
            lambda_hat_mbps=min(
                problem.forecast(request.name).lambda_hat_mbps * scale,
                request.sla_mbps,
            ),
            sigma_hat=problem.forecast(request.name).sigma_hat,
        )
        for request in problem.requests
    }
    return ACRRProblem(
        topology=problem.topology,
        path_set=problem.path_set,
        requests=problem.requests,
        forecasts=forecasts,
        options=problem.options,
    )


def fingerprint(decision):
    from repro.scenarios import decision_fingerprint

    return decision_fingerprint(decision)


def fresh_master(problem, slave):
    """A virgin master over ``problem``: one surrogate per slave block."""
    lowers = [block.theta_lower for block in slave.blocks()]
    return _MasterState(problem, problem.objective_x(), lowers)


class TestCutPool:
    def test_empty_pool_seeds_nothing(self):
        problem = small_problem()
        pool = CutPool()
        slave = SlaveProblem(problem)
        master = fresh_master(problem, slave)
        seeded, best_x = pool.seed_master(problem.identity(), master, slave)
        assert seeded == 0
        assert best_x is None

    def test_record_then_seed_roundtrip(self):
        problem = small_problem()
        solver = BendersSolver(warm_start=True)
        decision = solver.solve(problem)
        assert decision.stats.cuts_warm == 0  # first solve is cold

        pool = solver.cut_pool
        key = problem.identity()
        slave = SlaveProblem(problem)
        master = fresh_master(problem, slave)
        seeded, best_x = pool.seed_master(key, master, slave)
        assert seeded == decision.stats.cuts_optimality + decision.stats.cuts_feasibility
        assert master.num_cuts == seeded
        assert best_x is not None and best_x.shape == (problem.num_items,)

    def test_row_count_mismatch_seeds_nothing(self):
        problem = small_problem()
        solver = BendersSolver(warm_start=True)
        solver.solve(problem)
        other = small_problem(num_tenants=5)  # different structure and rows
        slave = SlaveProblem(other)
        master = fresh_master(other, slave)
        # Force the wrong key on purpose: even then the shape check refuses.
        seeded, best_x = solver.cut_pool.seed_master(
            problem.identity(), master, slave
        )
        assert seeded == 0
        assert best_x is None

    def test_severely_stale_cuts_are_dropped(self, monkeypatch):
        monkeypatch.setattr(benders, "_MAX_RELATIVE_SLACK", 0.0)
        problem = small_problem(load_fraction=0.2)
        pool = CutPool()
        solver = BendersSolver(warm_start=True)
        solver.cut_pool = pool
        solver.solve(problem)
        # A big perturbation changes the slave objective d; with a zero slack
        # budget every optimality cut whose dual feasibility moved is dropped.
        big = perturbed(problem, 3.0)
        slave = SlaveProblem(big)
        master = fresh_master(big, slave)
        seeded, _ = pool.seed_master(big.identity(), master, slave)
        assert pool.dropped_total >= 1
        assert seeded + pool.dropped_total >= 1

    def test_cut_cap_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(benders, "_MAX_CUTS_PER_STRUCTURE", 3)
        pool = CutPool()
        key = ("k",)
        mus = [(np.full(4, float(i)), None) for i in range(5)]
        pool.record(key, 4, mus, best_x=None)
        entry = pool.entry(key)
        assert len(entry.multipliers) == 3
        assert entry.multipliers[0][0][0] == 2.0  # oldest two evicted

    def test_record_skips_a_multiplier_already_stored(self):
        pool = CutPool()
        key = ("k",)
        pool.record(key, 4, [(np.zeros(4), None), (np.ones(4), 0)], None)
        rewrite_entry(pool, key, idle=(2, 1))
        # Same block and bytes: skipped, in the pool or earlier in the batch;
        # the same mu on another block is another cut.
        pool.record(key, 4, [(np.zeros(4), None), (np.ones(4), 1), (np.ones(4), 1)], None)
        entry = pool.entry(key)
        assert [(mu.tolist(), block) for mu, block in entry.multipliers] == [
            ([0.0] * 4, None),
            ([1.0] * 4, 0),
            ([1.0] * 4, 1),
        ]
        assert entry.idle == (2, 1, 0)  # a skipped duplicate keeps its age

    def test_structure_cap_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(benders, "_MAX_STRUCTURES", 2)
        pool = CutPool()
        pool.record(("a",), 4, [(np.zeros(4), None)], None)
        pool.record(("b",), 4, [(np.zeros(4), None)], None)
        assert pool.entry(("a",)) is not None  # touch: "a" becomes most recent
        pool.record(("c",), 4, [(np.zeros(4), None)], None)
        assert len(pool) == 2
        assert pool.entry(("b",)) is None
        assert pool.entry(("a",)) is not None


def rewrite_entry(pool: CutPool, key: tuple, **changes) -> None:
    """Replace the pool entry of ``key`` with ``changes`` applied, the way
    the pool's own writers do."""
    put(pool._entries, key, replace(pool._entries[key], **changes))


class _SolvedMaster:
    """What :meth:`CutPool.age` reads off a seeded master: its cut rows."""

    def __init__(self, cuts, rhs):
        self._cuts, self._rhs = np.asarray(cuts, dtype=float), np.asarray(rhs, dtype=float)

    def cut_rows(self):
        return self._cuts, self._rhs


class TestWorkingSet:
    """The pool keeps the multipliers that do something (``CutPool.age``)."""

    def test_tight_cuts_start_over_slack_and_skipped_ones_age_out(self):
        pool = CutPool()
        key = ("k",)
        pool.record(key, 4, [(np.full(4, float(i)), None) for i in range(5)], None)
        assert pool.entry(key).idle == (0,) * 5
        # Multipliers 1 and 4 were skipped at seeding; of the three seeded
        # cuts the first is tight, the second slack, the third tight within
        # the relative tolerance (1e-7 of an activity of 1e3).
        master = _SolvedMaster([[1.0, 0.0], [0.0, 1.0], [1000.0, 0.0]], [2.0, 1.0, 2000.0 - 5e-5])
        values = np.array([2.0, 3.0])
        survivors = []
        for solve in range(1, _MAX_IDLE_SOLVES + 2):
            rewrite_entry(pool, key, seeded=(0, 2, 3)[: len(pool.entry(key).multipliers)])
            pool.age(key, master, values)
            entry = pool.entry(key)
            survivors.append([mu[0] for mu, _ in entry.multipliers])
            if solve <= _MAX_IDLE_SOLVES:
                assert entry.idle == (0, solve, solve, 0, solve)
        assert survivors[-2] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert survivors[-1] == [0.0, 3.0]  # slack one and both skipped ones left
        assert pool.entry(key).idle == (0, 0)
        # What is recorded next starts at zero, behind the survivors.
        pool.record(key, 4, [(np.full(4, 9.0), None)], None)
        entry = pool.entry(key)
        assert entry.idle == (0, 0, 0) and entry.multipliers[-1][0][0] == 9.0

    def test_hard_cap_still_evicts_oldest_first_with_their_counters(self, monkeypatch):
        monkeypatch.setattr(benders, "_MAX_CUTS_PER_STRUCTURE", 3)
        pool = CutPool()
        key = ("k",)
        pool.record(key, 4, [(np.full(4, float(i)), None) for i in range(3)], None)
        rewrite_entry(pool, key, idle=(2, 1, 0))
        pool.record(key, 4, [(np.full(4, 3.0), None)], None)
        entry = pool.entry(key)
        assert [mu[0] for mu, _ in entry.multipliers] == [1.0, 2.0, 3.0]
        assert entry.idle == (1, 0, 0)

    def test_a_rollback_restores_the_idle_counters(self):
        pool = CutPool()
        key = ("k",)
        pool.record(key, 4, [(np.full(4, float(i)), None) for i in range(3)], None)
        rewrite_entry(pool, key, idle=(2, 0, 1))
        before = pool.entry(key)
        journal = Journal()
        with journal:
            rewrite_entry(pool, key, seeded=(0, 1, 2))
            pool.age(key, _SolvedMaster(np.eye(3), np.zeros(3)), np.ones(3))  # all slack
            assert pool.entry(key).idle == (1, 2)
        journal.rollback()
        assert pool.entry(key).idle == (2, 0, 1)
        assert len(pool.entry(key).multipliers) == 3
        # The journal kept the replaced entry itself, not a copy of it.
        assert pool.entry(key) is before

    def test_a_multiplier_that_can_never_seed_leaves_the_pool(self):
        """Wrong length, no such block: skipped at every seeding.  It used
        to be re-validated and skipped every epoch for the life of the pool."""
        base = small_problem()
        solver = BendersSolver(warm_start=True)
        solver.solve(base)
        key = base.identity()
        junk = [(np.ones(3), None), (np.ones(len(SlaveProblem(base).h0)), 99)]
        solver.cut_pool.record(key, solver.cut_pool.entry(key).num_rows, junk, None)

        def junk_left() -> int:
            multipliers = solver.cut_pool.entry(key).multipliers
            return sum(len(mu) == 3 or block == 99 for mu, block in multipliers)

        assert junk_left() == 2
        rng = np.random.default_rng(1)
        for seeded_solve in range(1, _MAX_IDLE_SOLVES + 2):
            dropped_before = solver.cut_pool.dropped_total
            decision = solver.solve(perturbed(base, 1.0 + float(rng.uniform(-0.02, 0.02))))
            assert decision.stats.optimal
            assert solver.cut_pool.dropped_total - dropped_before >= 2  # skipped at seeding
            assert junk_left() == (2 if seeded_solve <= _MAX_IDLE_SOLVES else 0)
        dropped_before = solver.cut_pool.dropped_total
        solver.solve(perturbed(base, 1.01))
        assert solver.cut_pool.dropped_total == dropped_before  # nothing left to skip
        entry = solver.cut_pool.entry(key)
        assert len(entry.idle) == len(entry.multipliers) > 0


class TestIdentity:
    """The cut pool keys on ``ACRRProblem.identity``."""

    def test_identity_ignores_arrival_epoch(self):
        problem = small_problem()
        from dataclasses import replace

        shifted = [replace(r, arrival_epoch=r.arrival_epoch + 7) for r in problem.requests]
        other = ACRRProblem(
            topology=problem.topology,
            path_set=problem.path_set,
            requests=shifted,
            forecasts={r.name: problem.forecast(r.name) for r in problem.requests},
            options=problem.options,
        )
        assert problem.identity() == other.identity()

    def test_a_problem_built_after_replace_link_has_another_identity(self):
        from dataclasses import replace

        problem = small_problem()
        link = problem.topology.links[0]
        problem.topology.replace_link(
            replace(link, capacity_mbps=link.capacity_mbps * 0.5)
        )
        rebuilt = ACRRProblem(
            topology=problem.topology,
            path_set=problem.path_set,
            requests=problem.requests,
            forecasts={r.name: problem.forecast(r.name) for r in problem.requests},
            options=problem.options,
        )
        assert rebuilt.identity() != problem.identity()


class TestWarmStartedSolver:
    def test_fast_path_replays_identical_resolve(self):
        problem = small_problem()
        solver = BendersSolver(warm_start=True)
        first = solver.solve(problem)
        second = solver.solve(problem)
        # A byte-identical instance has no tier of its own: the stored cuts
        # are seeded and the previous optimum is re-certified, or the solve
        # runs cold -- the same decision either way.
        assert solver.cut_pool.seeded_total > 0
        assert second.stats.optimal
        assert fingerprint(first) == fingerprint(second)
        cold = BendersSolver(warm_start=False).solve(problem)
        assert fingerprint(second) == fingerprint(cold)

    def test_warm_decisions_match_cold_under_drift(self):
        base = small_problem()
        rng = np.random.default_rng(7)
        warm = BendersSolver(warm_start=True)
        cold_iters = warm_iters = 0
        for _ in range(6):
            instance = perturbed(base, 1.0 + float(rng.uniform(-0.03, 0.03)))
            cold_decision = BendersSolver(warm_start=False).solve(instance)
            warm_decision = warm.solve(instance)
            cold_iters += cold_decision.stats.iterations
            warm_iters += warm_decision.stats.iterations
            assert fingerprint(cold_decision) == fingerprint(warm_decision)
        assert warm_iters <= cold_iters

    def test_warm_start_disabled_has_no_pool(self):
        solver = BendersSolver(warm_start=False)
        assert solver.cut_pool is None
        decision = solver.solve(small_problem())
        assert decision.stats.cuts_warm == 0

    def test_shared_pool_across_solver_instances(self):
        pool = CutPool()
        problem = small_problem()
        solvers = [BendersSolver(warm_start=True), BendersSolver(warm_start=True)]
        for solver in solvers:
            solver.cut_pool = pool
        first = solvers[0].solve(problem)
        second = solvers[1].solve(problem)
        # The second instance starts from what the first one recorded.
        assert pool.seeded_total > 0
        assert fingerprint(second) == fingerprint(first)
        assert fingerprint(second) == fingerprint(
            BendersSolver(warm_start=False).solve(problem)
        )

    def test_capacity_loss_falls_back_to_cold_loop(self):
        """Shrinking a resource must invalidate the certified optimum."""
        problem = small_problem(edge_cpus=12.0)
        solver = BendersSolver(warm_start=True)
        first = solver.solve(problem)
        assert first.num_accepted > 0
        shrunk_topology = small_problem(edge_cpus=2.0).topology
        shrunk = ACRRProblem(
            topology=shrunk_topology,
            path_set=compute_path_sets(shrunk_topology, k=2),
            requests=problem.requests,
            forecasts={r.name: problem.forecast(r.name) for r in problem.requests},
            options=problem.options,
        )
        cold = BendersSolver(warm_start=False).solve(shrunk)
        warm = solver.solve(shrunk)
        assert fingerprint(cold) == fingerprint(warm)


class TestReProposal:
    """A fast-path hit is a seeded master that closes the stopping rule and
    re-proposes the previous admission vector; any other outcome runs the
    cold loop and returns what a solver with warm starts disabled returns."""

    @staticmethod
    def spy(monkeypatch):
        """Record the rounded master candidates and the admission vectors
        solves return, in call order."""
        seen = {"proposed": [], "returned": []}
        master = BendersSolver._solve_master
        decide = benders.decision_from_vectors

        def solving(solver, master_state):
            result = master(solver, master_state)
            seen["proposed"].append(np.round(result.values[: master_state.num_items]))
            return result

        def deciding(problem, x, *args):
            seen["returned"].append(np.asarray(x))
            return decide(problem, x, *args)

        monkeypatch.setattr(BendersSolver, "_solve_master", solving)
        monkeypatch.setattr(benders, "decision_from_vectors", deciding)
        return seen

    @staticmethod
    def drift(index: int, count: int, tag: str):
        """A differential instance and ``count`` steady-state drifts of it."""
        scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=BASE_SEED + index)
        base = problem_for_scenario(scenario)
        return base, _perturbed_forecast_sequence(
            base, count=count, spread=0.02, seed=derive_seed(scenario.seed, tag, scenario.name)
        )

    @staticmethod
    def solver(warm_start: bool = True) -> BendersSolver:
        return BendersSolver(
            max_iterations=12, master_time_limit_s=None, time_limit_s=None, warm_start=warm_start
        )

    def test_every_steady_state_hit_re_proposes(self, monkeypatch):
        base, drifted = self.drift(0, count=6, tag="steady")
        solver = self.solver()
        solver.solve(base)
        seen = self.spy(monkeypatch)
        for problem in drifted:
            decision = solver.solve(problem)
            assert decision.stats.cuts_warm > 0 and decision.stats.iterations == 1
        # One seeded master per solve, each re-proposing the decision kept.
        assert len(seen["proposed"]) == len(seen["returned"]) == 6
        for proposed, returned in zip(seen["proposed"], seen["returned"]):
            assert np.array_equal(proposed, returned)

    def test_a_certified_previous_decision_not_re_proposed_runs_cold(self, monkeypatch):
        base, (drifted,) = self.drift(32, count=1, tag="overlap")
        solver = self.solver()
        solver.solve(base)
        previous_x = solver.cut_pool.entry(drifted.identity()).best_x
        seen = self.spy(monkeypatch)
        decision = solver.solve(drifted)
        # The seeded master proposed another vector than the previous one ...
        assert not np.array_equal(seen["proposed"][0], previous_x)
        # ... so the solve ran the cold loop and returned the cold decision.
        assert decision.stats.cuts_warm == 0
        assert fingerprint(decision) == fingerprint(self.solver(warm_start=False).solve(drifted))

    # Each refusal below is one early return of the fast path, forced on the
    # first steady-state drift of instance 0 -- an instance whose fast path
    # otherwise hits (see test_every_steady_state_hit_re_proposes).
    @staticmethod
    def once(monkeypatch, owner, name, replacement):
        """Replace ``owner.name`` for its first call only -- the fast path's
        -- with ``replacement(original, *args)``; return the calls seen."""
        original = getattr(owner, name)
        calls = []

        def patched(*args):
            calls.append(args)
            if len(calls) == 1:
                return replacement(original, *args)
            return original(*args)

        monkeypatch.setattr(owner, name, patched)
        return calls

    def refused(self, solver, drifted):
        """Solve ``drifted``; assert the solve ran the cold loop and matches a
        solver with warm starts disabled byte for byte."""
        decision = solver.solve(drifted)
        cold = self.solver(warm_start=False).solve(drifted)
        assert decision.stats.cuts_warm == 0
        assert decision.stats.iterations == cold.stats.iterations
        assert fingerprint(decision) == fingerprint(cold)
        return decision

    def test_an_identity_never_solved_builds_no_seeded_master(self, monkeypatch):
        _, (drifted,) = self.drift(0, count=1, tag="steady")
        solver = self.solver()
        seen = self.spy(monkeypatch)
        decision = self.refused(solver, drifted)
        # Every master solve was a round of the cold loop (the warm-disabled
        # reference solve above adds as many again).
        assert len(seen["proposed"]) == 2 * decision.stats.iterations
        assert solver.cut_pool.entry(drifted.identity()) is not None

    def test_a_pool_that_seeds_no_cut_runs_cold(self, monkeypatch):
        base, (drifted,) = self.drift(0, count=1, tag="steady")
        solver = self.solver()
        solver.solve(base)

        def seeding_nothing(original, pool, key, master, slave):
            _, previous_x = original(pool, key, master, slave)
            return 0, previous_x

        self.once(monkeypatch, CutPool, "seed_master", seeding_nothing)
        seen = self.spy(monkeypatch)
        decision = self.refused(solver, drifted)
        # No seeded master was solved: nothing bounds it.
        assert len(seen["proposed"]) == 2 * decision.stats.iterations

    def test_an_unsolved_seeded_master_runs_cold(self, monkeypatch):
        base, (drifted,) = self.drift(0, count=1, tag="steady")
        solver = self.solver()
        solver.solve(base)

        def unsolved(original, solver, master):
            solved = original(solver, master)
            return replace(solved, success=False, status="forced: not solved")

        calls = self.once(monkeypatch, BendersSolver, "_solve_master", unsolved)
        decision = self.refused(solver, drifted)
        # The seeded master, then every round of the cold loop, then the
        # warm-disabled reference solve.
        assert len(calls) == 1 + 2 * decision.stats.iterations

    def test_an_infeasible_previous_decision_runs_cold(self, monkeypatch):
        base, (drifted,) = self.drift(0, count=1, tag="steady")
        solver = self.solver()
        solver.solve(base)
        previous_x = solver.cut_pool.entry(drifted.identity()).best_x

        def infeasible(original, slave, x):
            return replace(original(slave, x), feasible=False)

        calls = self.once(monkeypatch, SlaveProblem, "evaluate", infeasible)
        self.refused(solver, drifted)
        assert np.array_equal(calls[0][1], previous_x)

    def test_a_re_proposal_with_an_open_gap_runs_cold(self, monkeypatch):
        base, (drifted,) = self.drift(0, count=1, tag="steady")
        solver = self.solver()
        solver.solve(base)
        previous_x = solver.cut_pool.entry(drifted.identity()).best_x
        self.once(monkeypatch, BendersSolver, "_gap_target", lambda *_: -np.inf)
        seen = self.spy(monkeypatch)
        self.refused(solver, drifted)
        # The seeded master re-proposed the previous decision: only the
        # stopping rule refused the hit.
        assert np.array_equal(seen["proposed"][0], previous_x)
