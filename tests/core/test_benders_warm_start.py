"""Unit tests for the Benders cross-epoch warm-start layer (CutPool)."""

from dataclasses import replace

import numpy as np

import repro.core.benders as benders
from repro.core.benders import BendersSolver, CutPool, _MasterState
from repro.core.decomposition import SlaveProblem
from repro.core.forecast_inputs import ForecastInput
from repro.core.problem import ACRRProblem
from repro.core.slices import EMBB_TEMPLATE, make_requests
from repro.scenarios import DIFFERENTIAL_FAMILY, sample_scenario
from repro.scenarios.oracle import _perturbed_forecast_sequence, problem_for_scenario
from repro.topology.paths import compute_path_sets
from repro.utils.journal import Journal
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


def certificate(pool: CutPool, key: tuple):
    """The certificate the pool's one slot holds for ``key``."""
    assert key in pool
    return pool._slot[1]


def seeded_counts(monkeypatch) -> list[int]:
    """How many cuts each :meth:`CutPool.seed_master` call seeds, in call
    order, for the rest of the test."""
    counts = []
    seed_master = CutPool.seed_master

    def noting(pool, key, master, slave):
        seeded, best_x = seed_master(pool, key, master, slave)
        counts.append(len(seeded))
        return seeded, best_x

    monkeypatch.setattr(CutPool, "seed_master", noting)
    return counts


def stored(multipliers) -> list:
    """Multipliers as comparable ``(block_id, bytes)`` pairs."""
    return [(block_id, mu.tobytes()) for mu, block_id in multipliers]


class TestCutPool:
    def test_empty_pool_seeds_nothing(self):
        problem = small_problem()
        pool = CutPool()
        slave = SlaveProblem(problem)
        master = fresh_master(problem, slave)
        seeded, best_x = pool.seed_master(problem.identity(), master, slave)
        assert seeded == []
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
        assert len(seeded) == decision.stats.cuts_optimality + decision.stats.cuts_feasibility
        assert stored(seeded) == stored(certificate(pool, key).multipliers)
        assert master.num_cuts == len(seeded)
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
        assert seeded == []
        assert best_x is None

    def test_severely_stale_cuts_are_skipped(self, monkeypatch):
        monkeypatch.setattr(benders, "_MAX_RELATIVE_SLACK", 0.0)
        problem = small_problem(load_fraction=0.2)
        pool = CutPool()
        solver = BendersSolver(warm_start=True)
        solver.cut_pool = pool
        solver.solve(problem)
        # A big perturbation changes the slave objective d; with a zero slack
        # budget every optimality cut whose dual feasibility moved is skipped.
        big = perturbed(problem, 3.0)
        slave = SlaveProblem(big)
        master = fresh_master(big, slave)
        seeded, _ = pool.seed_master(big.identity(), master, slave)
        assert len(seeded) < len(certificate(pool, big.identity()).multipliers)
        assert master.num_cuts == len(seeded)

    def test_cut_cap_keeps_the_newest(self, monkeypatch):
        monkeypatch.setattr(benders, "_MAX_CUTS_PER_STRUCTURE", 3)
        pool = CutPool()
        key = ("k",)
        mus = [(np.full(4, float(i)), None) for i in range(5)]
        pool.record(key, 4, mus, best_x=np.zeros(2))
        entry = certificate(pool, key)
        assert len(entry.multipliers) == 3
        assert entry.multipliers[0][0][0] == 2.0  # oldest two evicted

    def test_record_stores_each_multiplier_once(self):
        pool = CutPool()
        key = ("k",)
        pool.record(key, 4, [(np.full(4, 7.0), None), (np.ones(4), 0)], np.zeros(2))
        # Same block and bytes: skipped; the same mu on another block is
        # another cut.  What the slot held before is gone (the 7s).
        batch = [(np.ones(4), 0), (np.zeros(4), None), (np.ones(4), 1), (np.ones(4), 1)]
        pool.record(key, 4, batch, np.ones(2))
        entry = certificate(pool, key)
        assert [(mu.tolist(), block) for mu, block in entry.multipliers] == [
            ([1.0] * 4, 0),
            ([0.0] * 4, None),
            ([1.0] * 4, 1),
        ]
        assert entry.best_x.tolist() == [1.0, 1.0]

    def test_another_identity_replaces_the_slot(self):
        a, b = small_problem(), small_problem(num_tenants=5)
        solver = BendersSolver(warm_start=True)
        solver.solve(a)
        assert a.identity() in solver.cut_pool
        solver.solve(b)
        assert b.identity() in solver.cut_pool and a.identity() not in solver.cut_pool
        # A -> B -> A: the third solve seeds nothing and decides what cold
        # decides.
        again = solver.solve(a)
        assert again.stats.cuts_warm == 0
        assert fingerprint(again) == fingerprint(BendersSolver(warm_start=False).solve(a))
        assert a.identity() in solver.cut_pool


class TestCertificate:
    """The slot holds the certificate of the last decision, and only it."""

    def test_a_cold_solve_leaves_exactly_its_own_multipliers(self, monkeypatch):
        # Instance 32's first drift runs the cold loop (its seeded master
        # proposes another vector, see TestReProposal): the slot then holds
        # that loop's multipliers, none of the base solve's.
        base, (drifted,) = TestReProposal.drift(32, count=1, tag="overlap")
        solver = TestReProposal.solver()
        solver.solve(base)
        held_before = stored(certificate(solver.cut_pool, base.identity()).multipliers)
        generated = []
        add_cuts = BendersSolver._add_cuts

        def noting(master, slave, state, outcome, block_outcomes):
            add_cuts(master, slave, state, outcome, block_outcomes)
            generated[:] = state.multipliers

        monkeypatch.setattr(BendersSolver, "_add_cuts", staticmethod(noting))
        decision = solver.solve(drifted)
        assert decision.stats.cuts_warm == 0 and decision.stats.iterations > 1
        held = stored(certificate(solver.cut_pool, drifted.identity()).multipliers)
        assert held == list(dict.fromkeys(stored(generated)))
        assert set(held_before) - set(held)  # the base solve's are gone

    def test_a_hit_keeps_the_tight_seeded_multipliers_and_its_aggregate(self, monkeypatch):
        base, drifted = TestReProposal.drift(0, count=6, tag="steady")
        solver = TestReProposal.solver()
        solver.solve(base)
        seen = {}
        seed_master, solve_master = CutPool.seed_master, BendersSolver._solve_master

        def noting_seed(pool, key, master, slave):
            seen["seeded"], best_x = seed_master(pool, key, master, slave)
            seen["master"] = master
            return seen["seeded"], best_x

        def noting_solve(solver, master):
            solved = solve_master(solver, master)
            if master is seen.get("master"):
                seen["tight"] = master.tight_cuts(solved.values)
            return solved

        monkeypatch.setattr(CutPool, "seed_master", noting_seed)
        monkeypatch.setattr(BendersSolver, "_solve_master", noting_solve)
        slack = 0
        for problem in drifted:
            previous_x = certificate(solver.cut_pool, problem.identity()).best_x
            decision = solver.solve(problem)
            assert decision.stats.iterations == 1
            assert decision.stats.cuts_warm == len(seen["seeded"])
            tight = [m for m, bound in zip(seen["seeded"], seen["tight"]) if bound]
            slack += len(seen["seeded"]) - len(tight)
            priced = SlaveProblem(problem).evaluate(previous_x).duals
            entry = certificate(solver.cut_pool, problem.identity())
            assert stored(entry.multipliers) == list(
                dict.fromkeys(stored(tight + [(priced, None)]))
            )
            assert np.array_equal(entry.best_x, previous_x)
        assert slack > 0  # slack cuts were seeded, and left

    def test_tight_means_within_the_relative_feasibility_tolerance(self):
        class Solved:
            def cut_rows(self):
                cuts = np.array([[1.0, 0.0], [0.0, 1.0], [1000.0, 0.0]])
                return cuts, np.array([2.0, 1.0, 2000.0 - 5e-5])

        # At (2, 3) the first cut is tight, the second slack, the third tight
        # within the relative tolerance (1e-7 of an activity of 1e3).
        tight = _MasterState.tight_cuts(Solved(), np.array([2.0, 3.0]))
        assert tight.tolist() == [True, False, True]

    def test_an_unseedable_multiplier_is_gone_after_one_hit(self):
        """Wrong length, no such block: never seeded, so never tight."""
        base, (drifted,) = TestReProposal.drift(0, count=1, tag="steady")
        solver = TestReProposal.solver()
        solver.solve(base)
        pool, key = solver.cut_pool, base.identity()
        entry = certificate(pool, key)
        junk = [(np.ones(3), None), (np.ones(entry.num_rows), 99)]
        pool.record(key, entry.num_rows, list(entry.multipliers) + junk, entry.best_x)
        assert len(certificate(pool, key).multipliers) == len(entry.multipliers) + 2
        decision = solver.solve(drifted)
        assert decision.stats.iterations == 1
        assert decision.stats.cuts_warm == len(entry.multipliers)  # junk skipped
        multipliers = certificate(pool, key).multipliers
        assert not any(len(mu) == 3 or block == 99 for mu, block in multipliers)

    def test_each_solve_writes_the_pool_once(self):
        # Cold, a miss after a seeded master (instance 32), then hits: the
        # epoch journal notes one write, the slot, per solve.
        for index, tag, count in ((32, "overlap", 1), (0, "steady", 3)):
            base, drifted = TestReProposal.drift(index, count=count, tag=tag)
            solver = TestReProposal.solver()
            for problem in [base] + drifted:
                with Journal() as journal:
                    solver.solve(problem)
                assert len(journal) == 1 and problem.identity() in solver.cut_pool

    def test_a_rollback_restores_the_slot(self):
        pool = CutPool()
        pool.record(("a",), 4, [(np.full(4, float(i)), None) for i in range(3)], np.zeros(2))
        before = pool._slot
        journal = Journal()
        with journal:
            pool.record(("b",), 4, [(np.ones(4), 0)], np.ones(2))
            assert ("b",) in pool and ("a",) not in pool
        journal.rollback()
        # The journal kept the replaced slot itself, not a copy of it.
        assert pool._slot is before and ("a",) in pool


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
    def test_fast_path_replays_identical_resolve(self, monkeypatch):
        problem = small_problem()
        solver = BendersSolver(warm_start=True)
        first = solver.solve(problem)
        seeded = seeded_counts(monkeypatch)
        second = solver.solve(problem)
        # A byte-identical instance has no tier of its own: the stored cuts
        # are seeded and the previous optimum is re-certified, or the solve
        # runs cold -- the same decision either way.
        assert seeded[0] > 0
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

    def test_shared_pool_across_solver_instances(self, monkeypatch):
        pool = CutPool()
        problem = small_problem()
        solvers = [BendersSolver(warm_start=True), BendersSolver(warm_start=True)]
        for solver in solvers:
            solver.cut_pool = pool
        seeded = seeded_counts(monkeypatch)
        first = solvers[0].solve(problem)
        second = solvers[1].solve(problem)
        # The second instance starts from what the first one recorded.
        assert len(seeded) == 1 and seeded[0] > 0  # the first found nothing to seed
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
        previous_x = certificate(solver.cut_pool, drifted.identity()).best_x
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
        assert drifted.identity() in solver.cut_pool

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
        previous_x = certificate(solver.cut_pool, drifted.identity()).best_x

        def infeasible(original, slave, x, *basis):
            return replace(original(slave, x, *basis), feasible=False)

        calls = self.once(monkeypatch, SlaveProblem, "evaluate", infeasible)
        self.refused(solver, drifted)
        assert np.array_equal(calls[0][1], previous_x)

    def test_a_re_proposal_with_an_open_gap_runs_cold(self, monkeypatch):
        base, (drifted,) = self.drift(0, count=1, tag="steady")
        solver = self.solver()
        solver.solve(base)
        previous_x = certificate(solver.cut_pool, drifted.identity()).best_x
        self.once(monkeypatch, BendersSolver, "_gap_target", lambda *_: -np.inf)
        seen = self.spy(monkeypatch)
        self.refused(solver, drifted)
        # The seeded master re-proposed the previous decision: only the
        # stopping rule refused the hit.
        assert np.array_equal(seen["proposed"][0], previous_x)


class TestHotStartedPricing:
    """A hit prices the previous decision with the slave LP hot-started
    from the basis the previous hit left in the certificate.  Instance 0's
    steady drifts all hit (see TestReProposal)."""

    @staticmethod
    def priced(monkeypatch) -> list[tuple[bytes, object]]:
        """``(x, basis handed)`` of every slave LP solved, in call order."""
        priced, real = [], SlaveProblem._evaluate

        def noting(slave, x, basis=None):
            priced.append((np.asarray(x, dtype=float).tobytes(), basis))
            return real(slave, x, basis)

        monkeypatch.setattr(SlaveProblem, "_evaluate", noting)
        return priced

    def test_a_hit_right_after_a_cold_solve_prices_cold_and_leaves_a_basis(self, monkeypatch):
        base, drifted = TestReProposal.drift(0, count=3, tag="steady")
        solver = TestReProposal.solver()
        solver.solve(base)
        assert solver.cut_pool.slave_basis(base.identity()) is None
        priced = self.priced(monkeypatch)
        messages, held = [], []
        for problem in drifted:
            del priced[:]
            previous_x = certificate(solver.cut_pool, problem.identity()).best_x
            handed = solver.cut_pool.slave_basis(problem.identity())
            messages.append(solver.solve(problem).stats.message)
            # One slave LP: the previous decision, from the held basis.
            assert priced == [(previous_x.tobytes(), handed)]
            held.append(solver.cut_pool.slave_basis(problem.identity()))
        # The message names how the pricing started: cold after the cold
        # solve, hot from the basis each hit leaves for the next.
        assert [message.rsplit(", ", 1)[-1] for message in messages] == [
            "cold pricing)",
            "hot pricing)",
            "hot pricing)",
        ]
        assert all(basis is not None for basis in held) and len(set(map(id, held))) == 3

    def test_a_hot_started_pricing_equals_a_cold_one_bit_for_bit(self):
        base, drifted = TestReProposal.drift(0, count=4, tag="steady")
        solver = TestReProposal.solver()
        solver.solve(base)
        hot_starts = 0
        for problem in drifted:
            basis = solver.cut_pool.slave_basis(problem.identity())
            previous_x = certificate(solver.cut_pool, problem.identity()).best_x
            solver.solve(problem)
            if basis is None:
                continue
            hot_starts += 1
            hot = SlaveProblem(problem).evaluate(previous_x, basis)
            cold = SlaveProblem(problem).evaluate(previous_x)
            assert hot is not cold and hot.basis is not None
            assert hot.objective == cold.objective
            for field in ("y", "z", "duals"):
                assert np.array_equal(getattr(hot, field), getattr(cold, field)), field
        assert hot_starts == 3

    def test_a_hot_outcome_is_not_remembered(self):
        # Hot-started pricing never enters the slave's memo: the next cold
        # call at the same x solves again, cold, and is remembered.
        base, (drifted,) = TestReProposal.drift(0, count=1, tag="steady")
        solver = TestReProposal.solver()
        solver.solve(base)
        x = certificate(solver.cut_pool, base.identity()).best_x
        basis = SlaveProblem(base).evaluate(x).basis
        slave = SlaveProblem(drifted)
        hot = slave.evaluate(x, basis)
        assert slave._last_outcome is None
        cold = slave.evaluate(x)
        assert cold is not hot and slave.evaluate(x) is cold

    def test_a_miss_after_a_hot_started_pricing_re_prices_cold(self, monkeypatch):
        base, drifted = TestReProposal.drift(0, count=2, tag="steady")
        solver = TestReProposal.solver()
        for problem in (base, drifted[0]):
            solver.solve(problem)
        previous_x = certificate(solver.cut_pool, drifted[1].identity()).best_x
        assert solver.cut_pool.slave_basis(drifted[1].identity()) is not None
        priced = self.priced(monkeypatch)
        # The stopping rule refuses the hit, after the hot-started pricing.
        TestReProposal.once(monkeypatch, BendersSolver, "_gap_target", lambda *_: -np.inf)
        decision = solver.solve(drifted[1])
        assert priced[0][0] == previous_x.tobytes() and priced[0][1] is not None
        # The cold loop priced every candidate cold -- the previous decision
        # again, if proposed -- and returned what a solver with warm starts
        # disabled returns.
        assert priced[1:] and all(basis is None for _, basis in priced[1:])
        cold = TestReProposal.solver(warm_start=False).solve(drifted[1])
        assert decision.stats.cuts_warm == 0
        assert decision.stats.iterations == cold.stats.iterations
        assert fingerprint(decision) == fingerprint(cold)
        assert solver.cut_pool.slave_basis(drifted[1].identity()) is None
