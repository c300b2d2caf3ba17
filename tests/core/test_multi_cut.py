"""Multi-cut Benders disaggregation: blocks, lazy cut storage, typed errors.

Unit-level companions to the differential sweep in
``tests/differential/test_differential_solvers.py``: the per-tenant block
relaxation must lower-bound the joint slave (the soundness inequality
``q(x) >= sum_b q_b(x)``), one stacked LP must price a round's blocks
exactly as the per-block reference does, the master must queue cut rows
without building a sparse object per cut, an essentially-feasible LP
failure or a strong-duality violation must raise the typed
:class:`SlaveNumericalError`, and a wall-clock-truncated solve must say so
in its stats.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from repro.core.benders import BendersSolver, _MasterState
from repro.core.decomposition import SlaveNumericalError, SlaveProblem
from repro.core.lpsolver import CompiledLP, LPSolution, MILPSolution
from repro.core.milp_solver import DirectMILPSolver
from repro.core.problem import InfeasibleProblemError
from repro.faults import TIER_PRIMARY, SafeguardedSolver
from repro.scenarios import decision_fingerprint


def accept_all_edge(problem) -> np.ndarray:
    x = np.zeros(problem.num_items)
    for item in problem.items:
        if item.path.compute_unit == "edge-cu":
            x[item.index] = 1.0
    return x


def per_block_reference(slave: SlaveProblem, x: np.ndarray):
    """Every block priced by its own LP: what the stacked call must equal."""
    return [slave.evaluate_block(block, x) for block in slave.blocks()]


def assert_same_outcomes(stacked, reference):
    assert len(stacked) == len(reference)
    for a, b in zip(stacked, reference):
        assert a.block_index == b.block_index
        assert np.array_equal(a.duals, b.duals)  # bit-identical, not approx
        assert abs(a.objective - b.objective) <= 1e-12


def patch_slave_lp(monkeypatch, solve) -> None:
    """Route every LP the slave solves (``decomposition.CompiledLP``, the one
    seam) through ``solve(lp, b_ub, real_solve)``.  Phase-1 certificates
    compile inside ``lpsolver`` and are not touched."""

    class PatchedLP(CompiledLP):
        def solve(self, b_ub, basis=None):
            return solve(self, b_ub, lambda b: super(PatchedLP, self).solve(b, basis))

    monkeypatch.setattr("repro.core.decomposition.CompiledLP", PatchedLP)


def counting_slave_lp(monkeypatch) -> list:
    """Route the slave's LP solves through a call counter."""
    calls = []

    def counted(lp, b_ub, real_solve):
        calls.append(len(b_ub))
        return real_solve(b_ub)

    patch_slave_lp(monkeypatch, counted)
    return calls


class TestResourceBlocks:
    def test_blocks_partition_the_items_by_tenant(self, mixed_problem):
        blocks = mixed_problem.resource_blocks()
        assert len(blocks) == len(mixed_problem.requests)
        covered = sorted(i for block in blocks for i in block.item_indices)
        assert covered == list(range(mixed_problem.num_items))
        for block in blocks:
            expected = [
                item.index for item in mixed_problem.items_of_tenant(block.tenant_index)
            ]
            assert list(block.item_indices) == expected

    def test_block_objectives_lower_bound_the_joint_slave(self, embb_problem):
        # The soundness inequality behind the disaggregation: each block
        # restricts the slave to one tenant's columns while keeping the full
        # right-hand side, a relaxation, so the block optima sum to at most
        # the joint slave optimum at the same admission vector.
        slave = SlaveProblem(embb_problem)
        x = accept_all_edge(embb_problem)
        joint = slave.evaluate(x)
        assert joint.feasible
        outcomes = slave.evaluate_blocks(x)
        assert sum(o.objective for o in outcomes) <= joint.objective + 1e-8

    def test_block_cuts_are_valid_at_their_generating_point(self, embb_problem):
        slave = SlaveProblem(embb_problem)
        x = accept_all_edge(embb_problem)
        for block, outcome in zip(slave.blocks(), slave.evaluate_blocks(x)):
            coeff = slave.cut_coefficients([(outcome.duals, block.slave_rows)])[:, 0]
            rhs = -float(np.dot(slave.h0[block.slave_rows], outcome.duals))
            # theta_b + coeff' x >= rhs holds with theta_b = q_b(x): LP
            # duality makes it tight at the generating point.
            assert outcome.objective + float(coeff @ x) >= rhs - 1e-8

    def test_blocks_are_disjoint_ranges_of_the_stack(self, mixed_problem):
        slave = SlaveProblem(mixed_problem)
        stack = slave.block_stack()
        row_stop = col_stop = 0
        for block in slave.blocks():
            assert (block.rows.start, block.cols.start) == (row_stop, col_stop)
            row_stop, col_stop = block.rows.stop, block.cols.stop
            assert block.num_rows >= 5 * ((block.cols.stop - block.cols.start) // 2)
        assert stack.g_matrix.shape == (row_stop, col_stop)
        assert col_stop == 2 * mixed_problem.num_items
        # Block-diagonal: no entry couples one block's rows to another's columns.
        coupled = stack.g_matrix.tocoo()
        owner_of_row = np.repeat(
            np.arange(len(slave.blocks())), [b.num_rows for b in slave.blocks()]
        )
        owner_of_col = np.repeat(
            np.arange(len(slave.blocks())),
            [b.cols.stop - b.cols.start for b in slave.blocks()],
        )
        assert np.array_equal(owner_of_row[coupled.row], owner_of_col[coupled.col])


class TestStackedPricing:
    """Tentpole: one block-diagonal LP prices every block of a round."""

    def test_stacked_pricing_matches_per_block_reference(self, mixed_problem):
        slave = SlaveProblem(mixed_problem)
        for x in (
            np.zeros(mixed_problem.num_items),
            accept_all_edge(mixed_problem),
            np.ones(mixed_problem.num_items),
        ):
            assert_same_outcomes(slave.evaluate_blocks(x), per_block_reference(slave, x))

    def test_failed_stacked_call_raises_the_typed_error(self, mixed_problem, monkeypatch):
        # Doubling one tenant's admission variables breaks its coupling rows
        # (12), so the stacked LP is infeasible.  No master candidate gets
        # here (the capacity surrogate keeps every block feasible), so the
        # failure is numerical: the typed error, not a per-block fallback.
        calls = counting_slave_lp(monkeypatch)
        slave = SlaveProblem(mixed_problem)
        broken = slave.blocks()[1]
        x = np.zeros(mixed_problem.num_items)
        x[list(mixed_problem.resource_blocks()[1].item_indices)] = 2.0
        with pytest.raises(SlaveNumericalError, match="stacked block LP not solved"):
            slave.evaluate_blocks(x)
        assert len(calls) == 1  # the stacked call, and no block priced on its own
        with pytest.raises(SlaveNumericalError, match=f"block {broken.index} LP not solved"):
            slave.evaluate_block(broken, x)

    def test_feasible_round_makes_two_lp_calls_whatever_the_tenant_count(
        self, embb_problem, mixed_problem, monkeypatch
    ):
        calls = counting_slave_lp(monkeypatch)
        candidates = []
        real_evaluate = SlaveProblem.evaluate

        def recording_evaluate(slave, x):
            candidates.append(np.asarray(x, dtype=float).tobytes())
            return real_evaluate(slave, x)

        monkeypatch.setattr(SlaveProblem, "evaluate", recording_evaluate)
        for problem in (embb_problem, mixed_problem):
            for num_tenants in (2, len(problem.requests)):
                sub = type(problem)(
                    topology=problem.topology,
                    path_set=problem.path_set,
                    requests=problem.requests[:num_tenants],
                    forecasts={
                        request.name: problem.forecast(request.name)
                        for request in problem.requests[:num_tenants]
                    },
                )
                del calls[:], candidates[:]
                decision = BendersSolver(
                    max_iterations=30,
                    master_time_limit_s=None,
                    time_limit_s=None,
                    warm_start=False,
                ).solve(sub)
                # Every master candidate satisfies the floor-footprint
                # surrogate, so every round is slave-feasible: one aggregate
                # LP plus one stacked block LP, never one per tenant -- and
                # none at all when the master re-proposes the candidate the
                # previous round already priced.
                assert len(candidates) == decision.stats.iterations
                fresh = sum(
                    1
                    for previous, current in zip([None, *candidates], candidates)
                    if current != previous
                )
                assert len(calls) == 2 * fresh
                assert len(SlaveProblem(sub).blocks()) == num_tenants

    def test_repeated_candidate_is_not_repriced(self, mixed_problem, monkeypatch):
        calls = counting_slave_lp(monkeypatch)
        slave = SlaveProblem(mixed_problem)
        x, other = accept_all_edge(mixed_problem), np.zeros(mixed_problem.num_items)
        first = slave.evaluate(x), slave.evaluate_blocks(x)
        assert len(calls) == 2
        again = slave.evaluate(x.copy()), slave.evaluate_blocks(x.copy())
        assert len(calls) == 2  # byte-identical LPs: the outcomes are remembered
        assert again[0] is first[0] and again[1] is first[1]
        slave.evaluate(other), slave.evaluate_blocks(other)
        assert len(calls) == 4
        # Only the last candidate is kept: coming back to x prices it again.
        assert_same_outcomes(slave.evaluate_blocks(x), first[1])
        assert len(calls) == 5

    def test_solver_decision_equals_the_per_block_reference(
        self, mixed_problem, monkeypatch
    ):
        def solve():
            return BendersSolver(
                tolerance=1e-9,
                relative_tolerance=1e-9,
                max_iterations=30,
                master_time_limit_s=None,
                time_limit_s=None,
                warm_start=False,
            ).solve(mixed_problem)

        stacked = solve()
        monkeypatch.setattr(SlaveProblem, "evaluate_blocks", per_block_reference)
        reference = solve()
        assert decision_fingerprint(stacked) == decision_fingerprint(reference)
        assert stacked.stats.iterations == reference.stats.iterations


def add_cut(master: _MasterState, coefficients, rhs: float, block_id=None) -> None:
    """One cut through ``add_cuts``: a block of one column."""
    master.add_cuts(np.asarray(coefficients)[:, np.newaxis], [rhs], [block_id])


class TestLazyCutAccumulation:
    """Satellite: ``add_cuts`` must queue rows, not re-stack the matrix."""

    def _master(self, problem):
        lowers = [block.theta_lower for block in SlaveProblem(problem).blocks()]
        return _MasterState(problem, problem.objective_x(), lowers)

    def test_add_cut_does_not_stack(self, embb_problem):
        master = self._master(embb_problem)
        static = master._rows
        for k in range(10):
            add_cut(master, np.zeros(embb_problem.num_items), -float(k))
        assert master.num_cuts == 10
        assert master._rows is static  # nothing merged yet
        assert master._merged_cuts == 0

    def test_constraints_merges_queued_rows_once_and_caches(self, embb_problem):
        master = self._master(embb_problem)
        for k in range(5):
            add_cut(master, np.zeros(embb_problem.num_items), -float(k))
        matrix, lower, upper = master.rows()
        num_static = master.num_static_rows
        assert matrix.shape == (num_static + 5, embb_problem.num_items + master.num_thetas)
        assert list(lower[num_static:]) == [-float(k) for k in range(5)]
        assert np.all(upper[num_static:] == np.inf)
        assert master._merged_cuts == 5
        # No new cuts: the merged matrix is handed out as-is, no re-stacking.
        again, _, _ = master.rows()
        assert again is matrix
        # New cuts are merged below the rows already there, order preserved.
        add_cut(master, np.zeros(embb_problem.num_items), -99.0)
        grown, grown_lower, _ = master.rows()
        assert grown.shape[0] == num_static + 6
        assert grown_lower[-1] == -99.0
        cuts, rhs = master.cut_rows()
        assert cuts.shape == (6, embb_problem.num_items + master.num_thetas)
        assert rhs[-1] == -99.0

    def test_add_cut_builds_nothing_sparse_and_constraints_merges_once(
        self, embb_problem, monkeypatch
    ):
        # The invariant behind the lazy store: zero sparse constructions per
        # add_cut; per rows() call with rows queued, one construction -- the
        # queued batch is appended below the columns in one pass, whatever
        # its size; none with nothing queued.
        built = []
        real = sparse.csc_matrix

        class CountingCSC(real):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        master = self._master(embb_problem)
        monkeypatch.setattr("repro.core.lpsolver.sparse.csc_matrix", CountingCSC)
        for k in range(50):
            add_cut(master, np.zeros(embb_problem.num_items), -float(k))
        assert built == []  # queueing is sparse-free
        master.rows()
        assert len(built) == 1  # the merged matrix
        master.rows()
        assert len(built) == 1  # nothing queued: no work
        for k in range(50):
            add_cut(master, np.zeros(embb_problem.num_items), -float(k))
        assert len(built) == 1
        matrix, _, _ = master.rows()
        assert len(built) == 2
        assert matrix.shape[0] == master.num_static_rows + 100

    def test_merged_matrix_equals_per_row_csr_stacking(self, embb_problem):
        # Same content, bit for bit, as stacking one csr_matrix per cut under
        # the static rows and converting -- what the master used to do.
        rng = np.random.default_rng(3)
        n = embb_problem.num_items
        coefficients = rng.normal(size=(12, n)) * (rng.random((12, n)) < 0.3)
        master = self._master(embb_problem)
        static = master.rows()[0].copy()
        for row in coefficients[:7]:
            add_cut(master, row, 0.0)
        master.rows()
        block_ids = [k % master.num_thetas for k in range(5)]
        for row, block_id in zip(coefficients[7:], block_ids):
            add_cut(master, row, 0.0, block_id)
        rows, _, _ = master.rows()
        # Aggregate cuts bound every surrogate, block cuts their block's own.
        theta = np.vstack([np.ones((7, master.num_thetas)), np.eye(master.num_thetas)[block_ids]])
        expected = sparse.vstack(
            [static.tocsr()]
            + [
                sparse.csr_matrix(np.concatenate([row, t]).reshape(1, -1))
                for row, t in zip(coefficients, theta)
            ],
            format="csr",
        ).tocsc()
        assert rows.has_canonical_format
        assert np.array_equal(rows.indptr, expected.indptr)
        assert np.array_equal(rows.indices, expected.indices)
        assert np.array_equal(rows.data, expected.data)

    def test_multi_theta_master_pads_cuts_correctly(self, mixed_problem):
        slave = SlaveProblem(mixed_problem)
        lowers = np.array([block.theta_lower for block in slave.blocks()])
        master = _MasterState(mixed_problem, mixed_problem.objective_x(), lowers)
        assert master.num_thetas == len(lowers)
        n = mixed_problem.num_items
        add_cut(master, np.zeros(n), 0.0)  # aggregate: all surrogates
        add_cut(master, np.zeros(n), 0.0, block_id=2)
        add_cut(master, np.zeros(n), 0.0, block_id=0)
        cuts, _ = master.cut_rows()
        rows, _, _ = master.rows()
        assert np.array_equal(rows.toarray()[master.num_static_rows :], cuts)
        theta_part = cuts[:, n:]
        assert list(theta_part[0]) == [1.0] * master.num_thetas
        assert theta_part[1].sum() == 1.0 and theta_part[1][2] == 1.0
        assert theta_part[2].sum() == 1.0 and theta_part[2][0] == 1.0


class TestSlaveNumericalError:
    """Satellite: an essentially-feasible LP failure raises a typed error."""

    @staticmethod
    def _failed_lp(lp, b_ub, real_solve):
        return LPSolution(
            success=False,
            status="numerical breakdown",
            objective=float("nan"),
            primal=np.zeros(lp.num_cols),
            duals_upper=np.zeros(lp.num_rows),
            infeasible=False,
        )

    def test_evaluate_raises_typed_error_on_feasible_failure(
        self, embb_problem, monkeypatch
    ):
        # x = 0 is trivially slave-feasible, so when the LP claims failure
        # the phase-1 certificate finds ~zero infeasibility: neither an
        # optimality nor a feasibility cut would be honest.  The pre-fix
        # code raised a bare RuntimeError here despite a comment promising
        # an infeasible outcome; now the error is typed so the safeguard
        # chain can catch it without matching on strings.
        patch_slave_lp(monkeypatch, self._failed_lp)
        slave = SlaveProblem(embb_problem)
        with pytest.raises(SlaveNumericalError, match="numerical breakdown"):
            slave.evaluate(np.zeros(embb_problem.num_items))

    def test_block_evaluation_raises_the_same_typed_error(
        self, embb_problem, monkeypatch
    ):
        patch_slave_lp(monkeypatch, self._failed_lp)
        slave = SlaveProblem(embb_problem)
        with pytest.raises(SlaveNumericalError, match="block 0 LP not solved: numerical"):
            slave.evaluate_block(slave.blocks()[0], np.zeros(embb_problem.num_items))

    def test_stacked_failure_on_a_feasible_instance_raises_the_typed_error(
        self, embb_problem, monkeypatch
    ):
        # The stacked call fails on a feasible instance: typed error, no cut.
        patch_slave_lp(monkeypatch, self._failed_lp)
        slave = SlaveProblem(embb_problem)
        with pytest.raises(SlaveNumericalError, match="stacked block LP not solved: numerical"):
            slave.evaluate_blocks(np.zeros(embb_problem.num_items))

    @pytest.mark.parametrize("entry_point", ["evaluate_blocks", "evaluate_block"])
    def test_corrupted_duals_trip_the_strong_duality_invariant(
        self, embb_problem, monkeypatch, entry_point
    ):
        # Multipliers shifted by one row -- what a mis-sliced stack would
        # hand out -- no longer reproduce the block's primal objective.
        def shifted_duals(lp, b_ub, real_solve):
            solution = real_solve(b_ub)
            return dataclasses.replace(
                solution, duals_upper=np.roll(solution.duals_upper, 1)
            )

        x = accept_all_edge(embb_problem)
        assert any(
            outcome.objective < -1e-3
            for outcome in SlaveProblem(embb_problem).evaluate_blocks(x)
        )
        patch_slave_lp(monkeypatch, shifted_duals)
        # A fresh slave: LPs compile (and candidates are remembered) per slave.
        slave = SlaveProblem(embb_problem)
        with pytest.raises(SlaveNumericalError, match="strong duality"):
            if entry_point == "evaluate_blocks":
                slave.evaluate_blocks(x)
            else:
                for block in slave.blocks():
                    slave.evaluate_block(block, x)

    def test_certified_duals_pass_the_invariant_with_room_to_spare(self, mixed_problem):
        slave = SlaveProblem(mixed_problem)
        stack = slave.block_stack()
        x = accept_all_edge(mixed_problem)
        b = slave.rhs(x)[stack.slave_rows]
        for block, outcome in zip(slave.blocks(), slave.evaluate_blocks(x)):
            residual = abs(outcome.objective + float(b[block.rows] @ outcome.duals))
            assert residual <= 1e-9 * max(1.0, abs(outcome.objective))

    def test_error_is_a_runtime_error_for_the_safeguard_chain(self):
        # The safeguard chain's fall-through tier catches RuntimeError; the
        # typed subclass must stay inside that net (and is deterministic,
        # so it must NOT be a TransientSolverError retry candidate).
        assert issubclass(SlaveNumericalError, RuntimeError)


class TestTimeTruncation:
    """Satellite: a budget-stopped solve must say so, not just look odd."""

    def test_truncated_solve_surfaces_the_flag_and_message(self, mixed_problem):
        solver = BendersSolver(
            tolerance=1e-15,
            relative_tolerance=1e-15,
            max_iterations=50,
            master_time_limit_s=None,
            time_limit_s=1e-9,
            warm_start=False,
        )
        decision = solver.solve(mixed_problem)
        stats = decision.stats
        assert stats.time_truncated
        assert not stats.optimal
        assert "time limit reached" in stats.message
        assert "not certified" in stats.message

    def test_untruncated_solve_keeps_the_flag_clear(self, mixed_problem):
        decision = BendersSolver(
            max_iterations=30,
            master_time_limit_s=None,
            time_limit_s=None,
            warm_start=False,
        ).solve(mixed_problem)
        assert not decision.stats.time_truncated
        assert "time limit" not in decision.stats.message


class TestUnsolvedMaster:
    """Bugfix: a master HiGHS did not solve is called infeasible only when
    HiGHS proved it infeasible; a time limit says what it is."""

    TIME_LIMIT = (
        "Time limit reached. (HiGHS Status 13: model_status is Time limit reached; "
        "primal_status is None)"
    )

    @staticmethod
    def unsolved_masters(monkeypatch, status: str, infeasible: bool) -> None:
        def unsolved(cost, *args, **kwargs):
            return MILPSolution(
                success=False,
                status=status,
                objective=float("nan"),
                values=np.zeros(len(cost)),
                mip_gap=0.0,
                infeasible=infeasible,
            )

        monkeypatch.setattr("repro.core.benders.solve_milp", unsolved)

    def test_a_timed_out_master_is_not_reported_infeasible(self, mixed_problem, monkeypatch):
        self.unsolved_masters(monkeypatch, self.TIME_LIMIT, infeasible=False)
        with pytest.raises(RuntimeError, match="Time limit reached") as raised:
            BendersSolver(warm_start=False).solve(mixed_problem)
        assert not isinstance(raised.value, InfeasibleProblemError)
        # ... nor in the reason the safeguard chain records for the fallback.
        decision = SafeguardedSolver(BendersSolver(warm_start=False)).solve(mixed_problem)
        assert decision.stats.tier != TIER_PRIMARY
        assert "Time limit reached" in decision.stats.fallback_reason
        assert "infeasible" not in decision.stats.fallback_reason

    def test_an_infeasible_master_still_says_so(self, mixed_problem, monkeypatch):
        status = "The problem is infeasible. (HiGHS Status 8: Infeasible)"
        self.unsolved_masters(monkeypatch, status, infeasible=True)
        with pytest.raises(InfeasibleProblemError, match="master problem became infeasible"):
            BendersSolver(warm_start=False).solve(mixed_problem)


class TestMultiCutSolver:
    def test_multi_cut_matches_milp(self, mixed_problem):
        multi = BendersSolver(
            tolerance=1e-9,
            relative_tolerance=1e-9,
            max_iterations=30,
            master_time_limit_s=None,
            time_limit_s=None,
            warm_start=False,
        ).solve(mixed_problem)
        milp = DirectMILPSolver(time_limit_s=None, mip_rel_gap=1e-9).solve(
            mixed_problem
        )
        assert multi.expected_net_reward == pytest.approx(
            milp.expected_net_reward, abs=1e-6
        )

    def test_multi_cut_keyword_is_inert(self, mixed_problem):
        # Accepted for benchmarks/e2e/workloads.py only: True selects
        # nothing, False names a master that no longer exists.
        with pytest.raises(ValueError, match="multi_cut"):
            BendersSolver(multi_cut=False)
        assert vars(BendersSolver(multi_cut=True)).keys() == vars(BendersSolver()).keys()
        kwargs = {"master_time_limit_s": None, "time_limit_s": None, "warm_start": False}
        explicit = BendersSolver(multi_cut=True, **kwargs).solve(mixed_problem)
        default = BendersSolver(**kwargs).solve(mixed_problem)
        assert decision_fingerprint(explicit) == decision_fingerprint(default)
        assert explicit.stats.iterations == default.stats.iterations
