"""Oracle tests of the direct HiGHS backend in ``repro.core.lpsolver``.

The backend drives the HiGHS build SciPy vendors through SciPy's private
bindings; the public wrappers :func:`scipy.optimize.linprog` /
:func:`scipy.optimize.milp` drive the same build and are the oracle here,
called exactly the way the code base called them before the backend existed.
Everything is compared bit for bit: the cut pool re-validates *stored
multipliers*, so a backend that lands on another optimal vertex changes
trajectories and goldens.  A failure here after a SciPy upgrade means the
binding or the HiGHS build underneath it changed.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy
from scipy import optimize, sparse

from repro.core.benders import BendersSolver, CutPool
from repro.core.decomposition import SlaveProblem
from repro.core.lpsolver import (
    CompiledLP,
    LPSolution,
    MILPSolution,
    Phase1Problem,
    backend_version,
    solve_milp,
)
from repro.core.milp_solver import DirectMILPSolver
from repro.scenarios import (
    DIFFERENTIAL_FAMILY,
    decision_fingerprint,
    sample_scenario,
    warm_start_check,
)
from repro.scenarios.oracle import _perturbed_forecast_sequence, problem_for_scenario
from repro.utils.rng import derive_seed
from tests.core.assembly_oracle import direct_milp_model, retire_the_array_assembly
from tests.differential.conftest import (
    BASE_SEED,
    NUM_DIFFERENTIAL_SCENARIOS,
    seed_note,
)

SEEDS = [BASE_SEED + index for index in range(NUM_DIFFERENTIAL_SCENARIOS)]


# --------------------------------------------------------------------- #
# The oracle: the wrapper-era ``linprog`` / ``milp`` calls
# --------------------------------------------------------------------- #
def linprog_reference(cost, a_ub, b_ub, lower, upper) -> LPSolution:
    result = optimize.linprog(
        c=np.asarray(cost, dtype=float),
        A_ub=a_ub,
        b_ub=np.asarray(b_ub, dtype=float),
        bounds=np.column_stack([lower, upper]),
        method="highs",
    )
    duals = np.zeros(a_ub.shape[0])
    if result.status == 0 and result.ineqlin is not None:
        duals = np.clip(-np.asarray(result.ineqlin.marginals, dtype=float), 0.0, None)
    return LPSolution(
        success=result.status == 0,
        status=result.message,
        objective=float(result.fun) if result.status == 0 else float("nan"),
        primal=np.asarray(result.x, dtype=float) if result.x is not None else np.zeros(len(cost)),
        duals_upper=duals,
        infeasible=result.status == 2,
    )


def milp_reference(
    cost, matrix, row_lower, row_upper, integrality, lower, upper,
    time_limit_s=None, mip_rel_gap=1e-6,
) -> MILPSolution:
    cost = np.asarray(cost, dtype=float)
    options = {"mip_rel_gap": mip_rel_gap}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)
    result = optimize.milp(
        c=cost,
        constraints=[optimize.LinearConstraint(matrix, row_lower, row_upper)],
        integrality=np.asarray(integrality),
        bounds=optimize.Bounds(lb=lower, ub=upper),
        options=options,
    )
    return MILPSolution(
        success=result.status == 0,
        status=result.message,
        objective=float(result.fun) if result.fun is not None else float("nan"),
        values=np.asarray(result.x, dtype=float) if result.x is not None else np.zeros(len(cost)),
        mip_gap=float(result.mip_gap) if result.mip_gap is not None else 0.0,
        infeasible=result.status == 2,
    )


def compiled_once(cost, a_ub, b_ub, lower, upper) -> LPSolution:
    """One solve of a freshly compiled LP."""
    return CompiledLP(cost, a_ub, lower, upper).solve(b_ub)


def _same_float(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


def same_lp(got: LPSolution, want: LPSolution) -> bool:
    return (
        (got.success, got.status, got.infeasible) == (want.success, want.status, want.infeasible)
        and _same_float(got.objective, want.objective)
        and np.array_equal(got.primal, want.primal)
        and np.array_equal(got.duals_upper, want.duals_upper)
    )


def same_milp(got: MILPSolution, want: MILPSolution) -> bool:
    return (
        (got.success, got.status, got.infeasible)
        == (want.success, want.status, want.infeasible)
        and _same_float(got.objective, want.objective)
        and got.mip_gap == want.mip_gap
        and np.array_equal(got.values, want.values)
    )


@pytest.fixture
def shadowed_backend(monkeypatch):
    """Shadow every LP and MILP the solvers issue with the oracle.

    A hot-started LP is held to the cold ``linprog`` solve, bit for bit.

    Returns ``(call counts by kind, descriptions of every disagreement)``.
    """
    counts = {"lp": 0, "milp": 0}
    disagreements: list[str] = []
    real_init, real_solve = CompiledLP.__init__, CompiledLP.solve

    def recording_init(self, cost, a_ub, lower, upper):
        real_init(self, cost, a_ub, lower, upper)
        self.oracle_model = (cost, a_ub, lower, upper)

    def shadowed_solve(self, b_ub, basis=None):
        got = real_solve(self, b_ub, basis)
        cost, a_ub, lower, upper = self.oracle_model
        want = linprog_reference(cost, a_ub, b_ub, lower, upper)
        counts["lp"] += 1
        if not same_lp(got, want):
            disagreements.append(f"LP {counts['lp']}: backend {got} != linprog {want}")
        return got

    def shadowed_milp(*args, **kwargs):
        got = solve_milp(*args, **kwargs)
        want = milp_reference(*args, **kwargs)
        counts["milp"] += 1
        if not same_milp(got, want):
            disagreements.append(f"MILP {counts['milp']}: backend {got} != milp {want}")
        return got

    monkeypatch.setattr(CompiledLP, "__init__", recording_init)
    monkeypatch.setattr(CompiledLP, "solve", shadowed_solve)
    monkeypatch.setattr("repro.core.benders.solve_milp", shadowed_milp)
    monkeypatch.setattr("repro.core.milp_solver.solve_milp", shadowed_milp)
    return counts, disagreements


def test_backend_version_names_the_scipy_release_and_the_highs_build():
    # CI prints this line before the suite, so a golden drift after an
    # image bump can be traced to one of the two.
    assert backend_version().startswith(f"scipy {scipy.__version__} | HiGHS ")


class TestBackendEqualsScipyWrappers:
    """(a) every LP/MILP of the differential sweep, bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_multi_cut_solve_and_certificate(self, seed, shadowed_backend):
        counts, disagreements = shadowed_backend
        problem = problem_for_scenario(sample_scenario(DIFFERENTIAL_FAMILY, seed=seed))
        DirectMILPSolver(time_limit_s=None, mip_rel_gap=1e-9).solve(problem)
        decision = BendersSolver(
            tolerance=1e-9,
            relative_tolerance=1e-9,
            max_iterations=12,  # the differential harness's budget
            master_time_limit_s=None,
            time_limit_s=None,
            warm_start=False,
        ).solve(problem)
        # The certificate MILP, one master per round, and per distinct
        # candidate the slave LP plus the stacked block LP.
        assert counts["milp"] == 1 + decision.stats.iterations
        assert 2 <= counts["lp"] <= 2 * decision.stats.iterations
        assert not disagreements, f"{disagreements[0]} {seed_note(seed)}"

    def test_warm_started_sequences(self, shadowed_backend, monkeypatch):
        # Warm fast path: seeded masters and hot-started pricing, then the
        # cold loop on a miss.
        _, disagreements = shadowed_backend
        hot_starts, real_evaluate = [], SlaveProblem.evaluate

        def noting(slave, x, basis=None):
            hot_starts.append(basis is not None)
            return real_evaluate(slave, x, basis)

        monkeypatch.setattr(SlaveProblem, "evaluate", noting)
        hits = 0
        for seed in SEEDS[:6]:
            outcome = warm_start_check(
                sample_scenario(DIFFERENTIAL_FAMILY, seed=seed), num_perturbations=2
            )
            hits += outcome.fast_path_hits
            assert not outcome.mismatched_instances, seed_note(seed)
            assert not disagreements, f"{disagreements[0]} {seed_note(seed)}"
        assert hits > 0 and any(hot_starts)


# --------------------------------------------------------------------- #
# HiGHS-input shadow: the models themselves, not only their results
# --------------------------------------------------------------------- #
MODEL_FIELDS = (
    "start_", "index_", "value_", "col_cost_", "col_lower_", "col_upper_",
    "row_lower_", "row_upper_", "integrality_", "col_status", "row_status",
)


class HandedModels:
    """The models handed to HiGHS, one call-order sequence per handing
    thread: ``calling`` (masters and joint slave LPs) and ``helper`` (the
    Benders pricing helper: stacked block LPs, the fast path's slave LP).
    The two threads interleave freely, each sequence is deterministic."""

    def __init__(self):
        self.calling_thread = threading.get_ident()
        self.clear()

    def clear(self) -> None:
        self.by_thread: dict[str, list[dict]] = {"calling": [], "helper": []}

    def append(self, model: dict) -> None:
        calling = threading.get_ident() == self.calling_thread
        self.by_thread["calling" if calling else "helper"].append(model)

    def snapshot(self) -> dict[str, list[dict]]:
        return {thread: list(models) for thread, models in self.by_thread.items()}


@pytest.fixture
def handed_to_highs(monkeypatch):
    """Record every model ``lpsolver._run`` loads into HiGHS, field by field
    under the names ``HighsLp`` gives them."""
    import repro.core.lpsolver as lpsolver

    models = HandedModels()
    real_run = lpsolver._run

    def recording_run(highs, model, is_mip, basis=None):
        # The basis a hot start is handed, as status codes; none is empty.
        col_status, row_status = (
            (np.zeros(0, np.int8),) * 2 if basis is None else basis.statuses()
        )
        models.append(
            {
                "is_mip": is_mip,
                "hot": basis is not None,
                "col_status": col_status,
                "row_status": row_status,
                "shape": model.matrix.shape,
                "start_": model.matrix.indptr.copy(),
                "index_": model.matrix.indices.copy(),
                "value_": model.matrix.data.copy(),
                "col_cost_": model.col_cost.copy(),
                "col_lower_": model.col_lower.copy(),
                "col_upper_": model.col_upper.copy(),
                "row_lower_": model.row_lower.copy(),
                "row_upper_": model.row_upper.copy(),
                "integrality_": model.integrality.copy(),
            }
        )
        return real_run(highs, model, is_mip, basis)

    monkeypatch.setattr(lpsolver, "_run", recording_run)
    return models


def model_differences(got: list[dict], want: list[dict]) -> list[str]:
    differences = []
    if len(got) != len(want):
        differences.append(f"{len(got)} models handed over, the oracle hands over {len(want)}")
    for position, (a, b) in enumerate(zip(got, want)):
        kinds = [(model["is_mip"], model["shape"], model["hot"]) for model in (a, b)]
        if kinds[0] != kinds[1]:
            differences.append(f"model {position}: kind/shape/start {kinds[0]} != {kinds[1]}")
        for field in MODEL_FIELDS:
            # Bytes, not closeness: equal dtype-normalised arrays, NaN-free.
            if not np.array_equal(a[field], b[field]):
                differences.append(f"model {position}: {field} differs")
    return differences


def thread_differences(got: dict[str, list[dict]], want: dict[str, list[dict]]) -> list[str]:
    """:func:`model_differences` per handing thread, array for array."""
    return [
        f"{thread} thread, {difference}"
        for thread in sorted(got.keys() | want.keys())
        for difference in model_differences(got.get(thread, []), want.get(thread, []))
    ]


def exact_benders(warm_start: bool) -> BendersSolver:
    return BendersSolver(
        tolerance=1e-9,
        relative_tolerance=1e-9,
        max_iterations=12,
        master_time_limit_s=None,
        time_limit_s=None,
        warm_start=warm_start,
    )


class TestHighsIsHandedTheOraclesModels:
    """Satellite: same instance, shipped assembly vs the retired one
    (``tests/core/assembly_oracle.py``) -- every model loaded into HiGHS
    along the way must be the same model, array for array."""

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_cold_multi_cut_solve(self, seed, handed_to_highs, monkeypatch):
        import repro.core.benders as benders

        problem = problem_for_scenario(sample_scenario(DIFFERENTIAL_FAMILY, seed=seed))
        shipped = exact_benders(warm_start=False).solve(problem)
        got = handed_to_highs.snapshot()
        handed_to_highs.clear()
        retire_the_array_assembly(monkeypatch)
        retired = exact_benders(warm_start=False).solve(problem)
        assert shipped.stats.iterations == retired.stats.iterations
        # One master per round, the slave LP and the stacked block LP per
        # distinct candidate (plus phase-1 certificates of infeasible ones);
        # every master is solved on the calling thread.
        models = got["calling"] + got["helper"]
        assert sum(model["is_mip"] for model in got["calling"]) == shipped.stats.iterations
        assert not any(model["is_mip"] for model in got["helper"])
        # Without a helper (one usable CPU) nothing leaves the calling thread.
        assert bool(got["helper"]) == (benders._helper() is not None)
        assert len(models) >= shipped.stats.iterations + 2
        assert thread_differences(got, handed_to_highs.snapshot()) == [], seed_note(seed)

    def test_warm_fast_path_hit(self, handed_to_highs, monkeypatch):
        # Where each seeded master lands among the calling thread's models,
        # and the rows it must have there: static rows plus seeded cuts.
        # Each hit's slave LP is handed the basis the previous hit left.
        fast_path, pricing = [], []
        real_seed, real_master = CutPool.seed_master, BendersSolver._solve_master
        real_held = CutPool.slave_basis

        def noting_held(pool, key):
            basis = real_held(pool, key)
            pricing.append(None if basis is None else basis.statuses())
            return basis

        def noting_seed(pool, key, master, slave):
            seeded, previous_x = real_seed(pool, key, master, slave)
            master.seeded_rows = master.num_static_rows + len(seeded)
            return seeded, previous_x

        def noting_master(solver, master):
            if hasattr(master, "seeded_rows"):
                position = len(handed_to_highs.by_thread["calling"])
                fast_path.append((position, master.seeded_rows))
            return real_master(solver, master)

        monkeypatch.setattr(CutPool, "seed_master", noting_seed)
        monkeypatch.setattr(BendersSolver, "_solve_master", noting_master)
        monkeypatch.setattr(CutPool, "slave_basis", noting_held)
        sequences = []
        for seed in SEEDS[:6]:
            scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=seed)
            base = problem_for_scenario(scenario)
            sequences.append(
                [base]
                + _perturbed_forecast_sequence(
                    base,
                    # Long enough for hits to replace the certificate and
                    # seed the masters after that from what is left.
                    count=5,
                    spread=0.02,
                    seed=derive_seed(scenario.seed, "warm-start-oracle", scenario.name),
                )
            )

        def run():
            handed_to_highs.clear()
            fast_path.clear()
            pricing.clear()
            hits, pools = 0, []
            for instances in sequences:
                solver = BendersSolver(
                    max_iterations=12, master_time_limit_s=None, time_limit_s=None
                )
                stats = [solver.solve(p).stats for p in instances]
                hits += sum(s.cuts_warm > 0 for s in stats)
                _, entry = solver.cut_pool._slot
                recorded = sum(s.cuts_optimality + s.cuts_feasibility for s in stats)
                held = [(block_id, mu.tobytes()) for mu, block_id in entry.multipliers]
                pools.append((recorded, [s.cuts_warm for s in stats], held))
            return handed_to_highs.snapshot(), hits, pools

        got, hits, pools = run()
        assert hits > 0 and len(fast_path) >= hits
        # Every seeded master reaches HiGHS as it is: no cutoff row below it.
        for position, rows in fast_path:
            model = got["calling"][position]
            assert model["is_mip"] and model["shape"][0] == rows
        # Every held basis reaches HiGHS as it is, status for status, with a
        # slave LP of its shape; every other model is solved cold.
        handed = [model for models in got.values() for model in models if model["hot"]]
        held = [basis for basis in pricing if basis is not None]
        assert held and len(handed) == len(held)
        for col_status, row_status in held:
            assert any(
                model["shape"] == (len(row_status), len(col_status))
                and np.array_equal(model["col_status"], col_status)
                and np.array_equal(model["row_status"], row_status)
                for model in handed
            )
        # ... and certificates smaller than everything ever recorded.
        assert any(len(held) < recorded for recorded, _, held in pools)
        retire_the_array_assembly(monkeypatch)
        want, want_hits, want_pools = run()
        assert (hits, pools) == (want_hits, want_pools)
        assert thread_differences(got, want) == []

    @pytest.mark.parametrize("allow_deficit", [False, True])
    def test_direct_milp_solve(self, allow_deficit, handed_to_highs):
        from repro.core.problem import ACRRProblem, ProblemOptions

        for seed in SEEDS[:10]:
            problem = problem_for_scenario(sample_scenario(DIFFERENTIAL_FAMILY, seed=seed))
            if allow_deficit:
                problem = ACRRProblem(
                    problem.topology,
                    problem.path_set,
                    problem.requests,
                    {r.name: problem.forecast(r.name) for r in problem.requests},
                    ProblemOptions(allow_deficit=True),
                )
            handed_to_highs.clear()
            DirectMILPSolver(time_limit_s=None, mip_rel_gap=1e-9).solve(problem)
            cost, matrix, row_lower, row_upper, lower, upper, kinds = direct_milp_model(problem)
            # The retired path: row-major blocks, one conversion on the way in.
            columns = sparse.csc_matrix(matrix, dtype=float)
            want = {
                "is_mip": True,
                "shape": columns.shape,
                "start_": columns.indptr,
                "index_": columns.indices,
                "value_": columns.data,
                "col_cost_": cost,
                "col_lower_": lower,
                "col_upper_": upper,
                "row_lower_": row_lower,
                "row_upper_": row_upper,
                "integrality_": kinds,
                "hot": False,
                "col_status": np.zeros(0, np.int8),
                "row_status": np.zeros(0, np.int8),
            }
            assert thread_differences(
                handed_to_highs.snapshot(), {"calling": [want], "helper": []}
            ) == [], seed_note(seed)


def accept_first_item(problem) -> np.ndarray:
    x = np.zeros(problem.num_items)
    x[0] = 1.0
    return x


def feasible_and_infeasible_rhs(slave: SlaveProblem):
    """Two feasible right-hand sides around an infeasible one."""
    n = slave.num_items
    b1 = slave.rhs(np.zeros(n))
    x = np.zeros(n)
    x[0] = 2.0  # breaks the first item's coupling rows
    b2 = slave.rhs(x)
    return b1, b2


class TestCompiledLP:
    def test_rhs_sequence_leaks_no_state(self, mixed_problem):
        # (b) b1, b2 (infeasible), b1: the second b1 is the first b1 is a
        # freshly compiled model's b1.
        slave = SlaveProblem(mixed_problem)
        b1, b2 = feasible_and_infeasible_rhs(slave)
        model = (slave.d, slave.g_matrix, slave.u_lower, slave.u_upper)
        compiled = CompiledLP(*model)
        first, broken, again = compiled.solve(b1), compiled.solve(b2), compiled.solve(b1)
        assert first.success and again.success
        assert not broken.success and broken.infeasible
        assert same_lp(again, first)
        assert same_lp(CompiledLP(*model).solve(b1), first)
        assert same_lp(CompiledLP(*model).solve(b2), broken)
        assert same_lp(first, linprog_reference(slave.d, slave.g_matrix, b1, *model[2:]))

    def test_feasible_rhs_sequence_on_the_stacked_block_lp(self, mixed_problem):
        slave = SlaveProblem(mixed_problem)
        stack = slave.block_stack()
        model = (stack.d, stack.g_matrix, stack.u_lower, stack.u_upper)
        compiled = CompiledLP(*model)
        n = slave.num_items
        xs = [np.zeros(n), np.ones(n), np.zeros(n)]
        solutions = [compiled.solve(slave.rhs(x)[stack.slave_rows]) for x in xs]
        assert all(solution.success for solution in solutions)
        assert same_lp(solutions[2], solutions[0])
        for x, solution in zip(xs, solutions):
            b = slave.rhs(x)[stack.slave_rows]
            assert same_lp(solution, compiled_once(model[0], model[1], b, *model[2:]))

    def test_infeasible_lp_and_phase1_ray_equal_the_oracle(self, mixed_problem):
        # (c)
        slave = SlaveProblem(mixed_problem)
        _, b2 = feasible_and_infeasible_rhs(slave)
        got = compiled_once(slave.d, slave.g_matrix, b2, slave.u_lower, slave.u_upper)
        want = linprog_reference(slave.d, slave.g_matrix, b2, slave.u_lower, slave.u_upper)
        assert not got.success and got.infeasible
        assert same_lp(got, want)
        assert got.status.startswith("The problem is infeasible. (HiGHS Status 8: ")

        phase1 = Phase1Problem(slave.g_matrix, slave.u_lower, slave.u_upper)
        infeasibility, ray = phase1.certificate(b2)
        num_rows, num_vars = slave.g_matrix.shape
        oracle = linprog_reference(
            np.concatenate([np.zeros(num_vars), np.ones(num_rows)]),
            sparse.hstack(
                [slave.g_matrix, -sparse.identity(num_rows, format="csr")], format="csr"
            ),
            b2,
            np.concatenate([slave.u_lower, np.zeros(num_rows)]),
            np.concatenate([slave.u_upper, np.full(num_rows, np.inf)]),
        )
        assert infeasibility == oracle.objective > 0.0
        assert np.array_equal(ray, oracle.duals_upper)
        assert float(np.dot(b2, ray)) < 0.0

    def test_a_hot_start_returns_the_cold_bytes_and_a_foreign_basis_is_refused(
        self, mixed_problem
    ):
        # The slave LP hot-started from its own basis at another right-hand
        # side lands on the cold solve's vertex and multipliers; a basis of
        # another LP's shape is refused by HiGHS and the solve runs cold.
        slave = SlaveProblem(mixed_problem)
        model = (slave.d, slave.g_columns, slave.u_lower, slave.u_upper)
        compiled = CompiledLP(*model)
        b1, _ = feasible_and_infeasible_rhs(slave)
        b2 = slave.rhs(accept_first_item(mixed_problem))
        own = compiled.solve(b1).basis
        foreign = compiled_once(*TestInputChecks.lp_args()).basis
        cold = CompiledLP(*model).solve(b2)
        assert same_lp(cold, linprog_reference(slave.d, slave.g_matrix, b2, *model[2:]))
        for basis in (own, foreign):
            assert same_lp(compiled.solve(b2, basis), cold)

    def test_unbounded_lp_reports_scipys_wording(self):
        matrix = sparse.csr_matrix(np.array([[1.0, -1.0]]))
        args = (np.array([-1.0, -1.0]), matrix, np.array([1.0]), np.zeros(2), np.full(2, np.inf))
        got = compiled_once(*args)
        assert not got.success and not got.infeasible
        assert same_lp(got, linprog_reference(*args))

    def test_two_threads_give_the_serial_results(self, embb_problem, mixed_problem):
        # (e) one compiled model per thread, solved concurrently.
        slaves = [SlaveProblem(embb_problem), SlaveProblem(mixed_problem)]
        models = [(s.d, s.g_matrix, s.u_lower, s.u_upper) for s in slaves]
        rhs = [
            [s.rhs(np.zeros(s.num_items)), s.rhs(np.ones(s.num_items))] * 10
            for s in slaves
        ]
        serial = [
            [CompiledLP(*model).solve(b) for b in sequence]
            for model, sequence in zip(models, rhs)
        ]

        def worker(index):
            compiled = CompiledLP(*models[index])
            return [compiled.solve(b) for b in rhs[index]]

        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(worker, range(2)))
        for got_sequence, want_sequence in zip(threaded, serial):
            assert all(same_lp(got, want) for got, want in zip(got_sequence, want_sequence))


class TestInputChecks:
    """(d) what ``linprog`` refused is still refused, as ``ValueError``."""

    @staticmethod
    def lp_args():
        matrix = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, -1.0]]))
        return [np.array([-1.0, -2.0]), matrix, np.array([4.0, 1.0]), np.zeros(2), np.full(2, 3.0)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_or_matrix(self, bad):
        args = self.lp_args()
        args[0] = np.array([bad, 1.0])
        with pytest.raises(ValueError, match="cost"):
            compiled_once(*args)
        args = self.lp_args()
        args[1] = sparse.csr_matrix(np.array([[1.0, bad], [1.0, -1.0]]))
        with pytest.raises(ValueError, match="a_ub"):
            compiled_once(*args)

    @pytest.mark.parametrize("position, name", [(2, "b_ub"), (3, "lower"), (4, "upper")])
    def test_nan_bound_or_rhs(self, position, name):
        args = self.lp_args()
        args[position] = np.array([np.nan, 1.0])
        with pytest.raises(ValueError, match=name):
            compiled_once(*args)

    def test_shape_mismatches(self):
        for position, value in (
            (0, np.zeros(3)),
            (2, np.zeros(3)),
            (3, np.zeros(1)),
            (4, np.zeros((2, 1))),
        ):
            args = self.lp_args()
            args[position] = value
            with pytest.raises(ValueError):
                compiled_once(*args)

    def test_infinite_bounds_and_rhs_mean_unbounded(self):
        args = self.lp_args()
        args[2] = np.array([4.0, np.inf])  # second row never binds
        args[4] = np.full(2, np.inf)
        got = compiled_once(*args)
        assert got.success
        assert got.objective == pytest.approx(-8.0)
        assert got.duals_upper[1] == 0.0

    def test_milp_input_checks(self):
        cost = np.array([-5.0, -4.0, -3.0])
        row = sparse.csr_matrix(np.array([[2.0, 3.0, 1.0]]))
        ones, zeros = np.ones(3), np.zeros(3)

        def solve(
            cost=cost, matrix=row, lb=np.array([-np.inf]), ub=np.array([4.0]),
            kinds=ones, lower=zeros, upper=ones,
        ):
            return solve_milp(cost, matrix, lb, ub, kinds, lower, upper)

        assert solve().objective == pytest.approx(-8.0)
        for broken in (
            {"cost": np.array([np.nan, 0.0, 0.0])},
            {"cost": np.array([np.inf, 0.0, 0.0])},
            {"matrix": sparse.csr_matrix(np.array([[2.0, np.nan, 1.0]]))},
            {"matrix": sparse.csr_matrix(np.array([[2.0, 3.0]]))},
            {"ub": np.array([np.nan])},
            {"ub": np.array([4.0, 4.0])},
            {"lb": np.array([np.nan])},
            {"lower": np.array([0.0, np.nan, 0.0])},
            {"upper": np.ones(2)},
            {"kinds": np.ones(2)},
            {"kinds": np.array([1.0, 7.0, 0.0])},
        ):
            with pytest.raises(ValueError):
                solve(**broken)


class TestMilpStatuses:
    @staticmethod
    def knapsack(num_items=60, seed=5):
        """``(cost, matrix, row lower, row upper, integrality, lower, upper)``."""
        rng = np.random.default_rng(seed)
        weights = rng.integers(10, 60, num_items).astype(float)
        cost = -(weights + rng.integers(0, 10, num_items))
        row = sparse.csr_matrix(weights.reshape(1, -1))
        ones = np.ones(num_items)
        bounds = np.array([-np.inf]), np.array([weights.sum() / 2])
        return cost, row, *bounds, ones, np.zeros(num_items), ones

    def test_infeasible_milp_equals_the_oracle(self):
        cost, row, row_lower, row_upper, kinds, lower, upper = self.knapsack(5)
        args = (
            cost,
            sparse.vstack([row, sparse.csr_matrix(np.ones((1, 5)))], format="csr"),
            np.append(row_lower, 6.0),
            np.append(row_upper, np.inf),
            kinds, lower, upper,
        )
        got = solve_milp(*args)
        assert not got.success and got.infeasible
        assert got.status.startswith("The problem is infeasible. (HiGHS Status 8: ")
        assert same_milp(got, milp_reference(*args))

    def test_time_limit_without_incumbent(self):
        args = self.knapsack()
        got = solve_milp(*args, time_limit_s=0.0)
        assert not got.success
        assert got.status.startswith(
            "Time limit reached. (HiGHS Status 13: model_status is Time limit reached; "
        )
        assert not got.values.any() and np.isnan(got.objective) and got.mip_gap == 0.0
        assert not got.infeasible
        assert same_milp(got, milp_reference(*args, time_limit_s=0.0))

    def test_time_limit_with_incumbent_hands_it_back_unsuccessful(self):
        # Subset sum with odd weights and an even capacity: heuristics find
        # an incumbent at once, closing a zero gap takes branch-and-bound
        # far longer than the limit.
        rng = np.random.default_rng(5)
        weights = rng.integers(10**5, 10**6, 60).astype(float) * 2 + 1
        capacity = weights.sum() / 2 // 2 * 2
        row = sparse.csr_matrix(weights.reshape(1, -1))
        args = (
            -weights, row, np.array([-np.inf]), np.array([capacity]),
            np.ones(60), np.zeros(60), np.ones(60),
        )
        got = solve_milp(*args, time_limit_s=0.1, mip_rel_gap=0.0)
        assert not got.success
        assert got.status == "Time limit reached. (HiGHS Status 13: Time limit reached)"
        # The incumbent is a knapsack point: binary, within the capacity.
        binary = np.round(got.values)
        assert np.isin(binary, (0.0, 1.0)).all()
        assert np.allclose(got.values, binary, rtol=0.0, atol=1e-9)
        assert weights @ binary <= capacity
        assert got.objective == pytest.approx(float(args[0] @ got.values))
        assert 0.0 < got.mip_gap < 1e-3

    def test_relaxed_lp_through_solve_milp_equals_the_oracle(self):
        cost, row, row_lower, row_upper, _, lower, upper = self.knapsack(8)
        args = (cost, row, row_lower, row_upper, np.zeros(8), lower, upper)
        got = solve_milp(*args)
        assert got.success and got.mip_gap == 0.0
        assert same_milp(got, milp_reference(*args))


class TestNothingCompiledCrossesAProcessBoundary:
    def test_problem_solver_and_pool_still_pickle(self, mixed_problem):
        # (e) RA05: the native HiGHS instance is per thread, in lpsolver
        # (tests/core/test_highs_instance.py); nothing a solve keeps holds it.
        solver = BendersSolver()
        before = solver.solve(mixed_problem)
        for thing in (mixed_problem, solver, solver.cut_pool, CutPool()):
            pickle.loads(pickle.dumps(thing))
        revived = pickle.loads(pickle.dumps(solver))
        after = revived.solve(pickle.loads(pickle.dumps(mixed_problem)))
        assert after.expected_net_reward == before.expected_net_reward

    def test_a_solver_pickled_after_a_hit_decides_the_same(self, handed_to_highs):
        # After a hit the certificate holds a native slave basis; it pickles
        # as status codes and revives into a basis HiGHS takes as its own:
        # the revived solver hands HiGHS the same models and basis and
        # decides the same.
        scenario = sample_scenario(DIFFERENTIAL_FAMILY, seed=SEEDS[0])
        base = problem_for_scenario(scenario)
        drifted = _perturbed_forecast_sequence(
            base, count=2, spread=0.02,
            seed=derive_seed(scenario.seed, "warm-start-oracle", scenario.name),
        )
        solver = BendersSolver(max_iterations=12, master_time_limit_s=None, time_limit_s=None)
        for problem in (base, drifted[0]):
            solver.solve(problem)
        held = solver.cut_pool.slave_basis(drifted[1].identity())
        assert held is not None
        revived = pickle.loads(pickle.dumps(solver))
        again = revived.cut_pool.slave_basis(drifted[1].identity())
        assert again is not held
        assert all(map(np.array_equal, again.statuses(), held.statuses()))
        handed_to_highs.clear()
        want = solver.solve(drifted[1])
        handed = handed_to_highs.snapshot()
        handed_to_highs.clear()
        got = revived.solve(pickle.loads(pickle.dumps(drifted[1])))
        assert want.stats.message.endswith("hot pricing)")
        assert got.stats.message == want.stats.message
        assert decision_fingerprint(got) == decision_fingerprint(want)
        assert thread_differences(handed_to_highs.snapshot(), handed) == []


def test_import_guard_names_the_supported_scipy_range():
    # A scipy without the vendored bindings must fail at import with one
    # error that says which versions work, not an AttributeError mid-solve.
    script = (
        "import sys, scipy.optimize._highspy as bindings\n"
        "del bindings._core; sys.modules['scipy.optimize._highspy._core'] = None\n"
        "try:\n    import repro.core.lpsolver\n"
        "except ImportError as error:\n    print(error)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode == 0, result.stderr
    assert "scipy >= 1.15" in result.stdout
    assert "scipy.optimize._highspy._core" in result.stdout
