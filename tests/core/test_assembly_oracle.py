"""The array assembly must simulate the loop-built model byte for byte.

``tests/core/assembly_oracle.py`` keeps the retired per-item builders
verbatim.  Every matrix, bound, cost and label the item table produces is
compared with what those loops produce for the same instance --
``np.array_equal`` on ``indptr`` / ``indices`` / ``data``, never
``allclose`` -- because HiGHS must be handed the same bytes: every vertex,
dual, digest and golden rests on that.  Canonical CSC/CSR is unique, so
equal arrays *are* equal matrices and any difference is a real one.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import benders
from repro.core.benders import BendersSolver, _MasterState
from repro.core.decomposition import SlaveProblem
from repro.core.forecast_inputs import ForecastInput
from repro.core.milp_solver import DirectMILPSolver
from repro.core.problem import ACRRProblem, ProblemOptions
from repro.core.slices import (
    EMBB_TEMPLATE,
    MMTC_TEMPLATE,
    URLLC_TEMPLATE,
    SliceRequest,
    SliceTemplate,
    make_requests,
)
from repro.scenarios import DIFFERENTIAL_FAMILY, sample_scenario
from repro.scenarios.oracle import problem_for_scenario
from repro.topology.paths import Path, PathSet, compute_path_sets
from tests.conftest import build_tiny_topology, low_load_forecasts
from tests.core.assembly_oracle import (
    LoopBuiltMaster,
    LoopBuiltProblem,
    LoopBuiltSlave,
    direct_milp_model,
    same_sparse,
)
from tests.differential.conftest import (
    BASE_SEED,
    NUM_DIFFERENTIAL_SCENARIOS,
    seed_note,
)

SEEDS = [BASE_SEED + index for index in range(NUM_DIFFERENTIAL_SCENARIOS)]


def identical(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal values *and* equal bytes: -0.0, NaN and the dtype count."""
    return np.array_equal(got, want) and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def direct_model_handed_to_the_solver(problem: ACRRProblem, monkeypatch):
    """What ``DirectMILPSolver`` passes to ``solve_milp`` for ``problem``."""
    handed = {}

    class Handed(Exception):
        pass

    def record(**kwargs):
        handed.update(kwargs)
        raise Handed

    with monkeypatch.context() as patch, pytest.raises(Handed):
        patch.setattr("repro.core.milp_solver.solve_milp", record)
        DirectMILPSolver().solve(problem)
    return tuple(
        handed[name]
        for name in ("cost", "matrix", "row_lower", "row_upper", "lower", "upper", "integrality")
    )


def assert_assembly_equals_the_oracle(problem: ACRRProblem, monkeypatch, note: str = ""):
    """Every array the solvers are built from, against the loop builders."""
    oracle = LoopBuiltProblem(problem)
    assert np.array_equal(problem.objective_x(), oracle.objective_x()), note
    assert np.array_equal(problem.objective_y(), oracle.objective_y()), note
    for name in ("capacity_block", "selection_block", "coupling_block"):
        got, want = getattr(problem, name)(), getattr(oracle, name)()
        for part in ("a_x", "a_z", "a_y"):
            assert same_sparse(getattr(got, part), getattr(want, part)), f"{name}.{part} {note}"
        assert got.num_rows == want.num_rows
        assert np.array_equal(got.lower, want.lower), f"{name}.lower {note}"
        assert np.array_equal(got.upper, want.upper), f"{name}.upper {note}"
        assert got.labels == want.labels, f"{name}.labels {note}"
    assert [
        (block.item_indices, block.capacity_rows) for block in problem.resource_blocks()
    ] == oracle.resource_blocks(), note

    slave, want = SlaveProblem(problem), LoopBuiltSlave(problem)
    assert slave.g_columns.has_canonical_format
    assert same_sparse(slave.g_columns, want.g_matrix.tocsc()), f"G {note}"
    assert same_sparse(slave.g_matrix, want.g_matrix), f"G row-major {note}"
    assert same_sparse(slave.h_matrix, want.h_matrix), f"H {note}"
    assert np.array_equal(slave.h0, want.h0) and np.array_equal(slave.d, want.d), note
    assert slave.num_capacity_rows == want.num_capacity_rows

    stack = slave.block_stack()
    assert stack.g_columns.has_canonical_format
    assert same_sparse(stack.g_columns, want.stack_g.tocsc()), f"stacked G {note}"
    assert same_sparse(stack.g_matrix, want.stack_g), f"stacked G row-major {note}"
    assert np.array_equal(stack.d, want.stack_d), note
    assert_slave_row_forms_equal_the_oracle(slave, want, note)
    assert [block.theta_lower for block in stack.blocks] == want.theta_lowers, note
    assert [b.rows.start for b in stack.blocks] + [stack.blocks[-1].rows.stop] == want.row_offsets
    assert [b.cols.start for b in stack.blocks] + [stack.blocks[-1].cols.stop] == want.col_offsets

    lowers = [block.theta_lower for block in stack.blocks]
    master = _MasterState(problem, problem.objective_x(), lowers)
    want_master = LoopBuiltMaster(problem, oracle.objective_x(), lowers)
    matrix, row_lower, row_upper = master.rows()
    assert matrix.has_canonical_format
    assert same_sparse(matrix, want_master.static_matrix.tocsc()), f"master rows {note}"
    assert np.array_equal(row_lower, want_master.static_lower), note
    assert np.array_equal(row_upper, want_master.static_upper), note
    for vector in ("cost", "lower", "upper", "integrality"):
        assert np.array_equal(getattr(master, vector), getattr(want_master, vector)), note

    got = direct_model_handed_to_the_solver(problem, monkeypatch)
    want_direct = direct_milp_model(problem)
    assert got[1].has_canonical_format
    assert same_sparse(got[1], want_direct[1].tocsc()), f"direct MILP matrix {note}"
    for position in (0, 2, 3, 4, 5, 6):
        assert np.array_equal(got[position], want_direct[position]), f"direct MILP {position} {note}"


def assert_slave_row_forms_equal_the_oracle(slave: SlaveProblem, want: LoopBuiltSlave, note=""):
    """A block is a set of slave rows and columns: its right-hand side,
    its cut coefficients (batched with an aggregate column) and the ``G'
    mu`` of its multipliers, read from the slave there, must equal what the
    oracle's stacked system gives -- byte for byte, at random candidates
    and random sparse non-negative multipliers."""
    stack = slave.block_stack()
    blocks = stack.blocks
    assert identical(stack.slave_rows, want.stack_rows), note
    for block in blocks:
        assert identical(block.slave_rows, want.stack_rows[block.rows]), note
        assert identical(block.slave_cols, want.stack_cols[block.cols]), note
        # What the right-hand sides -h0' mu and the repair read.
        assert identical(slave.h0[block.slave_rows], want.stack_h0[block.rows]), note
        assert identical(slave.d[block.slave_cols], want.stack_d[block.cols]), note
        assert identical(slave.u_bound[block.slave_cols], want.stack_u_bound[block.cols]), note
    stack_h_transposed = want.stack_h.T.tocsc()
    stack_g_transposed = want.stack_g.T.tocsr()
    rng = np.random.default_rng(0)

    def sparse_multiplier(size):
        return rng.random(size) * (rng.random(size) < 0.3)

    for _ in range(3):
        x = (rng.random(slave.num_items) < 0.5).astype(float)
        got = slave.rhs(x)[stack.slave_rows]
        assert identical(got, want.stack_h0 + want.stack_h.dot(x)), f"block rhs {note}"
        aggregate = sparse_multiplier(len(slave.h0))
        mus = [sparse_multiplier(block.num_rows) for block in blocks]
        coeffs = slave.cut_coefficients(
            [(aggregate, slice(None))] + [(mu, block.slave_rows) for block, mu in zip(blocks, mus)]
        )
        assert identical(coeffs[:, 0], want.h_matrix.T.dot(aggregate)), f"aggregate cut {note}"
        padded = np.zeros((len(want.stack_h0), len(blocks)))
        for column, (block, mu) in enumerate(zip(blocks, mus)):
            padded[block.rows, column] = mu
        assert identical(
            np.ascontiguousarray(coeffs[:, 1:]), stack_h_transposed.dot(padded)
        ), f"block cuts {note}"
        halves = benders._forecast_free_halves(
            slave,
            slave.g_columns.T,
            [(mu, block.index, block.slave_rows, block.slave_cols) for block, mu in zip(blocks, mus)],
        )
        dual_slack = stack_g_transposed.dot(padded)
        for column, (block, (_, got)) in enumerate(zip(blocks, halves)):
            assert identical(got, dual_slack[block.cols, column].copy()), f"block G' mu {note}"


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_sweep_assembles_the_oracles_bytes(seed, monkeypatch):
    problem = problem_for_scenario(sample_scenario(DIFFERENTIAL_FAMILY, seed=seed))
    assert_assembly_equals_the_oracle(problem, monkeypatch, seed_note(seed))


# --------------------------------------------------------------------- #
# The corners the sweep does not reach
# --------------------------------------------------------------------- #
CPU_HUNGRY = SliceTemplate(
    name="cpu-hungry",
    reward=2.5,
    latency_tolerance_ms=30.0,
    sla_mbps=20.0,
    compute_baseline_cpus=1.5,
    compute_cpus_per_mbps=0.3,
)
BASELINE_ONLY = dataclasses.replace(CPU_HUNGRY, name="baseline-only", compute_cpus_per_mbps=0.0)
UNREACHABLE = dataclasses.replace(EMBB_TEMPLATE, name="unreachable", latency_tolerance_ms=1e-6)


def mixed_requests() -> list[SliceRequest]:
    return (
        make_requests(EMBB_TEMPLATE, 2)  # no CPU at all: no compute entries
        + make_requests(MMTC_TEMPLATE, 2)  # per-Mb/s CPU only: no x entry
        + make_requests(URLLC_TEMPLATE, 2)  # delay-filtered off the core CU
        + make_requests(CPU_HUNGRY, 2)  # both compute coefficients
        + make_requests(BASELINE_ONLY, 1)  # x entry only: a row G never sees
    )


def corner_problem(requests=None, options=None, forecasts=None, num_base_stations=3, k=3):
    topology = build_tiny_topology(num_base_stations=num_base_stations)
    requests = mixed_requests() if requests is None else requests
    return ACRRProblem(
        topology,
        compute_path_sets(topology, k=k),
        requests,
        low_load_forecasts(requests) if forecasts is None else forecasts,
        options,
    )


class TestCorners:
    def test_mixed_compute_models(self, monkeypatch):
        assert_assembly_equals_the_oracle(corner_problem(), monkeypatch)

    def test_without_overbooking(self, monkeypatch):
        problem = corner_problem(options=ProblemOptions(overbooking=False))
        assert not problem.objective_y().any()
        assert_assembly_equals_the_oracle(problem, monkeypatch)

    def test_deficit_relaxation_columns(self, monkeypatch):
        problem = corner_problem(options=ProblemOptions(allow_deficit=True))
        assert_assembly_equals_the_oracle(problem, monkeypatch)
        assert direct_model_handed_to_the_solver(problem, monkeypatch)[1].shape[1] == (
            3 * problem.num_items + 3
        )

    def test_zero_forecast_drops_the_row_9_entry(self, monkeypatch):
        requests = mixed_requests()
        forecasts = low_load_forecasts(requests)
        for request in requests[::2]:
            forecasts[request.name] = ForecastInput(lambda_hat_mbps=0.0, sigma_hat=0.3)
        problem = corner_problem(requests, forecasts=forecasts)
        coupling = problem.coupling_block()
        assert coupling.x.nnz < 4 * problem.num_items  # the pattern really changed
        assert_assembly_equals_the_oracle(problem, monkeypatch)

    def test_tenant_without_any_admissible_path(self, monkeypatch):
        requests = mixed_requests()
        requests.insert(3, SliceRequest(name="nowhere", template=UNREACHABLE))
        problem = corner_problem(requests)
        assert problem.items_of_tenant(3) == []
        assert problem.resource_blocks()[3].item_indices == ()
        # Its block of the stack is empty: no rows, no columns, no surrogate floor.
        empty = SlaveProblem(problem).blocks()[3]
        assert (empty.num_rows, empty.cols.stop - empty.cols.start, empty.theta_lower) == (0, 0, 0.0)
        assert_assembly_equals_the_oracle(problem, monkeypatch)

    def test_committed_tenants(self, monkeypatch):
        requests = [
            request.as_committed() if index % 2 else request
            for index, request in enumerate(mixed_requests())
        ]
        problem = corner_problem(requests)
        assert set(problem.selection_block().lower) == {0.0, 1.0}
        assert_assembly_equals_the_oracle(problem, monkeypatch)

    def test_single_base_station_has_no_chain_rows(self, monkeypatch):
        assert_assembly_equals_the_oracle(corner_problem(num_base_stations=1), monkeypatch)

    def test_with_forecasts_clone_equals_a_cold_build(self, monkeypatch):
        base = corner_problem()
        SlaveProblem(base).block_stack()  # prime every shared structure
        requests = mixed_requests()
        forecasts = low_load_forecasts(requests, fraction=0.55, sigma=0.4)
        forecasts[requests[0].name] = ForecastInput(lambda_hat_mbps=0.0, sigma_hat=0.2)
        clone = base.with_forecasts(requests, forecasts)
        assert_assembly_equals_the_oracle(clone, monkeypatch)
        cold = ACRRProblem(base.topology, base.path_set, requests, forecasts)
        for name in ("capacity_block", "selection_block", "coupling_block"):
            for part in ("a_x", "a_z", "a_y"):
                assert same_sparse(
                    getattr(getattr(clone, name)(), part), getattr(getattr(cold, name)(), part)
                )
        assert same_sparse(clone.floor_footprint(), cold.floor_footprint())
        assert clone.items == cold.items


    def test_slave_of_a_clone_equals_the_slave_of_a_cold_build(self):
        # G, h0, the implied bounds, the stacked diag(G_b) and its maps live
        # in the structure cache the clones share; so do the layouts of H
        # and of the master's static rows,
        # keyed on the structure *and* the zero-forecast pattern, which
        # moves their sparsity.  d, the data of H and of the footprint, and
        # the surrogate floors are bound per forecast.  Zero and non-zero
        # clones in turn, off a non-zero original, each against a slave, a
        # master and a seeded master built from nothing -- byte for byte.
        requests = mixed_requests()
        base = corner_problem(requests)
        base_slave = SlaveProblem(base)
        base_slave.block_stack()
        # Stored multipliers of the structure to seed every master with.
        solver = BendersSolver(master_time_limit_s=None, time_limit_s=None)
        solver.solve(base)
        pool, key = solver.cut_pool, base.identity()
        multipliers = pool._slot[1].multipliers
        assert any(block_id is None for _, block_id in multipliers)
        assert any(block_id is not None for _, block_id in multipliers)
        sequence = []
        for fraction, zeroed in ((0.55, requests[::2]), (0.2, ()), (0.7, requests[1::3])):
            forecasts = low_load_forecasts(requests, fraction=fraction, sigma=0.4)
            for request in zeroed:
                forecasts[request.name] = ForecastInput(lambda_hat_mbps=0.0, sigma_hat=0.2)
            sequence.append(forecasts)
        patterns = set()
        for forecasts in sequence:
            slave = SlaveProblem(base.with_forecasts(requests, forecasts))
            cold = SlaveProblem(ACRRProblem(base.topology, base.path_set, requests, forecasts))
            stack, cold_stack = slave.block_stack(), cold.block_stack()
            assert slave.g_columns is base_slave.g_columns  # shared, not rebuilt
            assert stack.g_columns is base_slave.block_stack().g_columns
            assert cold.g_columns is not base_slave.g_columns
            for matrix in ("g_columns", "g_matrix", "h_matrix", "h_transposed"):
                assert same_sparse(getattr(slave, matrix), getattr(cold, matrix)), matrix
            for vector in ("d", "h0", "u_lower", "u_upper", "u_bound"):
                assert np.array_equal(getattr(slave, vector), getattr(cold, vector)), vector
            for matrix in ("g_columns", "g_matrix"):
                assert same_sparse(getattr(stack, matrix), getattr(cold_stack, matrix)), matrix
            for vector in ("d", "u_lower", "u_upper", "slave_rows"):
                assert np.array_equal(getattr(stack, vector), getattr(cold_stack, vector)), vector
            assert slave.num_capacity_rows == cold.num_capacity_rows
            assert stack.blocks == cold_stack.blocks  # ranges and theta_lower, exactly
            assert_slave_row_forms_equal_the_oracle(slave, LoopBuiltSlave(slave.problem))
            seeded = []
            for got in (slave, cold):
                problem = got.problem
                lowers = [block.theta_lower for block in got.blocks()]
                master = _MasterState(problem, problem.objective_x(), lowers)
                static = master.rows()
                cuts, _ = pool.seed_master(key, master, got)
                seeded.append((len(cuts), static, master.rows(), master.cut_rows()))
            (count, *arrays), (cold_count, *cold_arrays) = seeded
            assert count == cold_count > 0
            for got, want in zip(arrays, cold_arrays):
                for part, cold_part in zip(got, want):
                    if hasattr(part, "indptr"):
                        assert part.shape == cold_part.shape
                        for name in ("indptr", "indices", "data"):
                            assert identical(getattr(part, name), getattr(cold_part, name)), name
                    else:
                        assert identical(part, cold_part)
            patterns.add((slave.h_matrix.nnz, arrays[0][0].nnz))
        assert len(patterns) == 3  # H's and the footprint's patterns really moved

    def test_the_carried_half_is_the_recomputed_half(self, monkeypatch):
        # The pool's certificate carries -h0' mu and G' mu from the first
        # re-validation on: computed on one clone, used on the next, whose
        # zero-floor pattern moved H and the footprint.  Each seeding must
        # equal one that recomputes both halves from nothing -- the halves
        # themselves, the seeded multipliers, the master's rows and its
        # dense cut rows, byte for byte.
        computed = []
        real_halves = benders._forecast_free_halves

        def counting_halves(slave, g_transposed, members):
            computed.append(len(members))
            return real_halves(slave, g_transposed, members)

        monkeypatch.setattr(benders, "_forecast_free_halves", counting_halves)
        requests = mixed_requests()
        base = corner_problem(requests)
        solver = BendersSolver(master_time_limit_s=None, time_limit_s=None)
        solver.solve(base)
        pool, key = solver.cut_pool, base.identity()
        assert all(half is None for half in pool._slot[1].halves)  # a cold solve records none
        carried_seedings = 0
        for fraction, zeroed in ((0.55, requests[::2]), (0.2, ()), (0.7, requests[1::3])):
            forecasts = low_load_forecasts(requests, fraction=fraction, sigma=0.4)
            for request in zeroed:
                forecasts[request.name] = ForecastInput(lambda_hat_mbps=0.0, sigma_hat=0.2)
            slave = SlaveProblem(base.with_forecasts(requests, forecasts))
            entry = pool._slot[1]
            fresh = benders.CutPool()
            fresh.record(key, entry.num_rows, list(entry.multipliers), entry.best_x)
            seedings = []
            for each in (pool, fresh):
                del computed[:]
                problem = slave.problem
                lowers = [block.theta_lower for block in slave.blocks()]
                master = _MasterState(problem, problem.objective_x(), lowers)
                seeded, _ = each.seed_master(key, master, slave)
                seedings.append((seeded, master.rows(), master.cut_rows(), each._slot[1], sum(computed)))
            (seeded, rows, cuts, carried, work), (want_seeded, want_rows, want_cuts, recomputed, _) = seedings
            carried_seedings += work == 0
            assert [(b, mu.tobytes()) for mu, b in seeded] == [
                (b, mu.tobytes()) for mu, b in want_seeded
            ]
            assert seeded
            matrix, want_matrix = rows[0], want_rows[0]
            for name in ("indptr", "indices", "data"):
                assert identical(getattr(matrix, name), getattr(want_matrix, name)), name
            for got, want in zip((*rows[1:], *cuts), (*want_rows[1:], *want_cuts)):
                assert identical(got, want)
            assert len(carried.halves) == len(recomputed.halves) == len(entry.multipliers)
            for half, want in zip(carried.halves, recomputed.halves):
                assert (half is None) == (want is None)
                if half is not None:
                    assert np.float64(half[0]).tobytes() == np.float64(want[0]).tobytes()
                    assert identical(half[1], want[1])
        # The first seeding computed the halves; the next two carried them.
        assert carried_seedings == 2
        # One layout per pattern: the original's (which the non-zero clone
        # shares) and one per zero-forecast mask.
        layouts = [key[0] for key in base._structure_cache if isinstance(key, tuple)]
        for name in ("slave H", "master rows"):
            assert layouts.count(name) == 3, name
        # Arrays only: nothing the clones share holds a compiled model, whose
        # objective is one forecast's.
        from repro.core.lpsolver import CompiledLP, Phase1Problem

        def leaves(value):
            if isinstance(value, (tuple, list)):
                for item in value:
                    yield from leaves(item)
            elif isinstance(value, dict):
                yield from leaves(list(value.values()))
            else:
                yield value

        assert {"slave", "block stack"} <= set(base._structure_cache)
        assert not any(
            isinstance(leaf, (CompiledLP, Phase1Problem, SlaveProblem))
            for leaf in leaves(base._structure_cache)
        )


# --------------------------------------------------------------------- #
# The path table seam
# --------------------------------------------------------------------- #
def path_listing_a_link_twice(topology) -> PathSet:
    """The tiny topology's paths, one of them hand-built to traverse its
    first link twice (out and back): that link is loaded twice."""
    paths = dict(compute_path_sets(topology, k=2).items())
    key = ("bs-0", "edge-cu")
    original = paths[key][0]
    detour = Path(
        base_station=original.base_station,
        compute_unit=original.compute_unit,
        nodes=original.nodes,
        links=(original.links[0], *original.links, original.links[0]),
        delay_us=original.delay_us,
        capacity_mbps=original.capacity_mbps,
    )
    paths[key] = [detour, *paths[key][1:]]
    return PathSet(paths)


def test_a_link_listed_twice_is_loaded_twice_in_one_canonical_entry(monkeypatch):
    topology = build_tiny_topology()
    requests = make_requests(MMTC_TEMPLATE, 2) + make_requests(CPU_HUNGRY, 1)
    problem = ACRRProblem(
        topology, path_listing_a_link_twice(topology), requests, low_load_forecasts(requests)
    )
    capacity = problem.capacity_block()
    link_row = len(topology.compute_unit_names) + [
        link.key for link in topology.links
    ].index(problem.items[0].path.links[0].key)
    assert problem.items[0].path.links.count(problem.items[0].path.links[0]) == 3
    assert capacity.z.has_canonical_format
    assert capacity.z[link_row, 0] == 3 * problem.items[0].transport_overhead
    assert capacity.z.nnz == capacity.z.tocsr().tocsc().nnz  # one entry, no duplicate index
    assert_assembly_equals_the_oracle(problem, monkeypatch)
