"""Complexity guards of the array assembly: counts, never timings.

The model is assembled from a table of columns, so the *number* of
``scipy.sparse`` objects a solve constructs is a constant of the code, not
a function of the instance; the per-item ``ProblemItem`` objects are a view
no solver touches; and what a structure-cache hit shares it must not
rebuild.  Each claim is asserted as an exact count on two instance sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import _base as sparse_base

from repro.core import problem as problem_module
from repro.core.benders import BendersSolver, _LoopState, _MasterState
from repro.core.decomposition import SlaveProblem
from repro.core.milp_solver import DirectMILPSolver
from repro.core.problem import ACRRProblem, ProblemStructureCache
from repro.core.slices import EMBB_TEMPLATE, MMTC_TEMPLATE, URLLC_TEMPLATE, make_requests
from repro.core.solution import decision_from_vectors
from repro.topology.paths import compute_path_sets
from tests.conftest import build_tiny_topology, low_load_forecasts


def instance(num_tenants: int) -> ACRRProblem:
    topology = build_tiny_topology(num_base_stations=3, bs_capacity_mhz=40.0)
    third = num_tenants // 3
    requests = (
        make_requests(EMBB_TEMPLATE, num_tenants - 2 * third)
        + make_requests(MMTC_TEMPLATE, third)
        + make_requests(URLLC_TEMPLATE, third)
    )
    return ACRRProblem(
        topology, compute_path_sets(topology, k=2), requests, low_load_forecasts(requests)
    )


@pytest.fixture
def sparse_constructions(monkeypatch):
    """Every ``scipy.sparse`` matrix constructed while the fixture is live."""
    built: list[str] = []
    real_init = sparse_base._spbase.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(sparse_base._spbase, "__init__", counting_init)
    return built


def solver() -> BendersSolver:
    return BendersSolver(master_time_limit_s=None, time_limit_s=None, warm_start=False)


def set_up(problem: ACRRProblem):
    """Everything a cold solve builds before its first master round."""
    slave = SlaveProblem(problem)
    lowers = np.array([block.theta_lower for block in slave.blocks()])
    master = _MasterState(problem, problem.objective_x(), lowers)
    # The compiled models: the slave LP and the stacked block LP.
    origin = np.zeros(problem.num_items)
    slave.evaluate(origin)
    slave.evaluate_blocks(origin)
    return slave, master


def one_round(problem: ACRRProblem, slave: SlaveProblem, master: _MasterState) -> None:
    """Master, price, cut -- and the next master, which merges the cuts."""
    benders, state = solver(), _LoopState()
    candidate, _ = benders._master_step(master)
    outcome, block_outcomes = benders._price(slave, problem.objective_x(), candidate, state)
    benders._add_cuts(master, slave, state, outcome, block_outcomes)
    assert master.num_cuts >= 1
    benders._master_step(master)


class TestSparseConstructionsDoNotGrowWithTheInstance:
    def test_set_up_and_master_round(self, sparse_constructions):
        counts = {}
        for num_tenants in (4, 12):
            problem = instance(num_tenants)
            assert problem.num_tenants == num_tenants
            del sparse_constructions[:]
            slave, master = set_up(problem)
            after_set_up = len(sparse_constructions)
            one_round(problem, slave, master)
            counts[num_tenants] = (after_set_up, len(sparse_constructions) - after_set_up)
        assert counts[4] == counts[12]
        set_up_count, round_count = counts[4]
        # Ceilings, so a regression to per-block or per-cut construction
        # cannot hide behind "equal on both sizes".
        assert set_up_count <= 11 and round_count <= 3

    def test_a_steady_state_fast_path_hit(self, sparse_constructions):
        # A hit binds the forecast -- H, H' and the floor footprint are the
        # structure's layouts holding this forecast's data, nothing to
        # construct -- and seeds the carried certificate: the one seeded
        # master handed to HiGHS is the one matrix it builds (eight before
        # the certificate carried its forecast-free half and the seeded
        # cuts entered the master in one pass).
        counts = {}
        for num_tenants in (6, 12):
            base = instance(num_tenants)
            requests = base.requests
            solver = BendersSolver(master_time_limit_s=None, time_limit_s=None)
            built = []
            for drift in (0.0, 0.001, 0.002, 0.003):
                forecasts = low_load_forecasts(requests, fraction=0.5 + drift, sigma=0.2)
                problem = base.with_forecasts(requests, forecasts)
                del sparse_constructions[:]
                stats = solver.solve(problem).stats
                built.append((stats.iterations, stats.cuts_warm > 0, len(sparse_constructions)))
            # A cold solve, the first hit (which also transposes G, once per
            # structure), then two steady-state hits.
            assert [hit for _, hit, _ in built] == [False, True, True, True]
            assert [iterations for iterations, hit, _ in built if hit] == [1, 1, 1]
            counts[num_tenants] = [count for _, hit, count in built if hit]
        assert counts[6] == counts[12] == [2, 1, 1]

    def test_direct_milp_model(self, sparse_constructions, monkeypatch):
        counts = []
        for num_tenants in (4, 12):
            problem = instance(num_tenants)
            del sparse_constructions[:]
            DirectMILPSolver(time_limit_s=None).solve(problem)
            counts.append(len(sparse_constructions))
        assert counts[0] == counts[1] <= 10


def test_a_whole_solve_materialises_no_item_object(monkeypatch):
    made = []
    real_init = problem_module.ProblemItem.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(problem_module.ProblemItem, "__init__", counting_init)
    problem = instance(6)
    decision = solver().solve(problem)  # ends in decision_from_vectors
    exact = DirectMILPSolver(time_limit_s=None).solve(problem)
    x = np.zeros(problem.num_items)
    decision_from_vectors(problem, x, x, decision.stats)
    assert decision.num_accepted == exact.num_accepted > 0
    assert made == []
    assert len(problem.items) == problem.num_items == len(made)  # the view, on demand


def test_structure_cache_hit_rebuilds_no_capacity_or_selection_matrix(sparse_constructions):
    topology = build_tiny_topology(num_base_stations=3)
    path_set = compute_path_sets(topology, k=2)
    requests = make_requests(EMBB_TEMPLATE, 3) + make_requests(MMTC_TEMPLATE, 2)
    cache = ProblemStructureCache()
    first = cache.build(topology, path_set, requests, low_load_forecasts(requests))
    blocks = (first.capacity_block(), first.selection_block(), first.resource_blocks())
    del sparse_constructions[:]
    second = cache.build(
        topology, path_set, requests, low_load_forecasts(requests, fraction=0.5, sigma=0.3)
    )
    assert (cache.hits, cache.misses) == (1, 1)
    shared = (second.capacity_block(), second.selection_block(), second.resource_blocks())
    assert all(ours is theirs for ours, theirs in zip(shared, blocks))
    assert sparse_constructions == []
    # What the forecasts enter is the clone's own, built once on demand:
    # the three parts of the coupling block and the floor footprint.
    assert second.coupling_block() is second.coupling_block()
    second.floor_footprint()
    assert len(sparse_constructions) == 4
