"""Structure-cache correctness: skeleton reuse must be invisible.

`ProblemStructureCache` rebinds the previous epoch's `ACRRProblem` skeleton
when only the forecasts changed.  These tests pin down the two contracts
that make that safe: (1) a cached build produces *identical* matrices,
objectives and items to a cold build, and (2) any structural change --
request set, committed flags, path set, options, topology -- invalidates
the cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import ACRRProblem, ProblemOptions, ProblemStructureCache
from repro.core.slices import EMBB_TEMPLATE, URLLC_TEMPLATE, make_requests
from repro.topology.paths import compute_path_sets

from tests.conftest import build_tiny_topology, low_load_forecasts


@pytest.fixture
def topology():
    return build_tiny_topology()


@pytest.fixture
def path_set(topology):
    return compute_path_sets(topology, k=3)


@pytest.fixture
def requests():
    return make_requests(EMBB_TEMPLATE, 4, duration_epochs=24)


def other_forecasts(requests, fraction=0.6, sigma=0.4):
    return low_load_forecasts(requests, fraction=fraction, sigma=sigma)


def assert_same_block(cached_block, cold_block):
    for attr in ("a_x", "a_z", "a_y"):
        cached = getattr(cached_block, attr)
        cold = getattr(cold_block, attr)
        assert cached.shape == cold.shape
        assert (cached != cold).nnz == 0, f"{attr} differs"
    assert np.array_equal(cached_block.lower, cold_block.lower)
    assert np.array_equal(cached_block.upper, cold_block.upper)
    assert cached_block.labels == cold_block.labels


def assert_equivalent_problems(cached: ACRRProblem, cold: ACRRProblem):
    assert cached.num_items == cold.num_items
    assert cached.items == cold.items
    assert_same_block(cached.capacity_block(), cold.capacity_block())
    assert_same_block(cached.selection_block(), cold.selection_block())
    assert_same_block(cached.coupling_block(), cold.coupling_block())
    assert np.array_equal(cached.objective_x(), cold.objective_x())
    assert np.array_equal(cached.objective_y(), cold.objective_y())
    for request in cold.requests:
        assert cached.forecast(request.name) == cold.forecast(request.name)


class TestWithForecasts:
    def test_cached_build_matches_cold_build(self, topology, path_set, requests):
        base = ACRRProblem(
            topology=topology,
            path_set=path_set,
            requests=requests,
            forecasts=low_load_forecasts(requests),
        )
        # Prime the forecast-independent block caches so they are shared.
        base.capacity_block()
        base.selection_block()
        new_forecasts = other_forecasts(requests)
        cached = base.with_forecasts(requests, new_forecasts)
        cold = ACRRProblem(
            topology=topology,
            path_set=path_set,
            requests=requests,
            forecasts=new_forecasts,
        )
        assert_equivalent_problems(cached, cold)

    def test_missing_forecasts_fall_back_to_pessimistic(
        self, topology, path_set, requests
    ):
        base = ACRRProblem(
            topology=topology,
            path_set=path_set,
            requests=requests,
            forecasts=low_load_forecasts(requests),
        )
        cached = base.with_forecasts(requests, {})
        cold = ACRRProblem(
            topology=topology, path_set=path_set, requests=requests, forecasts={}
        )
        assert_equivalent_problems(cached, cold)

    def test_swaps_in_fresh_request_objects(self, topology, path_set, requests):
        base = ACRRProblem(
            topology=topology,
            path_set=path_set,
            requests=requests,
            forecasts=low_load_forecasts(requests),
        )
        fresh = make_requests(EMBB_TEMPLATE, 4, duration_epochs=24)
        fresh[0].metadata["preferred_compute_unit"] = "edge-cu"
        clone = base.with_forecasts(fresh, low_load_forecasts(fresh))
        assert clone.requests[0] is fresh[0]
        assert clone.items[0].tenant is fresh[clone.items[0].tenant_index]

    def test_rejects_structurally_different_requests(
        self, topology, path_set, requests
    ):
        base = ACRRProblem(
            topology=topology,
            path_set=path_set,
            requests=requests,
            forecasts=low_load_forecasts(requests),
        )
        committed = [r.as_committed() for r in requests]
        with pytest.raises(ValueError):
            base.with_forecasts(committed, low_load_forecasts(committed))


class TestProblemStructureCache:
    def test_hit_on_unchanged_structure(self, topology, path_set, requests):
        cache = ProblemStructureCache()
        options = ProblemOptions()
        first = cache.build(
            topology, path_set, requests, low_load_forecasts(requests), options
        )
        second = cache.build(
            topology, path_set, requests, other_forecasts(requests), options
        )
        assert (cache.hits, cache.misses) == (1, 1)
        cold = ACRRProblem(
            topology=topology,
            path_set=path_set,
            requests=requests,
            forecasts=other_forecasts(requests),
            options=options,
        )
        assert_equivalent_problems(second, cold)
        # The skeleton is genuinely shared, not rebuilt: one item table,
        # hence the very same structural columns, and one structure cache.
        assert second._table is first._table
        assert second._table.sla is first._table.sla
        assert second._table.link_row is first._table.link_row
        assert second._structure_cache is first._structure_cache
        assert second.capacity_block() is first.capacity_block()
        # ... while the three forecast columns are the clone's own.
        assert second._lambda_hat is not first._lambda_hat

    def test_invalidated_by_request_set_change(self, topology, path_set, requests):
        cache = ProblemStructureCache()
        cache.build(topology, path_set, requests, low_load_forecasts(requests))
        grown = requests + make_requests(URLLC_TEMPLATE, 1, prefix="urllc-extra")
        cache.build(topology, path_set, grown, low_load_forecasts(grown))
        assert (cache.hits, cache.misses) == (0, 2)

    def test_invalidated_by_committed_flags(self, topology, path_set, requests):
        cache = ProblemStructureCache()
        cache.build(topology, path_set, requests, low_load_forecasts(requests))
        committed = [r.as_committed() for r in requests]
        problem = cache.build(
            topology, path_set, committed, low_load_forecasts(committed)
        )
        assert (cache.hits, cache.misses) == (0, 2)
        assert all(item.tenant.committed for item in problem.items)

    def test_invalidated_by_path_set_identity(self, topology, requests):
        cache = ProblemStructureCache()
        first_paths = compute_path_sets(topology, k=3)
        second_paths = compute_path_sets(topology, k=3)
        cache.build(topology, first_paths, requests, low_load_forecasts(requests))
        cache.build(topology, second_paths, requests, low_load_forecasts(requests))
        assert (cache.hits, cache.misses) == (0, 2)

    def test_invalidated_by_options_change(self, topology, path_set, requests):
        cache = ProblemStructureCache()
        cache.build(
            topology, path_set, requests, low_load_forecasts(requests),
            ProblemOptions(allow_deficit=False),
        )
        cache.build(
            topology, path_set, requests, low_load_forecasts(requests),
            ProblemOptions(allow_deficit=True),
        )
        assert (cache.hits, cache.misses) == (0, 2)

    def test_invalidated_by_topology_identity(self, path_set, requests):
        cache = ProblemStructureCache()
        first = build_tiny_topology()
        second = build_tiny_topology()
        paths_first = compute_path_sets(first, k=3)
        cache.build(first, paths_first, requests, low_load_forecasts(requests))
        cache.build(second, paths_first, requests, low_load_forecasts(requests))
        assert (cache.hits, cache.misses) == (0, 2)


class TestSolverEquivalenceOnCachedProblems:
    def test_cached_problem_solves_to_the_same_decision(
        self, topology, path_set, requests
    ):
        from repro.core.milp_solver import DirectMILPSolver

        cache = ProblemStructureCache()
        cache.build(topology, path_set, requests, low_load_forecasts(requests))
        cached = cache.build(
            topology, path_set, requests, other_forecasts(requests)
        )
        cold = ACRRProblem(
            topology=topology,
            path_set=path_set,
            requests=requests,
            forecasts=other_forecasts(requests),
        )
        assert cache.hits == 1
        solver = DirectMILPSolver()
        from_cached = solver.solve(cached)
        from_cold = solver.solve(cold)
        assert from_cached.objective_value == from_cold.objective_value
        assert from_cached.accepted_tenants == from_cold.accepted_tenants
        for name, allocation in from_cold.allocations.items():
            assert (
                from_cached.allocations[name].reservations_mbps
                == allocation.reservations_mbps
            )


class TestTopologyMutation:
    def test_in_place_topology_mutation_invalidates_the_cache(self, requests):
        from repro.topology.elements import BaseStation, TransportLink

        topology = build_tiny_topology()
        path_set = compute_path_sets(topology, k=3)
        cache = ProblemStructureCache()
        cache.build(topology, path_set, requests, low_load_forecasts(requests))
        # Mutate the topology in place: same object identity, new content.
        topology.add_base_station(BaseStation(name="bs-new", capacity_mhz=20.0))
        topology.add_link(
            TransportLink(endpoint_a="bs-new", endpoint_b="sw", capacity_mbps=1000.0)
        )
        cache.build(topology, path_set, requests, low_load_forecasts(requests))
        assert (cache.hits, cache.misses) == (0, 2)
