"""Bit-for-bit equivalence of the vectorized multiplexer vs. the scalar seed.

The vectorized :class:`SliceMultiplexer` (see DESIGN.md, "Vectorized data
plane") promises *identical* floating-point results to the straight-line
per-sample formulation it replaced.  This module keeps that original scalar
implementation as a reference and asserts exact equality -- not approximate
closeness -- on randomized topologies, allocations and sample draws,
including the big-M deficit branch where protected traffic alone exceeds
capacity.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.slices import EMBB_TEMPLATE, SliceRequest, SliceTemplate
from repro.core.solution import TenantAllocation
from repro.dataplane.multiplexing import _EPSILON, ResourceLoadResult, SliceMultiplexer
from repro.topology.generators import degrade_link_capacities
from repro.topology.paths import compute_path_sets

from tests.conftest import build_tiny_topology
from tests.property.engine_step_oracle import OracleMembership, oracle_unserved_traffic


# --------------------------------------------------------------------- #
# Scalar reference: the seed implementation, verbatim algorithmics
# --------------------------------------------------------------------- #
def scalar_unserved_traffic(
    mux: SliceMultiplexer,
    offered_samples_mbps: dict[tuple[str, str], np.ndarray],
) -> ResourceLoadResult:
    """Straight-line per-sample unserved-traffic computation (seed version)."""
    keys = list(offered_samples_mbps.keys())
    if not keys:
        return ResourceLoadResult(unserved_mbps={}, overloaded_resources=())
    num_samples = len(next(iter(offered_samples_mbps.values())))
    unserved = {key: np.zeros(num_samples) for key in keys}
    overloaded: set[str] = set()

    table = OracleMembership(mux.topology, mux.allocations)
    radio_members = table.radio_members(keys)
    link_members = table.link_members(keys)
    compute_members = table.compute_members(keys)

    for sample_index in range(num_samples):
        loads = {
            key: float(np.asarray(offered_samples_mbps[key])[sample_index])
            for key in keys
        }
        for resource, capacity, members in (
            radio_members + link_members + compute_members
        ):
            base_load = sum(constant for (_key, _mult, constant) in members)
            demand = base_load + sum(
                loads[key] * multiplier for (key, multiplier, _constant) in members
            )
            overload = demand - capacity
            if overload <= _EPSILON:
                continue
            overloaded.add(resource)
            shortfall = _scalar_attribute_overload(mux, overload, members, loads)
            for key, unserved_mbps in shortfall.items():
                unserved[key][sample_index] = max(
                    unserved[key][sample_index], unserved_mbps
                )

    return ResourceLoadResult(
        unserved_mbps=unserved, overloaded_resources=tuple(sorted(overloaded))
    )


def _scalar_attribute_overload(mux, overload, members, loads):
    excess: dict[tuple[str, str], float] = {}
    multipliers: dict[tuple[str, str], float] = {}
    demands: dict[tuple[str, str], float] = {}
    for key, multiplier, _constant in members:
        name, bs = key
        allocation = mux.allocations[name]
        reservation = allocation.reservations_mbps.get(bs, 0.0)
        load = loads[key]
        demands[key] = load
        multipliers[key] = multiplier
        excess[key] = max(0.0, load - reservation)

    shortfall: dict[tuple[str, str], float] = {}
    excess_resource_units = {
        key: excess[key] * max(multipliers[key], _EPSILON) for key in excess
    }
    total_excess = sum(excess_resource_units.values())
    remaining = overload
    if total_excess > _EPSILON:
        absorbed = min(remaining, total_excess)
        for key, excess_units in excess_resource_units.items():
            share = absorbed * (excess_units / total_excess)
            shortfall[key] = share / max(multipliers[key], _EPSILON)
        remaining -= absorbed
    if remaining > _EPSILON:
        demand_units = {
            key: demands[key] * max(multipliers[key], _EPSILON) for key in demands
        }
        total_demand = sum(demand_units.values())
        if total_demand > _EPSILON:
            for key, units in demand_units.items():
                extra = remaining * (units / total_demand)
                shortfall[key] = shortfall.get(key, 0.0) + extra / max(
                    multipliers[key], _EPSILON
                )
    return {
        key: min(value, demands[key]) for key, value in shortfall.items() if value > 0
    }


# --------------------------------------------------------------------- #
# Randomized instance construction
# --------------------------------------------------------------------- #
HEAVY_COMPUTE_TEMPLATE = SliceTemplate(
    name="heavy-compute",
    reward=2.0,
    latency_tolerance_ms=30.0,
    sla_mbps=40.0,
    compute_baseline_cpus=1.5,
    compute_cpus_per_mbps=0.5,
)


def random_case(
    rng: np.random.Generator,
    num_bs: int,
    num_tenants: int,
    num_samples: int,
    reservation_fraction: float,
    capacity_scale: float,
):
    """A random star topology with random allocations and offered loads."""
    topology = build_tiny_topology(
        num_base_stations=num_bs,
        bs_capacity_mhz=float(
            capacity_scale * num_tenants * EMBB_TEMPLATE.sla_mbps / 7.5
        ),
        link_capacity_mbps=float(
            capacity_scale * 1.4 * num_tenants * EMBB_TEMPLATE.sla_mbps
        ),
        edge_cpus=float(capacity_scale * num_tenants * num_bs * 4.0),
        core_cpus=float(capacity_scale * num_tenants * num_bs * 8.0),
    )
    path_set = compute_path_sets(topology, k=2)
    compute_units = topology.compute_unit_names

    allocations: dict[str, TenantAllocation] = {}
    offered: dict[tuple[str, str], np.ndarray] = {}
    for t in range(num_tenants):
        template = HEAVY_COMPUTE_TEMPLATE if t % 3 == 0 else EMBB_TEMPLATE
        request = SliceRequest(name=f"slice-{t}", template=template)
        cu = compute_units[int(rng.integers(len(compute_units)))]
        # Some tenants are only served at a subset of the base stations.
        served = [
            bs for bs in topology.base_station_names if rng.random() > 0.2
        ]
        paths = {}
        reservations = {}
        for bs in served:
            candidates = path_set.paths(bs, cu)
            if not candidates:
                continue
            paths[bs] = candidates[int(rng.integers(len(candidates)))]
            reservations[bs] = float(
                reservation_fraction * request.sla_mbps * rng.uniform(0.5, 1.5)
            )
        accepted = bool(paths) and rng.random() > 0.1
        allocations[request.name] = TenantAllocation(
            request=request,
            accepted=accepted,
            compute_unit=cu if accepted else None,
            paths=paths if accepted else {},
            reservations_mbps=reservations if accepted else {},
        )
        # Offer load at every BS -- including ones the slice is not served
        # at, which the multiplexer must ignore.
        for bs in topology.base_station_names:
            offered[(request.name, bs)] = rng.uniform(
                0.0, request.sla_mbps, size=num_samples
            )
    return topology, allocations, offered


def assert_identical(reference: ResourceLoadResult, result: ResourceLoadResult):
    assert result.overloaded_resources == reference.overloaded_resources
    assert set(result.unserved_mbps) == set(reference.unserved_mbps)
    for key, expected in reference.unserved_mbps.items():
        actual = result.unserved_mbps[key]
        assert np.array_equal(actual, expected), (
            f"unserved traffic diverged for {key}: {actual} != {expected}"
        )


# --------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------- #
class TestVectorizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_saturated_instances(self, seed):
        rng = np.random.default_rng(seed)
        topology, allocations, offered = random_case(
            rng,
            num_bs=int(rng.integers(2, 6)),
            num_tenants=int(rng.integers(3, 10)),
            num_samples=int(rng.integers(1, 25)),
            reservation_fraction=0.4,
            # Scarce capacity: most samples overload at least one resource.
            capacity_scale=float(rng.uniform(0.25, 0.6)),
        )
        mux = SliceMultiplexer(topology, allocations)
        assert_identical(
            scalar_unserved_traffic(mux, offered), mux.unserved_traffic(offered)
        )

    @pytest.mark.parametrize("seed", range(8, 12))
    def test_randomized_unsaturated_instances(self, seed):
        rng = np.random.default_rng(seed)
        topology, allocations, offered = random_case(
            rng,
            num_bs=3,
            num_tenants=5,
            num_samples=10,
            reservation_fraction=0.5,
            capacity_scale=3.0,
        )
        mux = SliceMultiplexer(topology, allocations)
        reference = scalar_unserved_traffic(mux, offered)
        result = mux.unserved_traffic(offered)
        assert result.total_unserved() == 0.0
        assert_identical(reference, result)

    @pytest.mark.parametrize("seed", range(12, 18))
    def test_deficit_branch_protected_traffic_exceeds_capacity(self, seed):
        """Big-M relaxation: reservations alone exceed capacity.

        Offered loads are kept at or below the reservations, so the excess
        pool is empty and the whole overload flows through the
        proportional-to-demand branch.
        """
        rng = np.random.default_rng(seed)
        topology, allocations, offered = random_case(
            rng,
            num_bs=int(rng.integers(2, 5)),
            num_tenants=int(rng.integers(3, 8)),
            num_samples=8,
            # Reservations far above capacity (deficit relaxation outcome).
            reservation_fraction=1.0,
            capacity_scale=0.3,
        )
        # Clamp every offered sample below its reservation: all traffic is
        # protected, yet the resources still saturate.
        for (name, bs), samples in offered.items():
            allocation = allocations[name]
            reservation = allocation.reservations_mbps.get(bs, 0.0)
            offered[(name, bs)] = np.minimum(samples, reservation)
        mux = SliceMultiplexer(topology, allocations)
        reference = scalar_unserved_traffic(mux, offered)
        result = mux.unserved_traffic(offered)
        assert reference.overloaded_resources, "case must actually saturate"
        assert_identical(reference, result)

    def test_mixed_excess_and_deficit_attribution(self):
        """One saturated resource with both protected and overbooked slices."""
        rng = np.random.default_rng(99)
        topology, allocations, offered = random_case(
            rng,
            num_bs=2,
            num_tenants=6,
            num_samples=16,
            reservation_fraction=0.8,
            capacity_scale=0.45,
        )
        mux = SliceMultiplexer(topology, allocations)
        reference = scalar_unserved_traffic(mux, offered)
        result = mux.unserved_traffic(offered)
        assert reference.overloaded_resources
        assert_identical(reference, result)

    def test_empty_offered(self):
        topology = build_tiny_topology()
        mux = SliceMultiplexer(topology, {})
        result = mux.unserved_traffic({})
        assert result.unserved_mbps == {}
        assert result.overloaded_resources == ()

    def test_accepts_plain_lists(self):
        """Offered loads arriving as python lists are converted exactly once."""
        rng = np.random.default_rng(5)
        topology, allocations, offered = random_case(
            rng, num_bs=2, num_tenants=4, num_samples=6,
            reservation_fraction=0.4, capacity_scale=0.4,
        )
        as_lists = {key: list(map(float, samples)) for key, samples in offered.items()}
        mux = SliceMultiplexer(topology, allocations)
        assert_identical(
            scalar_unserved_traffic(mux, offered), mux.unserved_traffic(as_lists)
        )


class TestAgainstTheRetiredTable:
    """The array-built resource table against the retired per-triple builder.

    Epoch after epoch, as the simulation engine drives it: a fresh
    multiplexer per epoch over the same ``Path`` objects, then a link
    failure that rescales capacities between epochs, then a changed
    admitted set.  The retired vectorized multiplexer
    (``engine_step_oracle.oracle_unserved_traffic``) and the scalar seed
    must both agree byte for byte.
    """

    @staticmethod
    def check(topology, allocations, offered, scalar=True) -> ResourceLoadResult:
        expected = oracle_unserved_traffic(topology, allocations, offered)
        mux = SliceMultiplexer(topology, allocations)
        assert_identical(expected, mux.unserved_traffic(offered))
        if scalar:
            assert_identical(expected, scalar_unserved_traffic(mux, offered))
        return expected

    @staticmethod
    def next_epoch(rng, allocations, offered):
        """New loads and new reservations over the same paths."""
        allocations = {
            name: dataclasses.replace(
                alloc,
                reservations_mbps={
                    bs: mbps * float(rng.uniform(0.6, 1.4))
                    for bs, mbps in alloc.reservations_mbps.items()
                },
            )
            for name, alloc in allocations.items()
        }
        offered = {
            (name, bs): rng.uniform(0.0, 50.0, size=len(samples))
            for (name, bs), samples in offered.items()
        }
        return allocations, offered

    @pytest.mark.parametrize("seed", range(6))
    def test_epochs_then_a_link_failure_then_a_new_admitted_set(self, seed):
        rng = np.random.default_rng(100 + seed)
        topology, allocations, offered = random_case(
            rng,
            num_bs=int(rng.integers(2, 5)),
            num_tenants=int(rng.integers(4, 9)),
            num_samples=12,
            reservation_fraction=0.4,
            capacity_scale=float(rng.uniform(0.3, 0.7)),
        )
        hot = set()
        for _ in range(3):
            hot.update(self.check(topology, allocations, offered).overloaded_resources)
            allocations, offered = self.next_epoch(rng, allocations, offered)

        # A multiplexer built before the failure reads the capacities after it.
        built_before = SliceMultiplexer(topology, allocations)
        used = [
            link.key
            for alloc in allocations.values()
            for path in alloc.paths.values()
            for link in path.links
        ]
        degrade_link_capacities(topology, sorted(set(used))[:2], 0.2)
        expected = self.check(topology, allocations, offered)
        assert_identical(expected, built_before.unserved_traffic(offered))
        hot.update(expected.overloaded_resources)
        assert any(label.startswith("transport:") for label in hot)

        # One tenant leaves, another is admitted at the stations it had.
        names = list(allocations)
        leaving = next(name for name in names if allocations[name].accepted)
        joining = next(
            (name for name in names if not allocations[name].accepted), None
        )
        admitted = dict(allocations)
        left = admitted.pop(leaving)
        if joining is not None:
            admitted[joining] = dataclasses.replace(
                left, request=allocations[joining].request
            )
        allocations, offered = self.next_epoch(rng, admitted, offered)
        self.check(topology, allocations, offered)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_link_listed_twice_and_interleaved_keys(self, seed):
        """A path listing a link twice adds its overhead twice (the retired
        sparse build summed duplicate entries; the scalar seed keeps one
        multiplier per key, so it is no reference here); keys need not come
        grouped by slice."""
        rng = np.random.default_rng(200 + seed)
        topology, allocations, offered = random_case(
            rng, num_bs=3, num_tenants=6, num_samples=10,
            reservation_fraction=0.3, capacity_scale=0.3,
        )
        name, alloc = next(
            (name, alloc) for name, alloc in allocations.items() if alloc.accepted
        )
        bs, path = next(iter(alloc.paths.items()))
        looped = dataclasses.replace(path, links=path.links + path.links[:1])
        allocations[name] = dataclasses.replace(alloc, paths={**alloc.paths, bs: looped})
        keys = list(offered)
        rng.shuffle(keys)
        shuffled = {key: offered[key] for key in keys}
        result = self.check(topology, allocations, shuffled, scalar=False)
        assert result.overloaded_resources
