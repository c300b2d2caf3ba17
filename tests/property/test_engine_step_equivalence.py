"""Byte-for-byte equivalence of the engine step's bookkeeping with the retired loops.

The SLA accounting, the RAN plan, the per-domain reservations and the
demand sampling were rewritten to run in array passes (see DESIGN.md,
"Vectorized data plane").  Each must reproduce the per-key loop it replaced
-- kept verbatim in ``tests/property/engine_step_oracle.py`` -- float for
float: every comparison below goes through ``float.hex``, so even the sign
of a zero counts.
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.controlplane.controllers import RanController
from repro.core.slices import EMBB_TEMPLATE, MMTC_TEMPLATE, URLLC_TEMPLATE, SliceRequest
from repro.core.solution import OrchestrationDecision, SolverStats, TenantAllocation
from repro.radio.ran_sharing import RanSlicingEnforcer
from repro.simulation.revenue import RevenueAccountant
from repro.topology.paths import compute_path_sets
from repro.traffic.demand import DeterministicDemand, GaussianDemand, OnOffDemand
from repro.traffic.seasonal import SeasonalDemand

from tests.conftest import build_tiny_topology
from tests.property.engine_step_oracle import (
    oracle_compute_reservations,
    oracle_ran_plan,
    oracle_record_epoch,
    oracle_sample_epoch,
    oracle_transport_reservations,
)

TEMPLATES = (EMBB_TEMPLATE, MMTC_TEMPLATE, URLLC_TEMPLATE)


def exact(value):
    """``value`` with every float spelled by its bits, containers kept in order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(exact(key), exact(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [exact(item) for item in value]
    if hasattr(value, "__dataclass_fields__"):
        return [(name, exact(getattr(value, name))) for name in value.__dataclass_fields__]
    return value


# --------------------------------------------------------------------- #
# SLA accounting
# --------------------------------------------------------------------- #
def random_epoch(rng, requests, base_stations):
    """Offered and unserved samples with every corner the accountant meets.

    Keys of slices that are not active, empty sample arrays, keys missing
    from the unserved dict, samples at zero (some of them "violated"),
    shortfalls just under the violation tolerance, run lengths that differ
    from key to key, and keys that do not come grouped by slice.
    """
    offered = {}
    unserved = {}
    for request in requests:
        for bs in base_stations:
            kind = int(rng.integers(6))
            size = 0 if kind == 0 else int(rng.integers(1, 9))
            samples = rng.uniform(0.0, request.sla_mbps, size)
            samples[rng.random(size) < 0.2] = 0.0
            offered[(request.name, bs)] = samples
            if kind == 1:
                continue
            shortfall = np.where(rng.random(size) < 0.4, rng.uniform(0.0, 1.0, size), 0.0)
            missing = shortfall * np.where(samples > 0, samples, 3.0)
            missing[rng.random(size) < 0.1] = 5e-7
            unserved[(request.name, bs)] = missing if kind != 2 else list(missing)
    keys = list(offered)
    rng.shuffle(keys)
    return {key: offered[key] for key in keys}, unserved


class TestRecordEpoch:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_report_field_matches_the_per_key_loop(self, seed):
        rng = np.random.default_rng(seed)
        base_stations = [f"bs-{b}" for b in range(int(rng.integers(1, 5)))]
        requests = [
            SliceRequest(
                name=f"s{index}",
                template=TEMPLATES[int(rng.integers(len(TEMPLATES)))],
                duration_epochs=int(rng.integers(1, 30)),
                penalty_factor=float(rng.uniform(0.5, 4.0)),
            )
            for index in range(int(rng.integers(1, 8)))
        ]
        shipped = RevenueAccountant(num_base_stations=len(base_stations))
        retired = RevenueAccountant(num_base_stations=len(base_stations))
        for epoch in range(8):
            active = [request for request in requests if rng.random() > 0.25]
            if active and rng.random() < 0.3:
                active.append(active[0])  # a request listed twice counts twice
            offered, unserved = random_epoch(rng, requests, base_stations)
            got = shipped.record_epoch(epoch, active, offered, unserved)
            want = oracle_record_epoch(retired, epoch, active, offered, unserved)
            assert exact(got) == exact(want)
        assert exact(shipped.report) == exact(retired.report)
        assert shipped.report.total_samples > 0

    def test_an_epoch_without_samples(self):
        shipped, retired = RevenueAccountant(2), RevenueAccountant(2)
        request = SliceRequest(name="s", template=EMBB_TEMPLATE)
        offered = {("s", "bs-0"): np.zeros(0), ("t", "bs-0"): np.ones(3)}
        for accountant, record in (
            (shipped, RevenueAccountant.record_epoch),
            (retired, oracle_record_epoch),
        ):
            record(accountant, 0, [request], offered, {})
            record(accountant, 1, [], {}, {})
        assert exact(shipped.report) == exact(retired.report)
        assert shipped.report.per_slice_penalty == {}


# --------------------------------------------------------------------- #
# RAN plan and per-domain reservations
# --------------------------------------------------------------------- #
def random_decision(rng, topology, path_set, num_tenants, load):
    allocations = {}
    for index in range(num_tenants):
        request = SliceRequest(
            name=f"t{index}", template=TEMPLATES[int(rng.integers(len(TEMPLATES)))]
        )
        unit = topology.compute_unit_names[int(rng.integers(len(topology.compute_unit_names)))]
        paths = {}
        reservations = {}
        for bs in topology.base_station_names:
            candidates = path_set.paths(bs, unit)
            if not candidates or rng.random() < 0.15:
                continue
            paths[bs] = candidates[int(rng.integers(len(candidates)))]
            reservations[bs] = float(load * rng.uniform(0.0, 1.0) * request.sla_mbps)
        if paths and rng.random() < 0.1:
            reservations[next(iter(paths))] = 0.0
        accepted = bool(paths) and rng.random() > 0.15
        allocations[request.name] = TenantAllocation(
            request=request,
            accepted=accepted,
            compute_unit=unit,
            paths=paths,
            reservations_mbps=reservations,
        )
    return OrchestrationDecision(
        allocations=allocations, objective_value=0.0, stats=SolverStats(solver="test")
    )


class TestControllerPlans:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("load", [0.3, 4.0])  # 4.0 over-subscribes every carrier
    def test_ran_plan_and_reservations_match_the_per_grant_loop(self, seed, load):
        rng = np.random.default_rng(seed)
        topology = build_tiny_topology(num_base_stations=int(rng.integers(1, 5)))
        path_set = compute_path_sets(topology, k=2)
        problem = SimpleNamespace(
            topology=topology, compute_unit_names=topology.compute_unit_names
        )
        controller = RanController(topology)
        clamped = 0
        for _ in range(3):
            decision = random_decision(rng, topology, path_set, int(rng.integers(1, 12)), load)
            planned = controller.plan(decision)
            retired = oracle_ran_plan(controller, decision)
            assert exact({bs: e.shares() for bs, e in planned.items()}) == exact(retired)
            for bs, enforcer in planned.items():
                summed = sum(share.prbs for share in retired[bs].values())
                assert float(enforcer.free_prbs).hex() == float(
                    enforcer.capacity_prbs - summed
                ).hex()
                clamped += enforcer.free_prbs < 1e-6
            assert exact(decision.transport_reservations_mbps(problem)) == exact(
                oracle_transport_reservations(decision, problem)
            )
            assert exact(decision.compute_reservations_cpus(problem)) == exact(
                oracle_compute_reservations(decision, problem)
            )
            controller.enforce(planned)
        assert (clamped > 0) == (load > 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_the_running_total_is_the_sum_through_updates(self, seed):
        """Granting a new slice extends the running total; updating a
        slice's share re-sums -- either way it is ``sum`` over the shares."""
        rng = np.random.default_rng(seed)
        capacity_mhz = float(rng.uniform(5.0, 40.0))
        station = build_tiny_topology(bs_capacity_mhz=capacity_mhz).base_stations[0]
        enforcer = RanSlicingEnforcer(station)
        for _ in range(40):
            name = f"s{int(rng.integers(8))}"
            wanted = float(rng.uniform(0.0, 30.0))
            free = enforcer.bitrate_for_prbs(max(0.0, enforcer.free_prbs))
            with contextlib.suppress(ValueError):  # an update may not fit
                enforcer.grant_bitrate(name, min(wanted, free))
            summed = sum(share.prbs for share in enforcer.shares().values())
            assert float(enforcer.allocated_prbs).hex() == float(summed).hex()
        rebuilt = RanSlicingEnforcer(station, enforcer.shares())
        assert float(rebuilt.allocated_prbs).hex() == float(enforcer.allocated_prbs).hex()
        assert repr(rebuilt) == repr(enforcer) and rebuilt == enforcer

    def test_a_negative_reservation_is_refused_as_before(self):
        topology = build_tiny_topology()
        path_set = compute_path_sets(topology, k=1)
        decision = random_decision(np.random.default_rng(0), topology, path_set, 3, 0.3)
        name = next(name for name, alloc in decision.allocations.items() if alloc.accepted)
        decision.allocations[name].reservations_mbps[
            next(iter(decision.allocations[name].paths))
        ] = -1.0
        controller = RanController(topology)
        with pytest.raises(ValueError, match="mbps"):
            oracle_ran_plan(controller, decision)
        with pytest.raises(ValueError, match="mbps"):
            controller.plan(decision)


# --------------------------------------------------------------------- #
# Demand sampling
# --------------------------------------------------------------------- #
MODELS = {
    "gaussian": lambda seed: GaussianDemand(30.0, 12.0, sla_mbps=50.0, seed=seed),
    "deterministic": lambda seed: DeterministicDemand(7.5, sla_mbps=10.0, seed=seed),
    "seasonal": lambda seed: SeasonalDemand(25.0, 0.4, sla_mbps=50.0, epochs_per_day=6, seed=seed),
    "on-off": lambda seed: OnOffDemand(40.0, 0.0, 20.0, sla_mbps=50.0, seed=seed),
}


class TestSampleEpoch:
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("seed", range(3))
    def test_identical_tuples(self, model, seed):
        shipped, retired = MODELS[model](seed), MODELS[model](seed)
        for epoch in range(30):
            drawn = shipped.sample_epoch(epoch, 1 + epoch % 13)
            assert type(drawn.samples_mbps) is tuple
            assert all(type(value) is float for value in drawn.samples_mbps)
            assert exact(drawn.samples_mbps) == exact(
                oracle_sample_epoch(retired, epoch, 1 + epoch % 13)
            )
