"""Tests for work-conserving statistical multiplexing of admitted slices."""

import numpy as np
import pytest

from repro.core.milp_solver import DirectMILPSolver
from repro.dataplane.multiplexing import SliceMultiplexer


@pytest.fixture
def admitted(embb_problem):
    decision = DirectMILPSolver().solve(embb_problem)
    allocations = {n: a for n, a in decision.allocations.items() if a.accepted}
    assert len(allocations) == 6
    return decision, allocations


def uniform_samples(allocations, topology, mbps, num_samples=4):
    return {
        (name, bs): np.full(num_samples, float(mbps))
        for name in allocations
        for bs in topology.base_station_names
    }


class TestNoOverload:
    def test_all_traffic_served_when_capacity_sufficient(self, embb_problem, admitted):
        _decision, allocations = admitted
        mux = SliceMultiplexer(embb_problem.topology, allocations)
        # 6 slices x 20 Mb/s = 120 Mb/s per BS < 150 Mb/s capacity.
        offered = uniform_samples(allocations, embb_problem.topology, 20.0)
        result = mux.unserved_traffic(offered)
        assert result.total_unserved() == pytest.approx(0.0, abs=1e-9)
        assert result.overloaded_resources == ()

    def test_empty_offered(self, embb_problem, admitted):
        _decision, allocations = admitted
        mux = SliceMultiplexer(embb_problem.topology, allocations)
        result = mux.unserved_traffic({})
        assert result.unserved_mbps == {}


class TestOverload:
    def test_radio_saturation_produces_unserved_traffic(self, embb_problem, admitted):
        _decision, allocations = admitted
        mux = SliceMultiplexer(embb_problem.topology, allocations)
        # 6 slices x 40 Mb/s = 240 Mb/s per BS > 150 Mb/s radio capacity.
        offered = uniform_samples(allocations, embb_problem.topology, 40.0)
        result = mux.unserved_traffic(offered)
        assert result.total_unserved() > 0.0
        assert any(r.startswith("radio:") for r in result.overloaded_resources)

    def test_unserved_never_exceeds_offered(self, embb_problem, admitted):
        _decision, allocations = admitted
        mux = SliceMultiplexer(embb_problem.topology, allocations)
        offered = uniform_samples(allocations, embb_problem.topology, 50.0)
        result = mux.unserved_traffic(offered)
        for key, unserved in result.unserved_mbps.items():
            assert np.all(unserved <= offered[key] + 1e-9)
            assert np.all(unserved >= 0.0)

    def test_total_served_fits_capacity_after_clamping(self, embb_problem, admitted):
        _decision, allocations = admitted
        mux = SliceMultiplexer(embb_problem.topology, allocations)
        offered = uniform_samples(allocations, embb_problem.topology, 45.0, num_samples=1)
        result = mux.unserved_traffic(offered)
        for bs in embb_problem.topology.base_station_names:
            served = sum(
                float(offered[(name, bs)][0] - result.unserved_mbps[(name, bs)][0])
                for name in allocations
            )
            capacity = embb_problem.topology.base_station(bs).capacity_mbps
            assert served <= capacity + 1e-6

    def test_unserved_is_exactly_the_radio_overload(self, embb_problem, admitted):
        _decision, allocations = admitted
        mux = SliceMultiplexer(embb_problem.topology, allocations)
        # 6 x 40 = 240 Mb/s per BS on a 150 Mb/s cell; the 1 Gb/s links
        # stay below capacity, so the radio is the only bottleneck and the
        # traffic not carried is the cell's overload, no more and no less.
        offered = uniform_samples(allocations, embb_problem.topology, 40.0, num_samples=3)
        result = mux.unserved_traffic(offered)
        assert all(r.startswith("radio:") for r in result.overloaded_resources)
        for bs in embb_problem.topology.base_station_names:
            capacity = embb_problem.topology.base_station(bs).capacity_mbps
            unserved = sum(result.unserved_mbps[(name, bs)] for name in allocations)
            assert unserved == pytest.approx(np.full(3, 6 * 40.0 - capacity))

    def test_slices_within_reservation_are_protected(self, embb_problem, admitted):
        _decision, allocations = admitted
        mux = SliceMultiplexer(embb_problem.topology, allocations)
        names = sorted(allocations)
        protected, offenders = names[0], names[1:]
        offered = {}
        for bs in embb_problem.topology.base_station_names:
            reservation = allocations[protected].reservations_mbps[bs]
            offered[(protected, bs)] = np.array([min(reservation, 5.0)])
            for name in offenders:
                offered[(name, bs)] = np.array([50.0])
        result = mux.unserved_traffic(offered)
        for bs in embb_problem.topology.base_station_names:
            assert result.unserved_mbps[(protected, bs)][0] == pytest.approx(0.0, abs=1e-9)
