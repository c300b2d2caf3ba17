"""End-to-end integration tests: paper-level claims on reduced scenarios.

These tests cross module boundaries on purpose: they build operator
topologies, run the full orchestration loop (forecasting, AC-RR, controllers,
data plane, revenue accounting) and assert the qualitative results the paper
reports.
"""

import pytest

from repro.core.slices import EMBB_TEMPLATE, MMTC_TEMPLATE
from repro.simulation.runner import compare_policies, run_scenario
from repro.simulation.scenario import homogeneous_scenario, testbed_scenario as make_testbed_scenario
from repro.utils.stats import relative_gain


@pytest.mark.integration
class TestPaperHeadlineClaims:
    def test_romanian_embb_overbooking_gain(self):
        """Paper Section 4.3.3: ~3 units without overbooking, up to ~220% more with it."""
        scenario = homogeneous_scenario(
            "romanian",
            EMBB_TEMPLATE,
            num_tenants=10,
            mean_load_fraction=0.2,
            relative_std=0.25,
            penalty_factor=1.0,
            num_epochs=3,
            num_base_stations=8,
            seed=1,
        )
        results = compare_policies(scenario, policies=("optimal", "no-overbooking"))
        baseline = results["no-overbooking"]
        overbooked = results["optimal"]
        assert baseline.net_revenue == pytest.approx(3.0, abs=0.2)
        gain = relative_gain(overbooked.net_revenue, baseline.net_revenue)
        assert gain > 150.0
        # Negligible SLA footprint.
        assert overbooked.violation_probability < 0.01

    def test_swiss_transport_constrained_gain_larger_than_romanian(self):
        """Paper Fig. 5: the eMBB gain in the Swiss network is roughly twice the Romanian one."""
        gains = {}
        for operator in ("romanian", "swiss"):
            scenario = homogeneous_scenario(
                operator,
                EMBB_TEMPLATE,
                num_tenants=10,
                mean_load_fraction=0.2,
                relative_std=0.25,
                num_epochs=2,
                num_base_stations=8,
                seed=1,
            )
            results = compare_policies(scenario, policies=("optimal", "no-overbooking"))
            gains[operator] = relative_gain(
                results["optimal"].net_revenue, results["no-overbooking"].net_revenue
            )
        assert gains["swiss"] > gains["romanian"]

    def test_mmtc_is_compute_bound_and_benefits_from_overbooking(self):
        scenario = homogeneous_scenario(
            "romanian",
            MMTC_TEMPLATE,
            num_tenants=10,
            mean_load_fraction=0.2,
            relative_std=0.0,
            num_epochs=2,
            num_base_stations=8,
            seed=1,
        )
        results = compare_policies(scenario, policies=("optimal", "no-overbooking"))
        assert results["optimal"].num_admitted > results["no-overbooking"].num_admitted
        # All 10 mMTC tenants x reward 3 = 30 monetary units at most.
        assert results["optimal"].net_revenue <= 30.0 + 1e-6


@pytest.mark.integration
class TestTestbedStory:
    def test_fig8_overbooking_admits_extra_slices(self):
        """Paper Section 5: overbooking squeezes in extra uRLLC/mMTC/eMBB slices."""
        scenario = make_testbed_scenario(num_epochs=18, seed=3)
        overbooked = run_scenario(scenario, policy="optimal")
        baseline = run_scenario(make_testbed_scenario(num_epochs=18, seed=3), policy="no-overbooking")
        assert overbooked.num_admitted >= baseline.num_admitted
        assert overbooked.net_revenue >= baseline.net_revenue - 1e-9
        # The third slice of each type cannot fit even with overbooking
        # (matching Fig. 8 where uRLLC3 / mMTC3 / eMBB3 are rejected).
        assert "uRLLC3" not in overbooked.final_admitted

    def test_controllers_enforce_every_admitted_slice(self):
        """Each admitted slice holds its CPU budget on its anchor CU and a
        PRB share sized by its base station's spectral efficiency."""
        from repro.radio.ran_sharing import RanSlicingEnforcer
        from repro.simulation.engine import SimulationEngine
        from repro.simulation.runner import make_solver

        scenario = make_testbed_scenario(num_epochs=6, seed=3)
        engine = SimulationEngine(scenario, make_solver("optimal"), policy_name="optimal")
        engine.run()
        orchestrator = engine.orchestrator
        decision = orchestrator.last_decision
        assert decision is not None and decision.num_accepted > 0
        controllers = orchestrator.controllers
        for name, alloc in decision.allocations.items():
            if not alloc.accepted:
                continue
            cpus = controllers.cloud.reservations_cpus[alloc.compute_unit][name]
            assert cpus == pytest.approx(alloc.reserved_cpus)
            for bs, mbps in alloc.reservations_mbps.items():
                reference = RanSlicingEnforcer(scenario.topology.base_station(bs))
                assert controllers.ran.shares(bs)[name] == pytest.approx(
                    reference.prbs_for_bitrate(mbps)
                )
