"""Tests for the simulation engine and policy runner."""

import numpy as np
import pytest

from repro.core.slices import EMBB_TEMPLATE
from repro.simulation.runner import compare_policies, make_solver, run_scenario
from repro.simulation.scenario import homogeneous_scenario, testbed_scenario as make_testbed_scenario
from repro.simulation.engine import MIN_EPOCHS_FOR_CONVERGENCE, SimulationEngine
from repro.utils.stats import relative_gain
from tests.conftest import build_tiny_topology


@pytest.fixture(scope="module")
def small_scenario():
    return homogeneous_scenario(
        build_tiny_topology(num_base_stations=2),
        EMBB_TEMPLATE,
        num_tenants=6,
        mean_load_fraction=0.2,
        relative_std=0.25,
        num_epochs=3,
        seed=1,
    )


class TestMakeSolver:
    @pytest.mark.parametrize("policy", ["optimal", "benders", "kac", "no-overbooking"])
    def test_known_policies(self, policy):
        assert make_solver(policy) is not None

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            make_solver("magic")


class TestSimulationRun:
    def test_overbooking_beats_baseline(self, small_scenario):
        results = compare_policies(small_scenario, policies=("optimal", "no-overbooking"))
        optimal, baseline = results["optimal"], results["no-overbooking"]
        assert optimal.num_admitted > baseline.num_admitted
        assert optimal.net_revenue > baseline.net_revenue
        assert relative_gain(optimal.net_revenue, baseline.net_revenue) > 0.0

    def test_epoch_records_and_revenue_series(self, small_scenario):
        result = run_scenario(small_scenario, policy="optimal")
        assert len(result.epoch_records) == small_scenario.num_epochs
        assert result.revenue.per_epoch_net.shape == (small_scenario.num_epochs,)
        assert result.summary()["num_admitted"] == result.num_admitted

    def test_reproducible_given_seed(self, small_scenario):
        a = run_scenario(small_scenario, policy="optimal")
        b = run_scenario(small_scenario, policy="optimal")
        assert a.net_revenue == pytest.approx(b.net_revenue)
        assert a.final_admitted == b.final_admitted

    def test_violations_are_rare_at_low_load(self, small_scenario):
        result = run_scenario(small_scenario, policy="optimal")
        # The paper's headline claim: overbooking has a negligible footprint.
        assert result.violation_probability < 0.01

    def test_kac_policy_runs(self, small_scenario):
        result = run_scenario(small_scenario, policy="kac")
        assert result.num_admitted >= 1


class TestOnlineMode:
    def test_testbed_scenario_admits_over_time(self):
        scenario = make_testbed_scenario(num_epochs=6, seed=2)
        result = run_scenario(scenario, policy="optimal")
        # At least the first uRLLC slice is admitted, and admissions never
        # exceed the number of requests that have arrived (epoch 4 -> 3 reqs).
        assert "uRLLC1" in result.final_admitted
        assert 1 <= result.num_admitted <= 3

    def test_every_report_lands_on_its_slice_peak_track(self):
        """The engine reports each active slice at every base station each
        epoch; monitoring keeps, per slice, the peak over all of them."""
        scenario = make_testbed_scenario(num_epochs=6, seed=2)
        engine = SimulationEngine(scenario, make_solver("optimal"))
        reports: dict[str, dict[int, float]] = {}
        report_load = engine.broker.report_load

        def recording(name, bs, epoch, samples):
            peaks = reports.setdefault(name, {})
            peaks[epoch] = max(peaks.get(epoch, 0.0), float(np.max(samples)))
            report_load(name, bs, epoch, samples)

        engine.broker.report_load = recording
        engine.run()
        monitoring = engine.orchestrator.monitoring
        assert reports
        for name, peaks in reports.items():
            want = [peaks[epoch] for epoch in sorted(peaks)]
            assert monitoring.peak_history(name).tolist() == want, name

    def test_usage_recorded_when_requested(self):
        scenario = make_testbed_scenario(num_epochs=4, seed=2)
        result = run_scenario(scenario, policy="optimal")
        record = result.epoch_records[1]
        assert record.radio_usage and record.compute_usage and record.transport_usage


class TestConvergenceStopping:
    def test_early_stop_on_converged_revenue(self):
        scenario = homogeneous_scenario(
            build_tiny_topology(num_base_stations=2),
            EMBB_TEMPLATE,
            num_tenants=4,
            mean_load_fraction=0.2,
            relative_std=0.0,
            num_epochs=30,
            seed=3,
        )
        engine = SimulationEngine(scenario, make_solver("optimal"), policy_name="optimal")
        result = engine.run(stop_on_converged_revenue=True)
        assert MIN_EPOCHS_FOR_CONVERGENCE <= len(result.epoch_records) < 30


class TestOracleForecasts:
    def test_oracle_overrides_populated(self, small_scenario):
        engine = SimulationEngine(small_scenario, make_solver("optimal"))
        overrides = engine.orchestrator.forecast_overrides
        assert set(overrides) == {w.name for w in small_scenario.workloads}
        for workload in small_scenario.workloads:
            forecast = overrides[workload.name]
            mean = workload.demand.mean_fraction * workload.request.sla_mbps
            assert forecast.lambda_hat_mbps >= mean  # peak >= mean
            assert forecast.lambda_hat_mbps < workload.request.sla_mbps
