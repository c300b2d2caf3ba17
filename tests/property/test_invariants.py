"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.knapsack import KnapsackItem, solve_knapsack_ffd
from repro.core.risk import deficit_probability_proxy, risk_cost
from repro.forecasting.exponential import DoubleExponentialForecaster, SingleExponentialForecaster
from repro.forecasting.naive import MeanForecaster, NaiveForecaster, PeakForecaster
from repro.radio.ran_sharing import RanSlicingEnforcer
from repro.topology.elements import BaseStation
from repro.traffic.demand import GaussianDemand
from repro.utils.stats import EmpiricalCDF

finite_loads = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)


class TestRiskFunctionProperties:
    @given(
        z=st.floats(0.0, 100.0),
        lam_hat=st.floats(0.0, 99.0),
        sigma=st.floats(0.001, 1.0),
        duration=st.floats(0.01, 10.0),
    )
    def test_risk_bounded_and_nonnegative(self, z, lam_hat, sigma, duration):
        sla = 100.0
        rho = risk_cost(z, lam_hat, sla, sigma, duration)
        assert 0.0 <= rho <= sigma * duration + 1e-12

    @given(
        lam_hat=st.floats(0.0, 90.0),
        z_low=st.floats(0.0, 100.0),
        z_high=st.floats(0.0, 100.0),
    )
    def test_deficit_probability_monotone_in_reservation(self, lam_hat, z_low, z_high):
        sla = 100.0
        lo, hi = sorted((z_low, z_high))
        assert deficit_probability_proxy(hi, lam_hat, sla) <= deficit_probability_proxy(
            lo, lam_hat, sla
        )


class TestKnapsackProperties:
    @given(
        values=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=20),
        weights=st.lists(st.floats(0.1, 20.0), min_size=1, max_size=20),
        capacity=st.floats(0.0, 100.0),
    )
    def test_capacity_never_exceeded(self, values, weights, capacity):
        size = min(len(values), len(weights))
        items = [
            KnapsackItem(key=i, value=values[i], weight=weights[i]) for i in range(size)
        ]
        chosen = solve_knapsack_ffd(items, capacity)
        assert sum(item.weight for item in chosen) <= capacity + 1e-9
        assert len({item.key for item in chosen}) == len(chosen)

    @given(
        values=st.lists(st.floats(0.1, 50.0), min_size=2, max_size=10),
        capacity=st.floats(10.0, 100.0),
    )
    def test_group_uniqueness(self, values, capacity):
        items = [
            KnapsackItem(key=i, value=v, weight=1.0, group="same-tenant")
            for i, v in enumerate(values)
        ]
        chosen = solve_knapsack_ffd(items, capacity)
        assert len(chosen) <= 1


class TestEmpiricalCDFProperties:
    @given(samples=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_cdf_monotone_and_normalised(self, samples):
        cdf = EmpiricalCDF.from_samples(samples)
        xs, ps = cdf.as_arrays()
        assert np.all(np.diff(xs) >= 0)
        assert np.all(np.diff(ps) >= 0)
        assert ps[-1] == pytest.approx(1.0)
        assert cdf.evaluate(max(samples)) == pytest.approx(1.0)
        assert cdf.evaluate(min(samples) - 1.0) == 0.0


class TestRanEnforcerProperties:
    @given(
        grants=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=8),
        offered=st.floats(0.0, 200.0),
        efficiency=st.floats(1.0, 10.0),
    )
    @settings(max_examples=50)
    def test_shares_fit_the_carrier_and_cap_the_service(self, grants, offered, efficiency):
        station = BaseStation(
            name="bs", capacity_mhz=20.0, spectral_efficiency_mbps_per_mhz=efficiency
        )
        enforcer = RanSlicingEnforcer(station)
        for index, mbps in enumerate(grants):
            name = f"s{index}"
            try:
                share = enforcer.grant_bitrate(name, mbps)
            except ValueError:
                continue
            assert enforcer.bitrate_for_prbs(share.prbs) == pytest.approx(mbps)
            assert enforcer.served_bitrate(name, offered) == pytest.approx(min(offered, mbps))
        assert enforcer.allocated_prbs <= station.capacity_prbs + 1e-9


class TestForecasterProperties:
    @given(
        history=st.lists(st.floats(0.0, 500.0), min_size=3, max_size=60),
        horizon=st.integers(1, 5),
    )
    @settings(max_examples=50)
    def test_forecasters_return_finite_bounded_sigma(self, history, horizon):
        arr = np.asarray(history)
        for forecaster in (
            NaiveForecaster(),
            MeanForecaster(),
            PeakForecaster(),
            SingleExponentialForecaster(),
            DoubleExponentialForecaster(),
        ):
            if not forecaster.can_forecast(arr):
                continue
            outcome = forecaster.forecast(arr, horizon=horizon)
            assert len(outcome.predictions) == horizon
            assert all(np.isfinite(p) for p in outcome.predictions)
            assert 0.0 < outcome.sigma_hat <= 1.0

    @given(
        mean=st.floats(0.0, 45.0),
        std=st.floats(0.0, 20.0),
        epoch=st.integers(0, 100),
    )
    @settings(max_examples=50)
    def test_demand_samples_within_sla(self, mean, std, epoch):
        demand = GaussianDemand(mean_mbps=mean, std_mbps=std, sla_mbps=50.0, seed=1)
        samples = np.asarray(demand.sample_epoch(epoch, 16).samples_mbps)
        assert np.all(samples >= 0.0)
        assert np.all(samples <= 50.0)
