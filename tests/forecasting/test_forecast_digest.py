"""Every forecast of two online-forecasting runs, pinned as one digest.

The forecasting block's ``(lambda_hat, sigma_hat)`` for every slice it
forecasts is hashed as raw float bytes, in call order, over

* the Fig. 8 testbed golden scenario (``tests/golden/testbed.json``) under
  every orchestration policy -- nine slices, double exponential and naive
  tiers; and
* a seed-0 ``online_week``-shaped broker run: ten tenants, twelve epochs a
  day, Benders, 60 epochs -- Holt-Winters from epoch 24 on.

The digest was recorded with forecasters that refit the whole history on
every call.  The filters fold only the peaks a slice has not been forecast
on, and must reproduce it bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from repro.api import SliceBroker
from repro.controlplane.orchestrator import ForecastingBlock, OrchestratorConfig
from repro.core.benders import BendersSolver
from repro.core.slices import EMBB_TEMPLATE, MMTC_TEMPLATE
from repro.experiments.campaign import execute_spec
from repro.simulation.runner import POLICIES
from repro.simulation.scenario import heterogeneous_scenario
from repro.topology.operators import romanian_topology
from repro.traffic.patterns import demand_for_template
from tests.experiments.test_golden_runs import golden_spec

pytestmark = pytest.mark.golden

#: sha256 over 473 forecasts: 50 testbed, 423 ``online_week``-shaped.
FORECAST_DIGEST = "0dc27ea148a2693dbdab9ab9644414910b976ead3455b24c0e19f7ae5dfce5f9"
ONLINE_WEEK_EPOCHS = 60


@pytest.fixture
def recorded(monkeypatch) -> list[tuple[float, float]]:
    """Every forecast the forecasting block returns while the test runs."""
    forecasts: list[tuple[float, float]] = []
    real_forecast_for = ForecastingBlock.forecast_for

    def recording_forecast_for(block, request, history):
        forecast = real_forecast_for(block, request, history)
        forecasts.append((forecast.lambda_hat_mbps, forecast.sigma_hat))
        return forecast

    monkeypatch.setattr(ForecastingBlock, "forecast_for", recording_forecast_for)
    return forecasts


def run_online_week_shape(epochs: int) -> None:
    """The ``online_week`` benchmark workload's engine step, seed 0, without
    the data plane and revenue accounting (they do not feed the forecasts)."""
    topology = romanian_topology(num_base_stations=6, seed=0)
    scenario = dataclasses.replace(
        heterogeneous_scenario(
            topology,
            EMBB_TEMPLATE,
            MMTC_TEMPLATE,
            num_tenants=10,
            fraction_b=0.5,
            relative_std=0.10,
            num_epochs=epochs,
            seed=0,
            forecast_mode="online",
        ),
        epochs_per_day=12,
    )
    broker = SliceBroker(
        topology=topology,
        solver=BendersSolver(time_limit_s=None, master_time_limit_s=None),
        config=OrchestratorConfig(
            epochs_per_day=scenario.epochs_per_day,
            samples_per_epoch=scenario.samples_per_epoch,
            candidate_paths_per_pair=scenario.candidate_paths_per_pair,
        ),
    )
    broker.submit_batch(scenario.requests)
    demand = {
        (workload.name, bs): demand_for_template(
            workload.request.template,
            workload.demand,
            seed=scenario.seed,
            label=f"{workload.name}:{bs}",
        )
        for workload in scenario.workloads
        for bs in topology.base_station_names
    }
    for epoch in range(epochs):
        broker.advance_epoch(epoch)
        for record in broker.active_slices(epoch):
            for bs in topology.base_station_names:
                drawn = demand[(record.name, bs)].sample_epoch(epoch, scenario.samples_per_epoch)
                broker.report_load(
                    record.name, bs, epoch, np.asarray(drawn.samples_mbps, dtype=float)
                )


def test_forecasts_match_the_recorded_digest(recorded):
    for policy in POLICIES:
        execute_spec(golden_spec("testbed", policy))
    assert len(recorded) == 50
    run_online_week_shape(ONLINE_WEEK_EPOCHS)
    assert len(recorded) == 473
    digest = hashlib.sha256(
        b"".join(struct.pack("<dd", lam, sigma) for lam, sigma in recorded)
    ).hexdigest()
    assert digest == FORECAST_DIGEST, (len(recorded), digest)
