"""Byte-for-byte equivalence of the engine step's bookkeeping with the retired loops.

The SLA accounting, the RAN plan, the per-domain reservations and the
demand sampling were rewritten to run in array passes (see DESIGN.md,
"Vectorized data plane"); the grants, the load reports and the forecasting
memo were trimmed after them (DESIGN.md, "Per-key Python").  Each must
reproduce the code it replaced --
kept verbatim in ``tests/property/engine_step_oracle.py`` -- float for
float: every comparison below goes through ``float.hex``, so even the sign
of a zero counts.
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.controlplane.controllers import RanController
from repro.controlplane.monitoring import MonitoringService
from repro.controlplane.orchestrator import _LAST_RESORT, ForecastingBlock
from repro.core.benders import BendersSolver
from repro.core.forecast_inputs import ForecastInput
from repro.core.slices import EMBB_TEMPLATE, MMTC_TEMPLATE, URLLC_TEMPLATE, SliceRequest
from repro.core.solution import OrchestrationDecision, SolverStats, TenantAllocation
from repro.forecasting import DoubleExponentialForecaster, HoltWintersForecaster
from repro.forecasting.base import Forecaster, normalised_rmse
from repro.radio.ran_sharing import RanSlicingEnforcer
from repro.scenarios import DIFFERENTIAL_FAMILY, sample_scenario
from repro.scenarios.oracle import _perturbed_forecast_sequence, problem_for_scenario
from repro.simulation.revenue import RevenueAccountant
from repro.topology.paths import compute_path_sets
from repro.traffic.demand import DeterministicDemand, GaussianDemand, OnOffDemand
from repro.traffic.seasonal import SeasonalDemand

from tests.conftest import build_tiny_topology
from tests.property.engine_step_oracle import (
    OracleForecastingBlock,
    OracleMonitoring,
    oracle_compute_reservations,
    oracle_normalised_rmse,
    oracle_ran_plan,
    oracle_record_epoch,
    oracle_sample_epoch,
    oracle_transport_reservations,
    oracle_validate_history,
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
        if paths and rng.random() < 0.1:
            reservations[next(reversed(paths))] = -0.0  # a signed zero grants -0.0 PRBs
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

    @pytest.mark.parametrize("bad", [float("nan"), 3, np.float64(2.5)])
    def test_a_reservation_that_is_not_a_float_goes_through_the_station(self, bad):
        """A NaN is refused; an int or a numpy float is granted what
        ``BaseStation.mhz_for_bitrate`` makes of it, type included."""
        topology = build_tiny_topology()
        path_set = compute_path_sets(topology, k=1)
        decision = random_decision(np.random.default_rng(1), topology, path_set, 3, 0.3)
        name = next(name for name, alloc in decision.allocations.items() if alloc.accepted)
        reservations = decision.allocations[name].reservations_mbps
        reservations[next(iter(decision.allocations[name].paths))] = bad
        controller = RanController(topology)
        if bad != bad:
            with pytest.raises(ValueError, match="NaN"):
                oracle_ran_plan(controller, decision)
            with pytest.raises(ValueError, match="NaN"):
                controller.plan(decision)
            return
        planned = {bs: e.shares() for bs, e in controller.plan(decision).items()}
        retired = oracle_ran_plan(controller, decision)
        assert exact(planned) == exact(retired)
        assert [type(s.prbs) for shares in planned.values() for s in shares.values()] == [
            type(s.prbs) for shares in retired.values() for s in shares.values()
        ]


# --------------------------------------------------------------------- #
# Demand sampling
# --------------------------------------------------------------------- #
MODELS = {
    "gaussian": lambda seed: GaussianDemand(30.0, 12.0, sla_mbps=50.0, seed=seed),
    "deterministic": lambda seed: DeterministicDemand(7.5, sla_mbps=10.0, seed=seed),
    "seasonal": lambda seed: SeasonalDemand(25.0, 0.4, sla_mbps=50.0, epochs_per_day=6, seed=seed),
    "on-off": lambda seed: OnOffDemand(40.0, 0.0, 20.0, sla_mbps=50.0, seed=seed),
    "signed zero": lambda seed: DeterministicDemand(-0.0, sla_mbps=10.0, seed=seed),
    "over the SLA": lambda seed: GaussianDemand(60.0, 30.0, sla_mbps=50.0, seed=seed),
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

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_the_array_is_the_tuple(self, model):
        """``draw`` is the array ``sample_epoch`` reads its tuple from: the
        engine consumes it without the tuple's round trip."""
        arrays, tuples = MODELS[model](5), MODELS[model](5)
        for epoch in range(20):
            drawn = arrays.draw(epoch, 12)
            assert drawn.dtype == np.float64 and drawn.shape == (12,)
            assert exact(drawn.tolist()) == exact(tuples.sample_epoch(epoch, 12).samples_mbps)


# --------------------------------------------------------------------- #
# Load reports
# --------------------------------------------------------------------- #
BLOCKS = (
    lambda rng: rng.uniform(0.0, 60.0, int(rng.integers(1, 13))),
    lambda rng: rng.uniform(-5.0, 5.0, int(rng.integers(1, 4))),  # floored at 0
    lambda rng: np.array([-0.0, 0.0, -0.0])[: int(rng.integers(1, 4))],
    lambda rng: np.zeros(0),
    lambda rng: [],
    lambda rng: [float(value) for value in rng.uniform(0.0, 9.0, 3)],
    lambda rng: [3, 7],
    lambda rng: rng.uniform(0.0, 9.0, 4).astype(np.float32),
    lambda rng: np.array([1e308, 1e308, 2.0]),  # a sum that overflows
    lambda rng: np.array([1.0, np.nan, 2.0]),
    lambda rng: np.array([np.inf, 1.0]),
    lambda rng: [-np.inf, 4.0],
    lambda rng: np.array([np.inf, -np.inf]),
)


class TestRecordSamples:
    @pytest.mark.parametrize("seed", range(12))
    def test_every_track_matches_the_array_reductions(self, seed):
        """Mixed stations, repeated epochs (the last peak raised or not),
        stale epochs, empty blocks, signed zeros, non-finite samples and
        sums that overflow: the same refusals, the same tracks, bit for bit."""
        rng = np.random.default_rng(seed)
        shipped, retired = MonitoringService(), OracleMonitoring()
        last = {}
        raised = 0
        for _ in range(150):
            name = f"s{int(rng.integers(3))}"
            epoch = max(0, last.get(name, 0) + int(rng.integers(-1, 3)))
            block = BLOCKS[int(rng.integers(len(BLOCKS)))](rng)
            station = f"bs-{int(rng.integers(2))}"
            outcomes = []
            for monitoring in (shipped, retired):
                before = exact(monitoring.peak_history(name).tolist())
                try:
                    monitoring.record_samples(name, station, epoch, block)
                    outcomes.append(None)
                except ValueError as error:
                    outcomes.append(str(error))
                    assert exact(monitoring.peak_history(name).tolist()) == before
            assert outcomes[0] == outcomes[1]
            if outcomes[0] is None and len(block):
                raised += epoch == last.get(name)
                last[name] = epoch
            for track in ("s0", "s1", "s2"):
                assert exact(shipped.peak_history(track).tolist()) == exact(
                    retired.peak_history(track).tolist()
                )
            assert shipped._last_epoch == retired._last_epoch
        assert raised > 0

    def test_a_signed_zero_peak_never_reaches_the_track(self):
        shipped, retired = MonitoringService(), OracleMonitoring()
        for monitoring in (shipped, retired):
            monitoring.record_samples("s", "bs-0", 0, [-0.0])
            monitoring.record_samples("s", "bs-1", 0, [0.0, -0.0])
            monitoring.record_samples("s", "bs-0", 1, np.array([-0.0, -1.0]))
        assert exact(shipped.peak_history("s").tolist()) == ["0x0.0p+0", "0x0.0p+0"]
        assert exact(shipped.peak_history("s").tolist()) == exact(
            retired.peak_history("s").tolist()
        )


# --------------------------------------------------------------------- #
# Forecasting
# --------------------------------------------------------------------- #
def awkward_series(rng, size):
    """Positive loads with signed zeros, exact zeros and repeats mixed in."""
    series = rng.uniform(0.0, 40.0, size)
    series[rng.random(size) < 0.1] = 0.0
    series[rng.random(size) < 0.1] = -0.0
    if size > 2:
        series[size // 2] = series[size // 3]
    return series


class TestForecastStatistics:
    @pytest.mark.parametrize("seed", range(6))
    def test_normalised_rmse_is_np_mean_s(self, seed):
        rng = np.random.default_rng(seed)
        for size in [*range(1, 40), 63, 64, 65, 127, 128, 129, 200, 517]:
            observed = awkward_series(rng, size)
            errors = rng.normal(0.0, 3.0, int(rng.integers(1, size + 1)))
            errors[rng.random(errors.size) < 0.1] = -0.0
            assert normalised_rmse(observed, errors).hex() == oracle_normalised_rmse(
                observed, errors
            ).hex()

    @pytest.mark.parametrize(
        "special", [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300]
    )
    def test_normalised_rmse_of_special_values(self, special):
        rng = np.random.default_rng(7)
        observed, errors = awkward_series(rng, 30), rng.normal(0.0, 1.0, 20)
        for target in (observed, errors):
            spoilt = target.copy()
            spoilt[5] = special
            args = (spoilt, errors) if target is observed else (observed, spoilt)
            with np.errstate(all="ignore"):
                assert normalised_rmse(*args).hex() == oracle_normalised_rmse(*args).hex()
        with np.errstate(all="ignore"), pytest.warns(RuntimeWarning):
            assert normalised_rmse(np.zeros(0), errors).hex() == oracle_normalised_rmse(
                np.zeros(0), errors
            ).hex()

    @pytest.mark.parametrize(
        "history",
        [
            [1.0, 2.0],
            [0.0, -0.0, 3.0],
            [-0.0],
            [np.nan, 2.0],
            [np.nan, -1.0],
            [-1.0, np.nan],
            [np.nan],
            [np.inf, 1.0],
            [-np.inf],
            [[1.0, 2.0], [3.0, -2.0]],
            [],
        ],
    )
    def test_history_validation_refuses_what_it_refused(self, history):
        history = np.array(history, dtype=float)
        try:
            want = oracle_validate_history(history)
        except ValueError as error:
            with pytest.raises(ValueError, match=str(error)):
                Forecaster._validate_history(history)
            return
        assert exact(Forecaster._validate_history(history).tolist()) == exact(want.tolist())


def forecast_exact(forecast: ForecastInput):
    return (forecast.lambda_hat_mbps.hex(), forecast.sigma_hat.hex())


class TestForecastMemo:
    """The memo's prefix test compares bytes; the retired one compared
    floats with ``np.array_equal``.  Every forecast must be the retired
    block's and a memo-free one's."""

    def blocks(self):
        primary = HoltWintersForecaster(season_length=4)
        fallback = DoubleExponentialForecaster()
        shipped = ForecastingBlock(primary=primary, fallback=fallback)
        retired = OracleForecastingBlock(primary, fallback, _LAST_RESORT)
        return shipped, retired

    def check(self, blocks, request, history):
        shipped, retired = blocks
        fresh = ForecastingBlock(primary=shipped.primary, fallback=shipped.fallback)
        got = shipped.forecast_for(request, history)
        assert forecast_exact(got) == forecast_exact(retired.forecast_for(request, history))
        assert forecast_exact(got) == forecast_exact(fresh.forecast_for(request, history))
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_growing_raised_reset_and_forgotten_histories(self, seed):
        rng = np.random.default_rng(seed)
        blocks = self.blocks()
        requests = [SliceRequest(name=f"t{index}", template=EMBB_TEMPLATE) for index in range(3)]
        series = {request.name: awkward_series(rng, 60) for request in requests}
        length = {request.name: 0 for request in requests}
        for step in range(120):
            request = requests[int(rng.integers(len(requests)))]
            name = request.name
            move = rng.random()
            if move < 0.6:  # the next peak: a memo hit once the tier holds
                length[name] = min(length[name] + 1, 60)
            elif move < 0.75 and length[name]:  # the last peak raised
                series[name][length[name] - 1] += float(rng.uniform(0.5, 5.0))
            elif move < 0.85:  # a renewal starts over
                length[name] = int(rng.integers(0, 4))
            elif move < 0.9:
                blocks[0].retain([other.name for other in requests if other is not request])
                blocks[1].retain([other.name for other in requests if other is not request])
            else:  # a signed zero where a zero was folded
                zeros = np.flatnonzero(series[name][: length[name]] == 0.0)
                if zeros.size:
                    series[name][zeros[0]] = -series[name][zeros[0]]
            self.check(blocks, request, series[name][: length[name]].copy())
            if step % 10 == 0:
                assert set(blocks[0]._folds) == set(blocks[1]._folds)

    def test_a_tier_change_refits(self):
        """Double exponential smoothing until two seasons exist, then
        Holt-Winters: the memo of one tier never feeds the other."""
        blocks = self.blocks()
        request = SliceRequest(name="t", template=EMBB_TEMPLATE)
        series = awkward_series(np.random.default_rng(3), 20) + 1.0
        for length in range(0, 20):
            self.check(blocks, request, series[:length])
        assert blocks[0]._folds["t"][0] is blocks[0].primary

    def test_a_nan_or_a_negative_peak_falls_through_the_tiers(self):
        blocks = self.blocks()
        request = SliceRequest(name="t", template=EMBB_TEMPLATE)
        series = awkward_series(np.random.default_rng(4), 12) + 1.0
        for spoil in (np.nan, -1.0, np.inf):
            history = series.copy()
            self.check(blocks, request, history)
            history[3] = spoil
            with np.errstate(all="ignore"):
                self.check(blocks, request, history)
                history = np.append(history, 2.0)
                self.check(blocks, request, history)


# --------------------------------------------------------------------- #
# Fast-path hits
# --------------------------------------------------------------------- #
class TestFastPathHit:
    def test_a_hit_returns_what_a_miss_computes(self):
        """One structure, drifting forecasts: the warm solver's hits (the
        seeded master) and a cold solver's misses give the same decisions,
        bit for bit."""
        problem = problem_for_scenario(sample_scenario(DIFFERENTIAL_FAMILY, seed=0))
        requests = problem.requests
        drifted = _perturbed_forecast_sequence(problem, 6, 0.02, seed=0)
        # Clones share the structure caches, as the orchestrator's do.
        sequence = [
            problem,
            *(
                problem.with_forecasts(
                    requests, {request.name: other.forecast(request.name) for request in requests}
                )
                for other in drifted
            ),
        ]
        warm = BendersSolver(max_iterations=60, master_time_limit_s=None, time_limit_s=None)
        hits = 0
        for instance, fresh in zip(sequence, [problem, *drifted]):
            got = warm.solve(instance)
            cold = BendersSolver(
                max_iterations=60, master_time_limit_s=None, time_limit_s=None, warm_start=False
            ).solve(fresh)
            hits += "warm fast path" in got.stats.message
            assert exact(got.allocations) == exact(cold.allocations)
            assert got.objective_value.hex() == cold.objective_value.hex()
        assert hits == len(drifted)
