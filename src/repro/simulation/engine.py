"""The decision-epoch simulation engine.

The engine wires the pieces of the reproduction together exactly as the
paper's architecture prescribes (Fig. 2): tenants' requests flow through the
northbound :class:`~repro.api.broker.SliceBroker` into the control plane;
every decision epoch the broker drives admission control & resource
reservation and pushes the result to the domain controllers; the tenants'
traffic is then multiplexed over the admitted slices' resources
(:class:`~repro.dataplane.multiplexing.SliceMultiplexer`), which decides
what each slice loses on saturated resources; monitoring samples flow back
through the broker into the per-slice peak tracks of the monitoring service
and drive the next epoch's forecasts.  The revenue accountant keeps the score.

The engine is one *driver* of the broker among several (examples, future
trace replayers / RL environments): every control-plane mutation here goes
through the facade, never the orchestrator directly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.api.broker import SliceBroker
from repro.controlplane.orchestrator import OrchestratorConfig
from repro.core.forecast_inputs import ForecastInput
from repro.dataplane.multiplexing import SliceMultiplexer
from repro.dataplane.usage import DomainUsage, UsageAccountant
from repro.simulation.revenue import RevenueAccountant, RevenueReport
from repro.simulation.scenario import Scenario, SliceWorkload
from repro.traffic.demand import DemandModel
from repro.traffic.patterns import demand_for_template
from repro.utils.rng import derive_seed
from repro.utils.stats import standard_error_below

#: Number of synthetic epochs drawn when deriving "oracle" forecasts from the
#: demand statistics (the steady-state knowledge assumed by Fig. 5 / Fig. 6).
_ORACLE_SAMPLE_EPOCHS = 200

#: The paper's stopping rule: a run may end once the standard error of the
#: per-epoch net revenue is below 2 % of its mean, after at least 8 epochs.
CONVERGENCE_THRESHOLD = 0.02
MIN_EPOCHS_FOR_CONVERGENCE = 8
#: Monitoring period in seconds (the paper samples every 5 minutes).
_SAMPLE_PERIOD_S = 300.0


@dataclass(frozen=True)
class EpochRecord:
    """What happened during one simulated decision epoch."""

    epoch: int
    accepted_slices: tuple[str, ...]
    active_slices: tuple[str, ...]
    net_revenue: float
    reward: float
    penalty: float
    solver_runtime_s: float
    #: Master iterations the epoch's solve took (0 when the decision was
    #: reused outright) and how many warm-start cuts seeded it -- the
    #: steady-state trajectory the warm-start benchmarks track.
    solver_iterations: int = 0
    solver_warm_cuts: int = 0
    radio_usage: dict[str, DomainUsage] = field(default_factory=dict)
    transport_usage: dict[tuple[str, str], DomainUsage] = field(default_factory=dict)
    compute_usage: dict[str, DomainUsage] = field(default_factory=dict)


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    scenario_name: str
    policy: str
    revenue: RevenueReport
    epoch_records: list[EpochRecord]
    final_admitted: tuple[str, ...]
    final_rejected: tuple[str, ...]

    @property
    def net_revenue(self) -> float:
        return self.revenue.net_revenue

    @property
    def violation_probability(self) -> float:
        return self.revenue.violation_probability

    @property
    def num_admitted(self) -> int:
        return len(self.final_admitted)

    def summary(self) -> dict[str, float]:
        summary = self.revenue.summary()
        summary["num_admitted"] = float(self.num_admitted)
        return summary


class SimulationEngine:
    """Runs one scenario against one orchestration policy (solver)."""

    def __init__(self, scenario: Scenario, solver, policy_name: str | None = None):
        self.scenario = scenario
        self.solver = solver
        self.policy_name = policy_name or getattr(solver, "__class__").__name__
        config = OrchestratorConfig(
            epochs_per_day=scenario.epochs_per_day,
            samples_per_epoch=scenario.samples_per_epoch,
            candidate_paths_per_pair=scenario.candidate_paths_per_pair,
        )
        # Link-failure episodes damage the topology in place; run them on a
        # private copy so the (frozen, reusable) scenario keeps describing
        # the intact network and a second engine sees no scars.
        self.topology = (
            copy.deepcopy(scenario.topology)
            if scenario.link_failures
            else scenario.topology
        )
        self.broker = SliceBroker(
            topology=self.topology, solver=solver, config=config
        )
        #: The wrapped orchestrator, kept for benchmarks/tests that tweak its
        #: configuration in place; the engine itself only drives the broker.
        self.orchestrator = self.broker.orchestrator
        self.broker.submit_batch([workload.request for workload in scenario.workloads])
        if scenario.forecast_mode == "oracle":
            self.broker.set_forecast_overrides(self._oracle_forecasts())
        self._demand_models: dict[tuple[str, str], DemandModel] = {}
        self.accountant = RevenueAccountant(
            num_base_stations=len(scenario.topology.base_station_names)
        )

    # ------------------------------------------------------------------ #
    # Demand plumbing
    # ------------------------------------------------------------------ #
    def _demand_model(self, workload: SliceWorkload, base_station: str) -> DemandModel:
        key = (workload.name, base_station)
        if key not in self._demand_models:
            self._demand_models[key] = demand_for_template(
                workload.request.template,
                workload.demand,
                seed=self.scenario.seed,
                label=f"{workload.name}:{base_station}",
            )
        return self._demand_models[key]

    def _oracle_forecasts(self) -> dict[str, ForecastInput]:
        """Derive per-slice forecasts directly from the demand statistics.

        The Fig. 5 / Fig. 6 evaluation assumes the orchestrator has already
        learnt each slice's steady-state behaviour; this helper reproduces
        that by sampling the demand model offline and summarising the
        distribution of per-epoch peaks.
        """
        forecasts: dict[str, ForecastInput] = {}
        for workload in self.scenario.workloads:
            probe = demand_for_template(
                workload.request.template,
                workload.demand,
                seed=derive_seed(self.scenario.seed, "oracle", workload.name),
                label=f"{workload.name}:oracle",
            )
            peaks = probe.peak_series(
                _ORACLE_SAMPLE_EPOCHS, self.scenario.samples_per_epoch
            )
            mean_peak = float(np.mean(peaks))
            spread = float(np.std(peaks)) / mean_peak if mean_peak > 0 else 1.0
            forecasts[workload.name] = ForecastInput(
                lambda_hat_mbps=mean_peak,
                sigma_hat=float(np.clip(spread, 0.0, 1.0)),
            ).clamped(workload.request.sla_mbps)
        return forecasts

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self, stop_on_converged_revenue: bool = False) -> SimulationResult:
        """Simulate the scenario and return the aggregated result.

        With ``stop_on_converged_revenue`` the run ends early by the paper's
        stopping rule (:data:`CONVERGENCE_THRESHOLD`,
        :data:`MIN_EPOCHS_FOR_CONVERGENCE`).
        """
        records: list[EpochRecord] = []
        for epoch in range(self.scenario.num_epochs):
            records.append(self._run_one_epoch(epoch))
            if (
                stop_on_converged_revenue
                and len(records) >= MIN_EPOCHS_FOR_CONVERGENCE
                and standard_error_below(
                    [r.net_revenue for r in records], CONVERGENCE_THRESHOLD
                )
            ):
                break

        admitted = tuple(sorted(self.broker.admitted_names()))
        rejected = tuple(sorted(self.broker.rejected_names()))
        return SimulationResult(
            scenario_name=self.scenario.name,
            policy=self.policy_name,
            revenue=self.accountant.report,
            epoch_records=records,
            final_admitted=admitted,
            final_rejected=rejected,
        )

    # ------------------------------------------------------------------ #
    def _run_one_epoch(self, epoch: int) -> EpochRecord:
        for event in self.scenario.link_failures:
            if event.epoch == epoch:
                self.broker.inject_link_failure(event.links, event.capacity_factor)
        report = self.broker.advance_epoch(epoch)
        decision = self.broker.last_decision
        active_records = self.broker.active_slices(epoch)
        active_names = report.active

        offered: dict[tuple[str, str], np.ndarray] = {}
        served_mean: dict[tuple[str, str], float] = {}
        active_requests = []
        active_allocations = {}
        for record in active_records:
            workload = self.scenario.workload(record.name)
            active_requests.append(record.request)
            allocation = decision.allocations.get(record.name)
            if allocation is not None and allocation.accepted:
                active_allocations[record.name] = allocation
            for bs in self.topology.base_station_names:
                demand = self._demand_model(workload, bs)
                # The float64 array the samples are drawn into: the
                # multiplexer and the revenue accountant consume it as-is.
                samples = demand.draw(epoch, self.scenario.samples_per_epoch)
                offered[(record.name, bs)] = samples
                self.broker.report_load(record.name, bs, epoch, samples)

        # Work-conserving data plane: traffic above a slice's reservation is
        # only lost when a resource it traverses actually saturates.
        multiplexer = SliceMultiplexer(self.topology, active_allocations)
        load_result = multiplexer.unserved_traffic(offered)
        for (name, bs), samples in offered.items():
            unserved = load_result.unserved_mbps.get((name, bs), np.zeros_like(samples))
            served = np.maximum(samples - unserved, 0.0)
            served_mean[(name, bs)] = float(np.mean(served)) if samples.size else 0.0

        revenue = self.accountant.record_epoch(
            epoch=epoch,
            active_requests=active_requests,
            offered_samples_mbps=offered,
            unserved_samples_mbps=load_result.unserved_mbps,
        )

        radio_usage: dict[str, DomainUsage] = {}
        transport_usage: dict[tuple[str, str], DomainUsage] = {}
        compute_usage: dict[str, DomainUsage] = {}
        if self.scenario.record_usage and self.broker.last_problem is not None:
            accountant = UsageAccountant(self.broker.last_problem, decision)
            radio_usage = accountant.radio_usage(served_mean)
            transport_usage = accountant.transport_usage(served_mean)
            compute_usage = accountant.compute_usage(served_mean)

        return EpochRecord(
            epoch=epoch,
            accepted_slices=report.accepted,
            active_slices=active_names,
            net_revenue=revenue.net,
            reward=revenue.reward,
            penalty=revenue.penalty,
            solver_runtime_s=report.solver_runtime_s,
            solver_iterations=report.solver_iterations,
            solver_warm_cuts=report.solver_warm_cuts,
            radio_usage=radio_usage,
            transport_usage=transport_usage,
            compute_usage=compute_usage,
        )
