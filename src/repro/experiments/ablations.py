"""Ablations beyond the paper's figures.

Two design choices of the system deserve quantification on their own:

* **Solver choice** -- the paper motivates KAC by Benders' convergence time
  ("a few hours" vs "a few seconds").  :func:`solver_ablation_campaign` solves the
  same AC-RR instances with the direct MILP, Benders decomposition and KAC
  and reports runtime, objective value and optimality gap.
* **Forecaster choice** -- the paper selects multiplicative Holt-Winters over
  double exponential smoothing because mobile demand is seasonal.
  :func:`forecaster_ablation_campaign` replays a seasonal-demand scenario with
  online forecasting under different forecasters and reports net revenue and
  SLA-violation footprint.

Both ablations are campaigns with their own run kinds (``solver-ablation``
and ``forecaster-ablation``): one run per (instance size, solver) or per
forecaster, so the sweeps parallelise and cache like the figure grids.  The
optimality gap is computed in the reduce step against the direct-MILP record
of the same instance, which the campaign always includes as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.controlplane.orchestrator import ForecastingBlock
from repro.core.benders import BendersSolver
from repro.core.forecast_inputs import ForecastInput
from repro.core.kac import KACSolver
from repro.core.milp_solver import DirectMILPSolver
from repro.core.problem import ACRRProblem
from repro.core.slices import EMBB_TEMPLATE, TEMPLATES, make_requests
from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    RunRecord,
    RunSpec,
    register_run_kind,
)
from repro.forecasting import (
    DoubleExponentialForecaster,
    HoltWintersForecaster,
    NaiveForecaster,
    PeakForecaster,
)
from repro.topology.operators import romanian_topology
from repro.topology.paths import compute_path_sets
from repro.traffic.patterns import DemandSpec
from repro.utils.rng import derive_seed

#: The solver solved against as the optimality reference (exact MILP).
REFERENCE_SOLVER = "optimal"


# --------------------------------------------------------------------- #
# Solver ablation
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SolverAblationRow:
    """Runtime/quality of one solver on one instance size."""

    num_tenants: int
    num_base_stations: int
    num_items: int
    solver: str
    runtime_s: float
    objective: float
    optimality_gap_percent: float
    num_admitted: int


def _ablation_problem(
    num_tenants: int, num_base_stations: int, seed: int | None
) -> ACRRProblem:
    topology = romanian_topology(num_base_stations=num_base_stations, seed=seed)
    path_set = compute_path_sets(topology, k=2)
    requests = make_requests(
        TEMPLATES["eMBB"], num_tenants, duration_epochs=24, penalty_factor=1.0
    )
    forecasts = {
        request.name: ForecastInput(lambda_hat_mbps=0.3 * request.sla_mbps, sigma_hat=0.25)
        for request in requests
    }
    return ACRRProblem(topology, path_set, requests, forecasts)


_SOLVER_FACTORIES = {
    "optimal": DirectMILPSolver,
    "benders": lambda: BendersSolver(max_iterations=150),
    "kac": KACSolver,
}


@register_run_kind("solver-ablation")
def _run_solver_ablation_spec(spec: RunSpec) -> dict:
    """Campaign run kind: one solver on one AC-RR instance size.

    ``runtime_s`` is wall-clock and therefore the one summary field exempt
    from the campaign layer's record-determinism contract: a cached sweep
    reports the runtime measured by whichever machine/process first
    populated the cache.  Re-measure with ``force=True`` (or the solver
    benchmark) when the runtime itself is the quantity under study.
    """
    params = spec.params
    problem = _ablation_problem(
        int(params["num_tenants"]), int(params["num_base_stations"]), spec.seed
    )
    decision = _SOLVER_FACTORIES[params["solver"]]().solve(problem)
    return {
        "summary": {
            "runtime_s": decision.stats.runtime_s,
            "objective": decision.objective_value,
            "num_admitted": float(decision.num_accepted),
            "num_items": float(problem.num_items),
        }
    }


def solver_ablation_campaign(
    sizes: tuple[tuple[int, int], ...] = ((4, 4), (6, 6), (8, 8)),
    solvers: tuple[str, ...] = ("optimal", "benders", "kac"),
    seed: int | None = 11,
) -> Campaign:
    """One run per (instance size, solver), plus the MILP reference per size."""
    specs: list[RunSpec] = []
    for num_tenants, num_bs in sizes:
        for solver in _ablation_solvers(solvers):
            specs.append(
                RunSpec(
                    experiment="solver-ablation",
                    kind="solver-ablation",
                    params={
                        "num_tenants": num_tenants,
                        "num_base_stations": num_bs,
                        "solver": solver,
                    },
                    seed=seed,
                )
            )
    return Campaign(name="solver-ablation", specs=tuple(specs), base_seed=seed)


def _ablation_solvers(solvers: tuple[str, ...]) -> tuple[str, ...]:
    """The reference MILP first (the gap baseline), then the requested rest."""
    ordered = [REFERENCE_SOLVER]
    ordered.extend(solver for solver in solvers if solver != REFERENCE_SOLVER)
    return tuple(ordered)


def reduce_solver_ablation(
    result: CampaignResult, solvers: tuple[str, ...] = ("optimal", "benders", "kac")
) -> list[SolverAblationRow]:
    """Compute per-solver rows (gap measured against the MILP record)."""
    by_size: dict[tuple[int, int], dict[str, RunRecord]] = {}
    order: list[tuple[int, int]] = []
    for record in result.records:
        size = (
            int(record.spec.params["num_tenants"]),
            int(record.spec.params["num_base_stations"]),
        )
        if size not in by_size:
            by_size[size] = {}
            order.append(size)
        by_size[size][record.spec.params["solver"]] = record

    rows: list[SolverAblationRow] = []
    for size in order:
        records = by_size[size]
        reference = records[REFERENCE_SOLVER].summary["objective"]
        for solver in solvers:
            record = records[solver]
            objective = record.summary["objective"]
            gap = (
                100.0 * (objective - reference) / abs(reference)
                if reference != 0
                else 0.0
            )
            rows.append(
                SolverAblationRow(
                    num_tenants=size[0],
                    num_base_stations=size[1],
                    num_items=int(record.summary["num_items"]),
                    solver=solver,
                    runtime_s=record.summary["runtime_s"],
                    objective=objective,
                    optimality_gap_percent=max(0.0, gap),
                    num_admitted=int(record.summary["num_admitted"]),
                )
            )
    return rows


# --------------------------------------------------------------------- #
# Forecaster ablation
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ForecasterAblationRow:
    """Revenue and SLA footprint of one forecaster on a seasonal workload."""

    forecaster: str
    net_revenue: float
    violation_probability: float
    mean_drop_fraction: float
    num_admitted: int


_FORECASTER_FACTORIES = {
    "holt-winters": lambda epochs_per_day: HoltWintersForecaster(
        season_length=epochs_per_day
    ),
    "double-exponential": lambda epochs_per_day: DoubleExponentialForecaster(),
    "naive": lambda epochs_per_day: NaiveForecaster(),
    "peak": lambda epochs_per_day: PeakForecaster(),
}


@register_run_kind("forecaster-ablation")
def _run_forecaster_ablation_spec(spec: RunSpec) -> dict:
    """Campaign run kind: replay a seasonal workload under one forecaster."""
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.runner import make_solver, simulation_record
    from repro.simulation.scenario import homogeneous_scenario

    params = spec.params
    name = params["forecaster"]
    epochs_per_day = int(params["epochs_per_day"])
    num_epochs = int(params["num_days"]) * epochs_per_day
    scenario = homogeneous_scenario(
        operator="romanian",
        template=EMBB_TEMPLATE,
        num_tenants=int(params["num_tenants"]),
        mean_load_fraction=0.3,
        relative_std=0.2,
        penalty_factor=1.0,
        num_epochs=num_epochs,
        num_base_stations=params.get("num_base_stations"),
        seed=derive_seed(spec.seed, name),
        forecast_mode="online",
    )
    # Switch every workload to the seasonal (diurnal) demand so the
    # forecaster actually has seasonality to exploit.
    seasonal_workloads = tuple(
        replace(
            workload,
            demand=DemandSpec(
                mean_fraction=workload.demand.mean_fraction,
                relative_std=workload.demand.relative_std,
                seasonal=True,
                epochs_per_day=epochs_per_day,
            ),
        )
        for workload in scenario.workloads
    )
    scenario = replace(
        scenario, workloads=seasonal_workloads, epochs_per_day=epochs_per_day
    )
    policy = params.get("policy", "optimal")
    engine = SimulationEngine(scenario, make_solver(policy), policy_name=policy)
    engine.broker.set_forecasting(
        ForecastingBlock(primary=_FORECASTER_FACTORIES[name](epochs_per_day))
    )
    return simulation_record(engine.run())


def forecaster_ablation_campaign(
    forecasters: tuple[str, ...] = ("holt-winters", "double-exponential", "naive", "peak"),
    num_tenants: int = 6,
    num_base_stations: int | None = 4,
    num_days: int = 3,
    epochs_per_day: int = 12,
    policy: str = "optimal",
    seed: int | None = 13,
) -> Campaign:
    """One run per forecaster over the shared seasonal scenario."""
    specs = tuple(
        RunSpec(
            experiment="forecaster-ablation",
            kind="forecaster-ablation",
            params={
                "forecaster": name,
                "num_tenants": num_tenants,
                "num_base_stations": num_base_stations,
                "num_days": num_days,
                "epochs_per_day": epochs_per_day,
                "policy": policy,
            },
            policy=policy,
            seed=seed,
        )
        for name in forecasters
    )
    return Campaign(name="forecaster-ablation", specs=tuple(specs), base_seed=seed)


def reduce_forecaster_ablation(result: CampaignResult) -> list[ForecasterAblationRow]:
    """Fold the run records into the per-forecaster rows."""
    return [
        ForecasterAblationRow(
            forecaster=record.spec.params["forecaster"],
            net_revenue=record.summary["net_revenue"],
            violation_probability=record.summary["violation_probability"],
            mean_drop_fraction=record.summary["mean_drop_fraction"],
            num_admitted=int(record.summary["num_admitted"]),
        )
        for record in result.records
    ]
