"""Differential checking of the solver layer against exact oracles.

In the spirit of refinement checking -- validating an optimised
implementation against its specification -- this module treats the direct
HiGHS MILP (:class:`repro.core.milp_solver.DirectMILPSolver`) as the
specification of the AC-RR problem and checks two refinement claims on any
(generated) scenario:

* **exactness** (Theorem 2): the Benders decomposition converges to the same
  optimum as the monolithic MILP;
* **dominance**: the overbooking optimum is never worse than the
  no-overbooking baseline, because every baseline solution (reserve the full
  SLA) is overbooking-feasible with zero risk cost.

Both claims are evaluated on the *expected net revenue* ``-Psi`` of the
epoch-0 AC-RR instance derived from a scenario, which keeps the oracle a
pure solver-layer check (no simulation noise involved).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.core.baseline import NoOverbookingSolver
from repro.core.benders import BendersSolver
from repro.core.forecast_inputs import ForecastInput
from repro.core.milp_solver import DirectMILPSolver
from repro.core.problem import ACRRProblem, ProblemOptions
from repro.core.solution import OrchestrationDecision
from repro.simulation.scenario import Scenario
from repro.topology.generators import degrade_link_capacities
from repro.topology.network import NetworkTopology
from repro.topology.paths import compute_path_sets
from repro.traffic.patterns import demand_for_request
from repro.utils.rng import derive_seed
from repro.utils.validation import ensure_non_negative_int, ensure_positive_int

#: Convergence knobs for the Benders run used as the implementation under
#: test: the stopping tolerance is tight enough that any surviving gap
#: against the MILP is a real disagreement, not a loose stopping rule, and
#: the budget is an *iteration* cap with no wall-clock cutoff -- a time limit
#: would make the incumbent depend on machine speed and break the harness's
#: reproducibility contract.  The classic Benders tail can leave the bound
#: certificate open within this budget; the differential claim is about the
#: incumbent's net revenue, which the harness compares against the MILP.
_BENDERS_TOLERANCE = 1e-9
_BENDERS_MAX_ITERATIONS = 12


def _topology_at_epoch(scenario: Scenario, epoch: int) -> NetworkTopology:
    """The network as the control plane sees it at ``epoch``.

    Link-failure episodes are permanent, so every episode at or before
    ``epoch`` is folded in -- on a deep copy, because degradation mutates
    links in place and the scenario must stay reusable.
    """
    past = [event for event in scenario.link_failures if event.epoch <= epoch]
    if not past:
        return scenario.topology
    topology = copy.deepcopy(scenario.topology)
    for event in past:
        degrade_link_capacities(topology, event.links, event.capacity_factor)
    return topology


def problem_for_scenario(scenario: Scenario, epoch: int = 0) -> ACRRProblem:
    """The AC-RR instance a scenario poses at one decision epoch.

    Requests are the slices active at ``epoch``; forecasts are derived from
    each workload's demand statistics (mean and relative spread at that
    epoch), i.e. the steady-state knowledge the Fig. 5/6 evaluation assumes.
    Mid-run link failures scheduled at or before ``epoch`` are applied to
    the instance's topology, so the oracle judges the same (damaged)
    network the simulated control plane would be solving on.
    """
    ensure_non_negative_int(epoch, "epoch")
    topology = _topology_at_epoch(scenario, epoch)
    requests = []
    forecasts: dict[str, ForecastInput] = {}
    for workload in scenario.workloads:
        if not workload.request.is_active(epoch):
            continue
        requests.append(workload.request)
        model = demand_for_request(workload.request, workload.demand, seed=scenario.seed)
        mean = model.mean_mbps(epoch)
        sigma = model.std_mbps(epoch) / mean if mean > 0 else 1.0
        forecasts[workload.name] = ForecastInput(
            lambda_hat_mbps=mean, sigma_hat=min(max(sigma, 0.0), 1.0)
        ).clamped(workload.request.sla_mbps)
    if not requests:
        raise ValueError(
            f"scenario {scenario.name!r} has no active slice at epoch {epoch}"
        )
    path_set = compute_path_sets(
        topology, k=scenario.candidate_paths_per_pair
    )
    return ACRRProblem(
        topology=topology,
        path_set=path_set,
        requests=requests,
        forecasts=forecasts,
        options=ProblemOptions(epochs_per_day=scenario.epochs_per_day),
    )


@dataclass(frozen=True)
class DifferentialOutcome:
    """The three solver verdicts on one scenario's epoch-0 instance."""

    scenario_name: str
    milp_net_revenue: float
    benders_net_revenue: float
    baseline_net_revenue: float
    milp_accepted: int
    benders_accepted: int
    baseline_accepted: int
    benders_iterations: int
    rel_tolerance: float

    @property
    def benders_gap(self) -> float:
        """Absolute net-revenue disagreement between Benders and the MILP."""
        return abs(self.benders_net_revenue - self.milp_net_revenue)

    @property
    def benders_matches_milp(self) -> bool:
        """Exactness: Benders equals the MILP within the relative tolerance.

        The scale floors at 1.0 so near-zero optima compare on an absolute
        footing instead of demanding impossible relative precision.
        """
        return self.benders_gap <= self.rel_tolerance * max(
            abs(self.milp_net_revenue), 1.0
        )

    @property
    def dominates_baseline(self) -> bool:
        """Dominance: overbooking net revenue >= no-overbooking net revenue."""
        slack = self.rel_tolerance * max(abs(self.baseline_net_revenue), 1.0)
        return self.benders_net_revenue >= self.baseline_net_revenue - slack

    def describe(self) -> str:
        return (
            f"{self.scenario_name}: milp={self.milp_net_revenue:.9f} "
            f"benders={self.benders_net_revenue:.9f} "
            f"baseline={self.baseline_net_revenue:.9f} "
            f"(gap={self.benders_gap:.3e}, "
            f"admitted {self.benders_accepted}/{self.milp_accepted}/{self.baseline_accepted})"
        )


def decision_fingerprint(decision: OrchestrationDecision) -> tuple:
    """Exact (bit-level) fingerprint of an orchestration decision.

    Floats are compared through their exact values -- two decisions share a
    fingerprint only if every admission flag, anchoring compute unit, path
    and reservation is identical.  Solver diagnostics (runtimes, iteration
    counts) are deliberately excluded: they describe how the decision was
    found, not what it says.
    """
    allocations = []
    for name in sorted(decision.allocations):
        allocation = decision.allocations[name]
        allocations.append(
            (
                name,
                allocation.accepted,
                allocation.compute_unit,
                tuple(sorted(allocation.reservations_mbps.items())),
                tuple(
                    sorted(
                        (bs, path.base_station, path.compute_unit,
                         tuple(link.key for link in path.links))
                        for bs, path in allocation.paths.items()
                    )
                ),
            )
        )
    return (
        tuple(allocations),
        decision.objective_value,
        tuple(sorted(decision.deficits.items())),
    )


@dataclass(frozen=True)
class WarmStartOutcome:
    """Warm-vs-cold verdict over one scenario's perturbed-epoch sequence."""

    scenario_name: str
    num_instances: int
    mismatched_instances: tuple[int, ...]
    cold_iterations: int
    warm_iterations: int
    fast_path_hits: int

    @property
    def identical(self) -> bool:
        """Bit-identity: every warm decision equals its cold counterpart."""
        return not self.mismatched_instances

    def describe(self) -> str:
        return (
            f"{self.scenario_name}: {self.num_instances} instances, "
            f"{self.fast_path_hits} fast-path hits, iterations "
            f"cold={self.cold_iterations} warm={self.warm_iterations}"
            + (
                f", MISMATCH at {list(self.mismatched_instances)}"
                if self.mismatched_instances
                else ""
            )
        )


def _perturbed_forecast_sequence(
    problem: ACRRProblem, count: int, spread: float, seed: int
) -> list[ACRRProblem]:
    """Deterministic steady-state drift: small i.i.d. forecast rescalings.

    Models the regime the warm-start layer targets (thousands of Fig. 5/6/8
    epochs whose forecasts drift by a few percent while the admitted set
    stays put); each instance rescales every tenant's peak forecast by an
    independent factor in ``1 +- spread``, clamped to the SLA.
    """
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(count):
        scales = 1.0 + rng.uniform(-spread, spread, len(problem.requests))
        forecasts = {
            request.name: ForecastInput(
                lambda_hat_mbps=min(
                    problem.forecast(request.name).lambda_hat_mbps * float(scale),
                    request.sla_mbps,
                ),
                sigma_hat=problem.forecast(request.name).sigma_hat,
            )
            for request, scale in zip(problem.requests, scales)
        }
        instances.append(
            ACRRProblem(
                topology=problem.topology,
                path_set=problem.path_set,
                requests=problem.requests,
                forecasts=forecasts,
                options=problem.options,
            )
        )
    return instances


def warm_start_check(
    scenario: Scenario,
    epoch: int = 0,
    num_perturbations: int = 3,
    spread: float = 0.02,
    exact_tolerances: bool = False,
) -> WarmStartOutcome:
    """Differential warm-start oracle: warm Benders must equal cold Benders.

    Solves the scenario's epoch instance followed by ``num_perturbations``
    steady-state forecast drifts twice -- once with a warm-started solver
    carried across the whole sequence, once with a fresh cold solver per
    instance -- and fingerprints every pair of decisions.  The warm solver's
    fast path accepts the previous optimum only when the seeded master
    re-proposes it and closes the solver's own stopping rule, and otherwise
    falls back to the exact cold trajectory, so any fingerprint mismatch is
    a bug in the warm-start layer.

    ``exact_tolerances`` switches both solvers to the differential harness's
    near-exact stopping rule (certificates must close to 1e-9, the regime of
    :func:`differential_check`); the default uses the production tolerances
    the orchestrator runs with.
    """
    ensure_non_negative_int(epoch, "epoch")
    ensure_positive_int(num_perturbations, "num_perturbations")

    def make_solver(warm: bool) -> BendersSolver:
        # Same budget discipline as differential_check: an *iteration* cap
        # and no wall-clock cutoffs, so the check is bounded yet machine
        # independent.  A warm run that cannot certify within the cap's
        # certificate quality simply falls back to the (equally capped)
        # cold trajectory.
        if exact_tolerances:
            return BendersSolver(
                tolerance=_BENDERS_TOLERANCE,
                relative_tolerance=_BENDERS_TOLERANCE,
                max_iterations=_BENDERS_MAX_ITERATIONS,
                master_time_limit_s=None,
                time_limit_s=None,
                warm_start=warm,
            )
        return BendersSolver(
            max_iterations=_BENDERS_MAX_ITERATIONS,
            master_time_limit_s=None,
            time_limit_s=None,
            warm_start=warm,
        )

    base = problem_for_scenario(scenario, epoch=epoch)
    instances = [base] + _perturbed_forecast_sequence(
        base,
        count=num_perturbations,
        spread=spread,
        seed=derive_seed(scenario.seed, "warm-start-oracle", scenario.name),
    )
    warm_solver = make_solver(True)
    mismatched: list[int] = []
    cold_iterations = warm_iterations = fast_path_hits = 0
    for index, instance in enumerate(instances):
        cold = make_solver(False).solve(instance)
        warm = warm_solver.solve(instance)
        cold_iterations += cold.stats.iterations
        warm_iterations += warm.stats.iterations
        fast_path_hits += int(warm.stats.cuts_warm > 0)
        if decision_fingerprint(cold) != decision_fingerprint(warm):
            mismatched.append(index)
    return WarmStartOutcome(
        scenario_name=scenario.name,
        num_instances=len(instances),
        mismatched_instances=tuple(mismatched),
        cold_iterations=cold_iterations,
        warm_iterations=warm_iterations,
        fast_path_hits=fast_path_hits,
    )


def differential_check(
    scenario: Scenario,
    epoch: int = 0,
    rel_tolerance: float = 1e-6,
    benders_max_iterations: int = _BENDERS_MAX_ITERATIONS,
) -> DifferentialOutcome:
    """Solve one scenario's AC-RR instance with all three solvers and compare.

    The returned outcome carries the raw numbers; the harness asserts its
    ``benders_matches_milp`` and ``dominates_baseline`` properties.
    """
    problem = problem_for_scenario(scenario, epoch=epoch)
    # Machine independence: every wall-clock cutoff is disabled (the MILP's
    # solve limit, the Benders loop limit and the per-master limit), so a
    # slow CI runner sees exactly the incumbents a fast laptop sees.
    milp = DirectMILPSolver(time_limit_s=None, mip_rel_gap=1e-9).solve(problem)
    benders = BendersSolver(
        tolerance=_BENDERS_TOLERANCE,
        relative_tolerance=_BENDERS_TOLERANCE,
        max_iterations=benders_max_iterations,
        master_time_limit_s=None,
        time_limit_s=None,
    ).solve(problem)
    baseline = NoOverbookingSolver(time_limit_s=None).solve(problem)
    return DifferentialOutcome(
        scenario_name=scenario.name,
        milp_net_revenue=milp.expected_net_reward,
        benders_net_revenue=benders.expected_net_reward,
        baseline_net_revenue=baseline.expected_net_reward,
        milp_accepted=milp.num_accepted,
        benders_accepted=benders.num_accepted,
        baseline_accepted=baseline.num_accepted,
        benders_iterations=benders.stats.iterations,
        rel_tolerance=rel_tolerance,
    )
