"""Convenience helpers for running scenarios and comparing policies.

Every run here drives the control plane through the northbound
:class:`~repro.api.broker.SliceBroker` facade (via
:class:`~repro.simulation.engine.SimulationEngine`): the policies differ only
in the solver plugged into the broker's orchestrator.
"""

from __future__ import annotations

from typing import Any

from repro.core.baseline import NoOverbookingSolver
from repro.core.benders import BendersSolver
from repro.core.kac import KACSolver
from repro.core.milp_solver import DirectMILPSolver
from repro.dataplane.usage import DomainUsage
from repro.simulation.engine import SimulationEngine, SimulationResult
from repro.simulation.scenario import Scenario
from repro.utils.executors import resolve_executor

#: Orchestration policies available to the experiments and benchmarks.
#:
#: ``optimal`` uses the direct HiGHS MILP, which returns the same decisions as
#: the Benders method (both are exact) but considerably faster on the
#: evaluation instances; the Benders implementation is exercised explicitly by
#: the ``benders`` policy and by the solver ablation benchmark.
POLICIES = ("optimal", "benders", "kac", "no-overbooking")


def make_solver(policy: str):
    """Instantiate the solver behind a named orchestration policy."""
    if policy == "optimal":
        return DirectMILPSolver()
    if policy == "benders":
        return BendersSolver()
    if policy == "kac":
        return KACSolver()
    if policy == "no-overbooking":
        return NoOverbookingSolver()
    raise KeyError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def run_scenario(
    scenario: Scenario,
    policy: str = "optimal",
    stop_on_converged_revenue: bool = False,
) -> SimulationResult:
    """Run one scenario under one policy and return the simulation result."""
    engine = SimulationEngine(scenario, make_solver(policy), policy_name=policy)
    return engine.run(stop_on_converged_revenue=stop_on_converged_revenue)


def _run_policy_job(job: tuple[Scenario, str, bool]) -> SimulationResult:
    """Module-level map function so process-pool executors can pickle it."""
    scenario, policy, stop_on_converged_revenue = job
    return run_scenario(
        scenario, policy=policy, stop_on_converged_revenue=stop_on_converged_revenue
    )


def compare_policies(
    scenario: Scenario,
    policies: tuple[str, ...] = ("optimal", "no-overbooking"),
    executor=None,
    workers: int | None = None,
    stop_on_converged_revenue: bool = False,
) -> dict[str, SimulationResult]:
    """Run the same scenario under several policies (fresh engine per policy).

    The per-policy runs are independent, so they fan out through the campaign
    executor layer (:mod:`repro.utils.executors`): serial by default, a
    process pool when ``workers > 1`` or an explicit ``executor`` is given.
    Every policy replays the same scenario object -- and therefore the same
    seed-derived demand traces -- so the comparison stays paired whichever
    executor runs it.

    ``stop_on_converged_revenue`` interacts with the campaign cache upstream:
    an early-stopped run covers fewer epochs than a full one, so the flag is
    part of :class:`repro.experiments.campaign.RunSpec` and hence of the
    cache key.  A record produced with the stopping rule enabled is never
    returned for a full-run spec (or vice versa); here, where nothing is
    cached, the flag simply propagates to every policy's engine.
    """
    executor = resolve_executor(executor, workers)
    jobs = [(scenario, policy, stop_on_converged_revenue) for policy in policies]
    results = executor.map(_run_policy_job, jobs)
    return dict(zip(policies, results))


# --------------------------------------------------------------------- #
# Result serialization (campaign persistence hooks)
# --------------------------------------------------------------------- #
def _usage_as_dict(usage: DomainUsage) -> dict[str, Any]:
    return {
        "capacity": usage.capacity,
        "reserved": usage.reserved,
        "used": usage.used,
        "per_slice_reserved": dict(usage.per_slice_reserved),
        "per_slice_used": dict(usage.per_slice_used),
    }


def _usage_key(key: str | tuple[str, str]) -> str:
    """JSON-safe resource key (transport links are (a, b) tuples)."""
    return key if isinstance(key, str) else f"{key[0]}--{key[1]}"


def simulation_record(result: SimulationResult) -> dict[str, Any]:
    """Serialise a :class:`SimulationResult` into a JSON-safe run record.

    Returns ``{"summary": ..., "extras": ...}`` as consumed by the campaign
    layer: the flat numeric summary plus the per-epoch series the figure
    reduce steps need (net-revenue timeline, admission outcome and -- for
    scenarios that record usage, e.g. the Fig. 8 testbed -- the per-domain
    reservation/utilisation timelines).
    """
    extras: dict[str, Any] = {
        "scenario_name": result.scenario_name,
        "policy": result.policy,
        "num_epochs": len(result.epoch_records),
        "per_epoch_net": [record.net_revenue for record in result.epoch_records],
        "final_admitted": list(result.final_admitted),
        "final_rejected": list(result.final_rejected),
    }
    if any(
        record.radio_usage or record.transport_usage or record.compute_usage
        for record in result.epoch_records
    ):
        extras["epoch_usage"] = [
            {
                "epoch": record.epoch,
                "radio": {
                    _usage_key(k): _usage_as_dict(u)
                    for k, u in record.radio_usage.items()
                },
                "transport": {
                    _usage_key(k): _usage_as_dict(u)
                    for k, u in record.transport_usage.items()
                },
                "compute": {
                    _usage_key(k): _usage_as_dict(u)
                    for k, u in record.compute_usage.items()
                },
            }
            for record in result.epoch_records
        ]
    return {"summary": result.summary(), "extras": extras}
