"""Fig. 5: relative revenue gain of overbooking in homogeneous scenarios.

For every operator network, slice type, mean-load factor ``alpha``, demand
variability ``sigma`` and penalty factor ``m``, the experiment runs the same
scenario under an overbooking policy (optimal and/or KAC) and under the
no-overbooking baseline, and reports the relative net-revenue gain -- the
quantity plotted on the y-axis of Fig. 5.

The sweep is declared as a :class:`repro.experiments.campaign.Campaign`: the
grid expands into one :class:`RunSpec` per (scenario point, policy), the runs
execute through a pluggable executor (parallel and cached/resumable when a
cache directory is given) and :func:`reduce_fig5` folds the persisted records
back into :class:`Fig5Point` rows.

The paper's full grid (3 operators x 3 slice types x 9 load points x 3
variability levels x 3 penalties, on 197-1497-cell networks) takes CPLEX
hours per point; the defaults below use the reduced operator topologies and a
sub-sampled grid so the whole figure regenerates in minutes, while preserving
the trends.  README "Running the experiment campaigns" shows how to run it;
a paper-vs-measured comparison waits for the ROADMAP item "The paper's
claims as executed checks, not prose".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    RunRecord,
    RunSpec,
    expand_grid,
)
from repro.utils.rng import spec_hash
from repro.utils.stats import relative_gain

#: The policy every overbooking policy is compared against.
BASELINE_POLICY = "no-overbooking"

#: Reduced-scale defaults used by the benchmark harness.
DEFAULT_OPERATORS = ("romanian", "swiss", "italian")
DEFAULT_TEMPLATES = ("eMBB", "mMTC", "uRLLC")
DEFAULT_ALPHAS = (0.2, 0.5, 0.8)
DEFAULT_RELATIVE_STDS = (0.0, 0.25)
DEFAULT_PENALTY_FACTORS = (1.0, 16.0)
DEFAULT_POLICIES = ("optimal", "kac")
DEFAULT_NUM_BASE_STATIONS = 8
DEFAULT_NUM_TENANTS = {"romanian": 10, "swiss": 10, "italian": 20}
DEFAULT_NUM_EPOCHS = 3


@dataclass(frozen=True)
class Fig5Point:
    """One point of Fig. 5 (one x-value of one curve of one panel)."""

    operator: str
    slice_type: str
    alpha: float
    relative_std: float
    penalty_factor: float
    policy: str
    net_revenue: float
    baseline_revenue: float
    gain_percent: float
    num_admitted: int
    baseline_admitted: int
    violation_probability: float


def fig5_campaign(
    operators: tuple[str, ...] = DEFAULT_OPERATORS,
    slice_types: tuple[str, ...] = DEFAULT_TEMPLATES,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    relative_stds: tuple[float, ...] = DEFAULT_RELATIVE_STDS,
    penalty_factors: tuple[float, ...] = DEFAULT_PENALTY_FACTORS,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    num_base_stations: int | None = DEFAULT_NUM_BASE_STATIONS,
    num_tenants: dict[str, int] | None = None,
    num_epochs: int = DEFAULT_NUM_EPOCHS,
    seed: int | None = 1,
) -> Campaign:
    """Declare the Fig. 5 sweep as a campaign.

    Every scenario point expands into the baseline run plus one run per
    requested policy; all runs of a point share the scenario seed so the
    comparison stays paired.
    """
    tenants_by_operator = dict(DEFAULT_NUM_TENANTS)
    if num_tenants:
        tenants_by_operator.update(num_tenants)

    specs: list[RunSpec] = []
    for point in expand_grid(
        {
            "operator": operators,
            "slice_type": slice_types,
            "alpha": alphas,
            "relative_std": relative_stds,
            "penalty_factor": penalty_factors,
        }
    ):
        params = {
            "scenario": "homogeneous",
            **point,
            "num_tenants": tenants_by_operator.get(point["operator"], 10),
            "num_epochs": num_epochs,
            "num_base_stations": num_base_stations,
        }
        for policy in _point_policies(policies):
            specs.append(
                RunSpec(
                    experiment="fig5",
                    kind="simulation",
                    params=params,
                    policy=policy,
                    seed=seed,
                )
            )
    return Campaign(name="fig5", specs=tuple(specs), base_seed=seed)


def _point_policies(policies: tuple[str, ...]) -> tuple[str, ...]:
    """Baseline first, then the requested policies (deduplicated)."""
    ordered = [BASELINE_POLICY]
    ordered.extend(policy for policy in policies if policy != BASELINE_POLICY)
    return tuple(ordered)


def reduce_fig5(
    result: CampaignResult, policies: tuple[str, ...] = DEFAULT_POLICIES
) -> list[Fig5Point]:
    """Fold the campaign's run records back into the Fig. 5 point rows."""
    groups: dict[str, dict[str | None, RunRecord]] = {}
    order: list[str] = []
    for record in result.records:
        key = spec_hash(record.spec.scenario_identity())
        if key not in groups:
            groups[key] = {}
            order.append(key)
        groups[key][record.spec.policy] = record

    points: list[Fig5Point] = []
    for key in order:
        by_policy = groups[key]
        baseline = by_policy[BASELINE_POLICY]
        params = baseline.spec.params
        for policy in policies:
            record = by_policy[policy]
            points.append(
                Fig5Point(
                    operator=params["operator"],
                    slice_type=params["slice_type"],
                    alpha=params["alpha"],
                    relative_std=params["relative_std"],
                    penalty_factor=params["penalty_factor"],
                    policy=policy,
                    net_revenue=record.summary["net_revenue"],
                    baseline_revenue=baseline.summary["net_revenue"],
                    gain_percent=relative_gain(
                        record.summary["net_revenue"], baseline.summary["net_revenue"]
                    ),
                    num_admitted=int(record.summary["num_admitted"]),
                    baseline_admitted=int(baseline.summary["num_admitted"]),
                    violation_probability=record.summary["violation_probability"],
                )
            )
    return points


def format_fig5(points: list[Fig5Point]) -> str:
    """Plain-text rendering of the Fig. 5 data series."""
    header = (
        f"{'operator':<10} {'type':<6} {'alpha':>5} {'std':>5} {'m':>4} {'policy':<8} "
        f"{'revenue':>9} {'baseline':>9} {'gain%':>8} {'viol.prob':>10}"
    )
    lines = [header, "-" * len(header)]
    for p in points:
        lines.append(
            f"{p.operator:<10} {p.slice_type:<6} {p.alpha:>5.2f} {p.relative_std:>5.2f} "
            f"{p.penalty_factor:>4.0f} {p.policy:<8} {p.net_revenue:>9.2f} "
            f"{p.baseline_revenue:>9.2f} {p.gain_percent:>8.1f} {p.violation_probability:>10.6f}"
        )
    return "\n".join(lines)
