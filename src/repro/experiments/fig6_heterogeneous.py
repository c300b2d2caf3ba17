"""Fig. 6: net revenue in heterogeneous (mixed slice type) scenarios.

The paper mixes pairs of slice types -- eMBB+mMTC, eMBB+uRLLC and mMTC+uRLLC
-- and sweeps the share ``beta`` of the second type while keeping the mean
load at ``0.2 * Lambda``.  The reported metric is the *absolute* net revenue
(monetary units) of the overbooking policies next to the no-overbooking
baseline (the black curve in the figure).

Like Fig. 5, the sweep is declared as a campaign (one run spec per scenario
point and policy) and reduced from the run records, so it parallelises and
resumes through the shared campaign machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.campaign import Campaign, CampaignResult, RunSpec, expand_grid

#: The three panel columns of Fig. 6.
DEFAULT_MIXES = (("eMBB", "mMTC"), ("eMBB", "uRLLC"), ("mMTC", "uRLLC"))
DEFAULT_BETAS = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_OPERATORS = ("romanian", "swiss", "italian")
DEFAULT_POLICIES = ("optimal", "kac")
DEFAULT_NUM_BASE_STATIONS = 8
DEFAULT_NUM_TENANTS = {"romanian": 10, "swiss": 10, "italian": 20}
DEFAULT_NUM_EPOCHS = 3
DEFAULT_MEAN_LOAD_FRACTION = 0.2


@dataclass(frozen=True)
class Fig6Point:
    """One point of Fig. 6: one beta value of one mix on one operator."""

    operator: str
    mix: tuple[str, str]
    beta: float
    relative_std: float
    penalty_factor: float
    policy: str
    net_revenue: float
    num_admitted: int
    violation_probability: float


def fig6_campaign(
    operators: tuple[str, ...] = DEFAULT_OPERATORS,
    mixes: tuple[tuple[str, str], ...] = DEFAULT_MIXES,
    betas: tuple[float, ...] = DEFAULT_BETAS,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    relative_std: float = 0.25,
    penalty_factor: float = 1.0,
    mean_load_fraction: float = DEFAULT_MEAN_LOAD_FRACTION,
    num_base_stations: int | None = DEFAULT_NUM_BASE_STATIONS,
    num_tenants: dict[str, int] | None = None,
    num_epochs: int = DEFAULT_NUM_EPOCHS,
    seed: int | None = 1,
    include_baseline: bool = True,
) -> Campaign:
    """Declare the Fig. 6 sweep as a campaign (one spec per point/policy)."""
    tenants_by_operator = dict(DEFAULT_NUM_TENANTS)
    if num_tenants:
        tenants_by_operator.update(num_tenants)
    all_policies = _fig6_policies(policies, include_baseline)

    specs: list[RunSpec] = []
    for point in expand_grid(
        {"operator": operators, "mix": mixes, "beta": betas}
    ):
        mix = point["mix"]
        params = {
            "scenario": "heterogeneous",
            "operator": point["operator"],
            "slice_type_a": mix[0],
            "slice_type_b": mix[1],
            "beta": point["beta"],
            "mean_load_fraction": mean_load_fraction,
            "relative_std": relative_std,
            "penalty_factor": penalty_factor,
            "num_tenants": tenants_by_operator.get(point["operator"], 10),
            "num_epochs": num_epochs,
            "num_base_stations": num_base_stations,
        }
        for policy in all_policies:
            specs.append(
                RunSpec(
                    experiment="fig6",
                    kind="simulation",
                    params=params,
                    policy=policy,
                    seed=seed,
                )
            )
    return Campaign(name="fig6", specs=tuple(specs), base_seed=seed)


def _fig6_policies(
    policies: tuple[str, ...], include_baseline: bool
) -> tuple[str, ...]:
    extra = ("no-overbooking",) if include_baseline else ()
    return tuple(policies) + tuple(p for p in extra if p not in policies)


def reduce_fig6(result: CampaignResult) -> list[Fig6Point]:
    """Fold the campaign's run records back into the Fig. 6 point rows."""
    points: list[Fig6Point] = []
    for record in result.records:
        params = record.spec.params
        points.append(
            Fig6Point(
                operator=params["operator"],
                mix=(params["slice_type_a"], params["slice_type_b"]),
                beta=params["beta"],
                relative_std=params["relative_std"],
                penalty_factor=params["penalty_factor"],
                policy=record.spec.policy,
                net_revenue=record.summary["net_revenue"],
                num_admitted=int(record.summary["num_admitted"]),
                violation_probability=record.summary["violation_probability"],
            )
        )
    return points


def format_fig6(points: list[Fig6Point]) -> str:
    """Plain-text rendering of the Fig. 6 data series."""
    header = (
        f"{'operator':<10} {'mix':<12} {'beta':>5} {'policy':<14} "
        f"{'revenue':>9} {'admitted':>9} {'viol.prob':>10}"
    )
    lines = [header, "-" * len(header)]
    for p in points:
        lines.append(
            f"{p.operator:<10} {p.mix[0] + '+' + p.mix[1]:<12} {p.beta:>5.2f} {p.policy:<14} "
            f"{p.net_revenue:>9.2f} {p.num_admitted:>9d} {p.violation_probability:>10.6f}"
        )
    return "\n".join(lines)
