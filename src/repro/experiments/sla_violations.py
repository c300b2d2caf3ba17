"""SLA-violation footprint of overbooking (Sections 4.3.3-4.3.4).

The paper argues overbooking is almost free for the tenants: in the most
aggressive configuration (sigma = lambda/2, m = 1) SLA violations occur in
fewer than 0.0001 % of the monitoring samples and affect at most ~10 % of the
traffic; an even more aggressive sanity check (sigma = 3*lambda/4, m = 0.01)
raises this to 0.043 % of samples and ~20 % of traffic.  This experiment runs
those two configurations (as a campaign, one run per configuration) and
reports the same statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.campaign import Campaign, CampaignResult, RunSpec


@dataclass(frozen=True)
class SlaViolationResult:
    """Violation statistics of one configuration."""

    label: str
    relative_std: float
    penalty_factor: float
    policy: str
    violation_probability: float
    mean_drop_fraction: float
    max_drop_fraction: float
    net_revenue: float


#: The two configurations quoted in the paper's text.
PAPER_CONFIGURATIONS = (
    ("aggressive (sigma=lambda/2, m=1)", 0.5, 1.0),
    ("sanity-check (sigma=3*lambda/4, m=0.01)", 0.75, 0.01),
)


def sla_violations_campaign(
    operator: str = "romanian",
    slice_type: str = "eMBB",
    alpha: float = 0.5,
    policy: str = "optimal",
    configurations: tuple[tuple[str, float, float], ...] = PAPER_CONFIGURATIONS,
    num_base_stations: int | None = 8,
    num_tenants: int = 10,
    num_epochs: int = 8,
    seed: int | None = 7,
) -> Campaign:
    """Declare the SLA-violation sweep as a campaign (one run per config)."""
    specs = tuple(
        RunSpec(
            experiment="sla",
            kind="simulation",
            params={
                "scenario": "homogeneous",
                "operator": operator,
                "slice_type": slice_type,
                "alpha": alpha,
                "relative_std": relative_std,
                "penalty_factor": penalty,
                "num_tenants": num_tenants,
                "num_epochs": num_epochs,
                "num_base_stations": num_base_stations,
                "label": label,
            },
            policy=policy,
            seed=seed,
        )
        for label, relative_std, penalty in configurations
    )
    return Campaign(name="sla", specs=specs, base_seed=seed)


def reduce_sla_violations(result: CampaignResult) -> list[SlaViolationResult]:
    """Fold the run records into the per-configuration statistics rows."""
    rows: list[SlaViolationResult] = []
    for record in result.records:
        params = record.spec.params
        rows.append(
            SlaViolationResult(
                label=params["label"],
                relative_std=params["relative_std"],
                penalty_factor=params["penalty_factor"],
                policy=record.spec.policy,
                violation_probability=record.summary["violation_probability"],
                mean_drop_fraction=record.summary["mean_drop_fraction"],
                max_drop_fraction=record.summary["max_drop_fraction"],
                net_revenue=record.summary["net_revenue"],
            )
        )
    return rows
