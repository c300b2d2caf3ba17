"""Benchmark / regeneration of Fig. 5: homogeneous-scenario revenue gains."""

from dataclasses import asdict

from repro.experiments.fig5_homogeneous import (
    DEFAULT_POLICIES,
    fig5_campaign,
    format_fig5,
    reduce_fig5,
)


def test_fig5_homogeneous_gains(benchmark, full_figures):
    if full_figures:
        kwargs = {}
    else:
        kwargs = {
            "operators": ("romanian", "swiss", "italian"),
            "slice_types": ("eMBB", "mMTC", "uRLLC"),
            "alphas": (0.2, 0.5, 0.8),
            "relative_stds": (0.0, 0.25),
            "penalty_factors": (1.0,),
            "policies": ("optimal", "kac"),
            "num_base_stations": 6,
            "num_tenants": {"romanian": 8, "swiss": 8, "italian": 12},
            "num_epochs": 2,
            "seed": 1,
        }
    campaign = fig5_campaign(**kwargs)
    policies = kwargs.get("policies", DEFAULT_POLICIES)
    points = benchmark.pedantic(
        lambda: reduce_fig5(campaign.run(), policies=policies), rounds=1, iterations=1
    )
    assert points, "Fig. 5 sweep returned no points"
    benchmark.extra_info["fig5"] = [asdict(p) for p in points]
    print("\n" + format_fig5(points))

    # Shape checks mirroring the paper's observations.
    def gain(operator, slice_type, alpha, policy="optimal"):
        matches = [
            p.gain_percent
            for p in points
            if p.operator == operator
            and p.slice_type == slice_type
            and abs(p.alpha - alpha) < 1e-9
            and p.policy == policy
        ]
        return sum(matches) / len(matches)

    # Overbooking pays off at low load and the gain shrinks as alpha grows.
    assert gain("romanian", "eMBB", 0.2) > 100.0
    assert gain("romanian", "eMBB", 0.2) >= gain("romanian", "eMBB", 0.8)
    # The transport-constrained Swiss network benefits more than the Romanian.
    assert gain("swiss", "eMBB", 0.2) > gain("romanian", "eMBB", 0.2)
