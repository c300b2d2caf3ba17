"""Benchmark / regeneration of Fig. 6: heterogeneous-scenario net revenue."""

from dataclasses import asdict

from repro.experiments.fig6_heterogeneous import fig6_campaign, format_fig6, reduce_fig6


def test_fig6_heterogeneous_revenue(benchmark, full_figures):
    if full_figures:
        kwargs = {}
    else:
        kwargs = {
            "operators": ("romanian", "swiss"),
            "mixes": (("eMBB", "mMTC"), ("eMBB", "uRLLC")),
            "betas": (0.0, 0.5, 1.0),
            "policies": ("optimal",),
            "num_base_stations": 6,
            "num_tenants": {"romanian": 8, "swiss": 8},
            "num_epochs": 2,
            "seed": 1,
        }
    campaign = fig6_campaign(**kwargs)
    points = benchmark.pedantic(lambda: reduce_fig6(campaign.run()), rounds=1, iterations=1)
    assert points, "Fig. 6 sweep returned no points"
    benchmark.extra_info["fig6"] = [{**asdict(p), "mix": "+".join(p.mix)} for p in points]
    print("\n" + format_fig6(points))

    def revenue(operator, mix, beta, policy):
        matches = [
            p.net_revenue
            for p in points
            if p.operator == operator
            and p.mix == mix
            and abs(p.beta - beta) < 1e-9
            and p.policy == policy
        ]
        return matches[0]

    # Overbooking dominates the no-overbooking baseline at every mix point.
    for p in points:
        if p.policy != "optimal":
            continue
        baseline = revenue(p.operator, p.mix, p.beta, "no-overbooking")
        assert p.net_revenue >= baseline - 1e-9
    # Fig. 6 top-left: revenue grows as mMTC (higher reward) replaces eMBB
    # under overbooking.
    assert revenue("romanian", ("eMBB", "mMTC"), 1.0, "optimal") > revenue(
        "romanian", ("eMBB", "mMTC"), 0.0, "optimal"
    )
