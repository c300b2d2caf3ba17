"""Benchmark / regeneration of Fig. 8: the dynamic testbed experiment."""

from repro.experiments.fig8_testbed import fig8_campaign, reduce_fig8


def test_fig8_testbed_experiment(benchmark):
    campaign = fig8_campaign(policies=("optimal", "no-overbooking"), num_epochs=18, seed=3)
    result = benchmark.pedantic(lambda: reduce_fig8(campaign.run()), rounds=1, iterations=1)
    overbooked = result.final_revenue("optimal")
    baseline = result.final_revenue("no-overbooking")
    benchmark.extra_info["fig8"] = {
        "net_revenue_overbooking": overbooked,
        "net_revenue_no_overbooking": baseline,
        "admitted_overbooking": list(result.admitted("optimal")),
        "admitted_no_overbooking": list(result.admitted("no-overbooking")),
        "revenue_timeline_overbooking": result.revenue_timeline("optimal"),
        "revenue_timeline_no_overbooking": result.revenue_timeline("no-overbooking"),
    }
    print()
    print(f"  overbooking:    revenue={overbooked:6.2f} admitted={result.admitted('optimal')}")
    print(f"  no-overbooking: revenue={baseline:6.2f} admitted={result.admitted('no-overbooking')}")
    for policy in ("optimal", "no-overbooking"):
        compute = result.domain_timeline(policy, "compute").get("edge-cu", [])
        if compute:
            hour, reserved, used = compute[-1]
            print(f"  {policy:<15} edge CU at {hour}: reserved={reserved:5.1f} used={used:5.1f} CPUs")

    # Fig. 8(a): overbooking earns at least as much, by admitting extra slices.
    assert overbooked >= baseline - 1e-9
    assert len(result.admitted("optimal")) >= len(result.admitted("no-overbooking"))
