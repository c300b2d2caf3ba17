"""Benchmark / regeneration of the SLA-violation statistics (Sections 4.3.3-4.3.4)."""

from dataclasses import asdict

from repro.experiments.sla_violations import reduce_sla_violations, sla_violations_campaign


def test_sla_violation_footprint(benchmark, full_figures):
    kwargs = {
        "num_base_stations": None if full_figures else 8,
        "num_tenants": 10,
        "num_epochs": 16 if full_figures else 8,
        "seed": 7,
    }
    campaign = sla_violations_campaign(**kwargs)
    results = benchmark.pedantic(
        lambda: reduce_sla_violations(campaign.run()), rounds=1, iterations=1
    )
    benchmark.extra_info["sla_violations"] = [asdict(r) for r in results]
    print()
    for r in results:
        print(
            f"  {r.label:<42} violation_prob={r.violation_probability:.6f} "
            f"mean_drop={r.mean_drop_fraction:.3f} max_drop={r.max_drop_fraction:.3f}"
        )
    # Paper: violations affect a negligible share of monitoring samples.
    for r in results:
        assert r.violation_probability < 0.01
