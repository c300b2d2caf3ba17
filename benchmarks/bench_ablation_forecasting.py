"""Ablation: forecaster choice on a seasonal workload (Holt-Winters vs simpler).

The paper selects multiplicative Holt-Winters because mobile demand is
diurnal; this benchmark replays a seasonal workload with online forecasting
under several forecasters and reports revenue and SLA footprint.
"""

from dataclasses import asdict

from repro.experiments.ablations import forecaster_ablation_campaign, reduce_forecaster_ablation


def test_forecaster_ablation(benchmark, full_figures):
    kwargs = {
        "forecasters": ("holt-winters", "double-exponential", "naive", "peak"),
        "num_tenants": 6,
        "num_base_stations": 4,
        "num_days": 3 if not full_figures else 5,
        "epochs_per_day": 12,
        "seed": 13,
    }
    campaign = forecaster_ablation_campaign(**kwargs)
    rows = benchmark.pedantic(
        lambda: reduce_forecaster_ablation(campaign.run()), rounds=1, iterations=1
    )
    benchmark.extra_info["forecaster_ablation"] = [asdict(row) for row in rows]
    print()
    for row in rows:
        print(
            f"  {row.forecaster:<20} revenue={row.net_revenue:7.2f} "
            f"violations={row.violation_probability:.5f} admitted={row.num_admitted}"
        )
    by = {row.forecaster: row for row in rows}
    # The most conservative predictor (historical peak) can never earn more
    # than the seasonality-aware one.
    assert by["holt-winters"].net_revenue >= by["peak"].net_revenue - 1e-6
