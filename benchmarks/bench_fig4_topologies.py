"""Benchmark / regeneration of Fig. 4: operator topologies and path statistics.

The full-size networks (198 / 197 / 200 base stations) are used when the
``--full-figures`` option is passed; the default uses 40-BS reductions so the
whole benchmark suite stays fast.
"""

from repro.experiments.fig4_topologies import fig4_campaign, reduce_fig4


def test_fig4_path_distributions(benchmark, full_figures):
    num_bs = None if full_figures else 40
    campaign = fig4_campaign(num_base_stations=num_bs, k_paths=6, seed=1)
    result = benchmark.pedantic(
        lambda: reduce_fig4(campaign.run()), rounds=1, iterations=1
    )
    rows = result.rows()
    assert {row["operator"] for row in rows} == {"romanian", "swiss", "italian"}
    benchmark.extra_info["fig4"] = rows
    print()
    for row in rows:
        print(
            f"  {row['operator']:<10} BSs={row['num_base_stations']:>5.0f} "
            f"paths/pair={row['mean_paths_per_pair']:>5.2f} "
            f"median cap={row['median_capacity_gbps']:>7.2f} Gb/s "
            f"median delay={row['median_delay_us']:>7.1f} us "
            f"p95 delay={row['p95_delay_us']:>7.1f} us"
        )
    # Qualitative shape of Fig. 4(d)-(e): the Romanian network is the most
    # path-redundant, the Swiss one has the smallest path capacities.
    by_op = {row["operator"]: row for row in rows}
    assert by_op["romanian"]["mean_paths_per_pair"] > by_op["italian"]["mean_paths_per_pair"]
    assert by_op["swiss"]["median_capacity_gbps"] < by_op["romanian"]["median_capacity_gbps"]
