"""Benchmark: campaign sweep throughput (runs/sec on the fig5 grid).

Measures how fast the campaign layer pushes independent simulation runs
through an executor -- the number BENCH tracking watches so regressions in
spec hashing, record persistence or the per-run hot path show up as a drop
in sweep throughput.  A second (non-benchmarked) pass over the same cache
directory asserts the resume path touches zero runs.
"""

import tempfile

from repro.experiments.fig5_homogeneous import fig5_campaign

#: The reduced fig5 grid the throughput number refers to: 12 scenario points
#: x (baseline + 2 policies) = 36 independent runs.
GRID = {
    "operators": ("romanian", "swiss"),
    "slice_types": ("eMBB",),
    "alphas": (0.2, 0.5, 0.8),
    "relative_stds": (0.0, 0.25),
    "penalty_factors": (1.0,),
    "policies": ("optimal", "kac"),
    "num_base_stations": 6,
    "num_tenants": {"romanian": 8, "swiss": 8},
    "num_epochs": 2,
    "seed": 1,
}


def test_campaign_sweep_throughput(benchmark):
    campaign = fig5_campaign(**GRID)

    def sweep():
        with tempfile.TemporaryDirectory() as cache_dir:
            result = campaign.run(cache_dir=cache_dir)
            assert result.num_executed == len(campaign.specs)
        return result

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    elapsed = benchmark.stats.stats.mean
    runs_per_sec = len(campaign.specs) / elapsed if elapsed > 0 else float("inf")
    benchmark.extra_info["campaign_throughput"] = {
        "grid": "fig5-reduced",
        "num_runs": len(campaign.specs),
        "elapsed_s": elapsed,
        "runs_per_sec": runs_per_sec,
    }
    print(f"\n  fig5 grid: {len(campaign.specs)} runs in {elapsed:.2f}s "
          f"({runs_per_sec:.2f} runs/s serial)")

    # Resume pass: a warm cache must execute nothing.
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = campaign.run(cache_dir=cache_dir)
        warm = campaign.run(cache_dir=cache_dir)
        assert cold.num_executed == len(campaign.specs)
        assert warm.num_executed == 0
        assert warm.num_cached == len(campaign.specs)
