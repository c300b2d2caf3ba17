"""Ablation: solver runtime and optimality gap (direct MILP vs Benders vs KAC).

The paper motivates the KAC heuristic with the gap between Benders'
convergence time ("a few hours" on CPLEX for the full networks) and KAC's
("a few seconds").  This benchmark quantifies the same trade-off on reduced
instances.
"""

from dataclasses import asdict

from repro.experiments.ablations import reduce_solver_ablation, solver_ablation_campaign


def test_solver_ablation(benchmark, full_figures):
    sizes = ((4, 4), (6, 6), (8, 8)) if not full_figures else ((6, 6), (10, 10), (14, 14))
    solvers = ("optimal", "benders", "kac")
    campaign = solver_ablation_campaign(sizes=sizes, solvers=solvers, seed=11)
    rows = benchmark.pedantic(
        lambda: reduce_solver_ablation(campaign.run(), solvers=solvers), rounds=1, iterations=1
    )
    benchmark.extra_info["solver_ablation"] = [asdict(row) for row in rows]
    print()
    for row in rows:
        print(
            f"  tenants={row.num_tenants:>3} BSs={row.num_base_stations:>3} items={row.num_items:>5} "
            f"{row.solver:<8} runtime={row.runtime_s:7.3f}s gap={row.optimality_gap_percent:6.2f}% "
            f"admitted={row.num_admitted}"
        )
    by = {(row.num_tenants, row.solver): row for row in rows}
    largest = max(size[0] for size in sizes)
    # Benders is exact (tiny gap); KAC is much faster than Benders.
    assert by[(largest, "benders")].optimality_gap_percent < 1.0
    assert by[(largest, "kac")].runtime_s < by[(largest, "benders")].runtime_s
