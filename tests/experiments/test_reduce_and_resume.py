"""Reduce/aggregation coverage for all six experiment modules on tiny grids,
plus resumability: a pre-seeded cache directory must yield zero new runs and
identical reduced output for every module."""

from __future__ import annotations

import pytest

from repro.experiments.ablations import (
    forecaster_ablation_campaign,
    reduce_forecaster_ablation,
    reduce_solver_ablation,
    solver_ablation_campaign,
)
from repro.experiments.fig4_topologies import fig4_campaign, reduce_fig4
from repro.experiments.fig5_homogeneous import fig5_campaign, reduce_fig5
from repro.experiments.fig6_heterogeneous import fig6_campaign, reduce_fig6
from repro.experiments.fig8_testbed import fig8_campaign, reduce_fig8
from repro.experiments.sla_violations import (
    reduce_sla_violations,
    sla_violations_campaign,
)

FIG5_GRID = {
    "operators": ("romanian",),
    "slice_types": ("eMBB",),
    "alphas": (0.2, 0.6),
    "relative_stds": (0.25,),
    "penalty_factors": (1.0,),
    "policies": ("optimal",),
    "num_base_stations": 3,
    "num_tenants": {"romanian": 4},
    "num_epochs": 2,
    "seed": 1,
}

FIG6_GRID = {
    "operators": ("romanian",),
    "mixes": (("eMBB", "mMTC"),),
    "betas": (0.0, 1.0),
    "policies": ("optimal",),
    "num_base_stations": 3,
    "num_tenants": {"romanian": 4},
    "num_epochs": 2,
    "seed": 1,
}

SLA_GRID = {"num_base_stations": 3, "num_tenants": 4, "num_epochs": 3, "seed": 5}

SOLVER_GRID = {"sizes": ((3, 3),), "solvers": ("optimal", "kac"), "seed": 1}

FORECASTER_GRID = {
    "forecasters": ("naive", "peak"),
    "num_tenants": 2,
    "num_base_stations": 2,
    "num_days": 1,
    "epochs_per_day": 4,
    "seed": 2,
}


def assert_resumes_with_zero_new_runs(campaign, tmp_path):
    first = campaign.run(cache_dir=tmp_path)
    assert first.num_executed == len(campaign.specs)
    second = campaign.run(cache_dir=tmp_path)
    assert second.num_executed == 0
    assert second.num_cached == len(campaign.specs)
    assert [r.as_dict() for r in first.records] == [
        r.as_dict() for r in second.records
    ]
    return first, second


class TestFig4Reduce:
    def test_reduce_rebuilds_cdfs_from_records(self, tmp_path):
        campaign = fig4_campaign(
            num_base_stations=6, k_paths=2, seed=1, operators=("romanian", "swiss")
        )
        first, second = assert_resumes_with_zero_new_runs(campaign, tmp_path)
        fresh = reduce_fig4(first)
        cached = reduce_fig4(second)
        assert set(fresh.operators) == {"romanian", "swiss"}
        stats = fresh.operators["romanian"]
        assert stats.num_base_stations == 6
        # CDFs rebuilt from persisted samples match the fresh computation.
        assert (
            cached.operators["romanian"].capacity_cdf_gbps.values
            == stats.capacity_cdf_gbps.values
        )
        assert cached.rows() == fresh.rows()

    def test_run_fig4_from_cache(self, tmp_path):
        campaign = fig4_campaign(
            num_base_stations=6, k_paths=2, seed=1, operators=("romanian",)
        )
        first = reduce_fig4(campaign.run(cache_dir=tmp_path))
        again = reduce_fig4(campaign.run(cache_dir=tmp_path))
        assert again.rows() == first.rows()


class TestFig5Reduce:
    def test_points_pair_each_policy_with_its_baseline(self, tmp_path):
        campaign = fig5_campaign(**FIG5_GRID)
        # 2 scenario points x (baseline + optimal) = 4 runs but only 2 points.
        assert len(campaign.specs) == 4
        first, second = assert_resumes_with_zero_new_runs(campaign, tmp_path)
        points = reduce_fig5(first, policies=FIG5_GRID["policies"])
        assert [p.alpha for p in points] == [0.2, 0.6]
        for point in points:
            assert point.policy == "optimal"
            assert point.baseline_admitted <= point.num_admitted
        assert reduce_fig5(second, policies=FIG5_GRID["policies"]) == points

    def test_run_fig5_cached_matches_fresh(self, tmp_path):
        campaign = fig5_campaign(**FIG5_GRID)
        policies = FIG5_GRID["policies"]
        fresh = reduce_fig5(campaign.run(), policies=policies)
        cached_twice = reduce_fig5(campaign.run(cache_dir=tmp_path), policies=policies)
        resumed = reduce_fig5(campaign.run(cache_dir=tmp_path), policies=policies)
        assert fresh == cached_twice == resumed

    def test_baseline_listed_as_policy_gets_zero_gain(self):
        grid = {**FIG5_GRID, "policies": ("optimal", "no-overbooking")}
        points = reduce_fig5(fig5_campaign(**grid).run(), policies=grid["policies"])
        baseline_points = [p for p in points if p.policy == "no-overbooking"]
        assert len(baseline_points) == 2
        for point in baseline_points:
            assert point.gain_percent == pytest.approx(0.0)
            assert point.net_revenue == point.baseline_revenue


class TestFig6Reduce:
    def test_rows_in_grid_order_with_baseline(self, tmp_path):
        campaign = fig6_campaign(**FIG6_GRID)
        first, _ = assert_resumes_with_zero_new_runs(campaign, tmp_path)
        points = reduce_fig6(first)
        assert [(p.beta, p.policy) for p in points] == [
            (0.0, "optimal"),
            (0.0, "no-overbooking"),
            (1.0, "optimal"),
            (1.0, "no-overbooking"),
        ]
        assert all(p.mix == ("eMBB", "mMTC") for p in points)

    def test_run_fig6_cached_matches_fresh(self, tmp_path):
        campaign = fig6_campaign(**FIG6_GRID)
        fresh = reduce_fig6(campaign.run())
        campaign.run(cache_dir=tmp_path)
        resumed = reduce_fig6(campaign.run(cache_dir=tmp_path))
        assert resumed == fresh


class TestFig8Reduce:
    def test_result_rebuilt_from_records(self, tmp_path):
        campaign = fig8_campaign(
            policies=("optimal", "no-overbooking"), num_epochs=6, seed=3
        )
        first, second = assert_resumes_with_zero_new_runs(campaign, tmp_path)
        fresh = reduce_fig8(first)
        cached = reduce_fig8(second)
        assert fresh.policies() == ["optimal", "no-overbooking"]
        assert cached.final_revenue("optimal") == fresh.final_revenue("optimal")
        assert cached.revenue_timeline("optimal") == fresh.revenue_timeline("optimal")
        assert cached.admitted("optimal") == fresh.admitted("optimal")

    def test_domain_timelines_survive_persistence(self, tmp_path):
        campaign = fig8_campaign(policies=("optimal",), num_epochs=6, seed=3)
        result = reduce_fig8(campaign.run(cache_dir=tmp_path))
        resumed = reduce_fig8(campaign.run(cache_dir=tmp_path))
        for domain, keys in (
            ("radio", {"bs-0", "bs-1"}),
            ("compute", {"edge-cu", "core-cu"}),
        ):
            fresh_timeline = result.domain_timeline("optimal", domain)
            assert set(fresh_timeline) == keys
            assert resumed.domain_timeline("optimal", domain) == fresh_timeline
        # Transport keys are JSON-safe "a--b" labels.
        transport = resumed.domain_timeline("optimal", "transport")
        assert all("--" in label for label in transport)


class TestSlaReduce:
    def test_rows_cover_both_configurations(self, tmp_path):
        campaign = sla_violations_campaign(**SLA_GRID)
        first, second = assert_resumes_with_zero_new_runs(campaign, tmp_path)
        rows = reduce_sla_violations(first)
        assert [row.relative_std for row in rows] == [0.5, 0.75]
        assert [row.penalty_factor for row in rows] == [1.0, 0.01]
        assert all(row.label for row in rows)
        assert reduce_sla_violations(second) == rows

    def test_run_sla_violations_cached(self, tmp_path):
        campaign = sla_violations_campaign(**SLA_GRID)
        fresh = reduce_sla_violations(campaign.run())
        campaign.run(cache_dir=tmp_path)
        assert reduce_sla_violations(campaign.run(cache_dir=tmp_path)) == fresh


class TestSolverAblationReduce:
    def test_gap_measured_against_milp_record(self, tmp_path):
        campaign = solver_ablation_campaign(**SOLVER_GRID)
        # The requested solvers plus nothing extra: "optimal" is already the
        # reference, so the (3, 3) size expands to exactly two runs.
        assert len(campaign.specs) == 2
        first, second = assert_resumes_with_zero_new_runs(campaign, tmp_path)
        rows = reduce_solver_ablation(first, solvers=SOLVER_GRID["solvers"])
        by_solver = {row.solver: row for row in rows}
        assert by_solver["optimal"].optimality_gap_percent == pytest.approx(0.0)
        assert by_solver["kac"].optimality_gap_percent >= 0.0
        assert reduce_solver_ablation(second, solvers=SOLVER_GRID["solvers"]) == rows

    def test_reference_included_even_when_not_requested(self):
        campaign = solver_ablation_campaign(
            sizes=((3, 3),), solvers=("kac",), seed=1
        )
        solvers = {spec.params["solver"] for spec in campaign.specs}
        assert solvers == {"optimal", "kac"}
        rows = reduce_solver_ablation(campaign.run(), solvers=("kac",))
        assert [row.solver for row in rows] == ["kac"]


class TestForecasterAblationReduce:
    def test_rows_per_forecaster_and_resume(self, tmp_path):
        campaign = forecaster_ablation_campaign(**FORECASTER_GRID)
        first, second = assert_resumes_with_zero_new_runs(campaign, tmp_path)
        rows = reduce_forecaster_ablation(first)
        assert [row.forecaster for row in rows] == ["naive", "peak"]
        for row in rows:
            assert row.net_revenue >= 0.0
        assert reduce_forecaster_ablation(second) == rows

    def test_run_forecaster_ablation_cached(self, tmp_path):
        campaign = forecaster_ablation_campaign(**FORECASTER_GRID)
        fresh = reduce_forecaster_ablation(campaign.run())
        campaign.run(cache_dir=tmp_path)
        assert reduce_forecaster_ablation(campaign.run(cache_dir=tmp_path)) == fresh
