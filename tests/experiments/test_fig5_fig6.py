"""Tests for the Fig. 5 / Fig. 6 experiment harnesses (tiny grids)."""

from dataclasses import asdict

import pytest

from repro.experiments.fig5_homogeneous import fig5_campaign, format_fig5, reduce_fig5
from repro.experiments.fig6_heterogeneous import fig6_campaign, format_fig6, reduce_fig6


@pytest.fixture(scope="module")
def fig5_points():
    campaign = fig5_campaign(
        operators=("romanian",),
        slice_types=("eMBB",),
        alphas=(0.2, 0.6),
        relative_stds=(0.25,),
        penalty_factors=(1.0,),
        policies=("optimal",),
        num_base_stations=4,
        num_tenants={"romanian": 6},
        num_epochs=2,
        seed=1,
    )
    return reduce_fig5(campaign.run(), policies=("optimal",))


class TestFig5:
    def test_grid_size(self, fig5_points):
        assert len(fig5_points) == 2  # 2 alphas x 1 policy

    def test_overbooking_gain_positive_at_low_load(self, fig5_points):
        low = next(p for p in fig5_points if p.alpha == 0.2)
        assert low.gain_percent > 0.0
        assert low.num_admitted >= low.baseline_admitted

    def test_gain_decreases_with_load(self, fig5_points):
        low = next(p for p in fig5_points if p.alpha == 0.2)
        high = next(p for p in fig5_points if p.alpha == 0.6)
        assert high.gain_percent <= low.gain_percent + 1e-9

    def test_as_dict_and_format(self, fig5_points):
        as_dict = asdict(fig5_points[0])
        assert {"operator", "alpha", "gain_percent"} <= set(as_dict)
        text = format_fig5(fig5_points)
        assert "romanian" in text


@pytest.fixture(scope="module")
def fig6_points():
    campaign = fig6_campaign(
        operators=("romanian",),
        mixes=(("eMBB", "mMTC"),),
        betas=(0.0, 0.5),
        policies=("optimal",),
        num_base_stations=4,
        num_tenants={"romanian": 6},
        num_epochs=2,
        seed=1,
    )
    return reduce_fig6(campaign.run())


class TestFig6:
    def test_grid_includes_baseline(self, fig6_points):
        policies = {p.policy for p in fig6_points}
        assert policies == {"optimal", "no-overbooking"}
        assert len(fig6_points) == 4  # 2 betas x 2 policies

    def test_overbooking_never_below_baseline(self, fig6_points):
        for beta in (0.0, 0.5):
            optimal = next(
                p for p in fig6_points if p.beta == beta and p.policy == "optimal"
            )
            baseline = next(
                p
                for p in fig6_points
                if p.beta == beta and p.policy == "no-overbooking"
            )
            assert optimal.net_revenue >= baseline.net_revenue - 1e-9

    def test_adding_mmtc_increases_revenue(self, fig6_points):
        # mMTC slices pay a higher reward (1 + b = 3), so replacing half of
        # the eMBB tenants with mMTC ones increases the overbooked revenue.
        low = next(p for p in fig6_points if p.beta == 0.0 and p.policy == "optimal")
        high = next(p for p in fig6_points if p.beta == 0.5 and p.policy == "optimal")
        assert high.net_revenue > low.net_revenue

    def test_format(self, fig6_points):
        text = format_fig6(fig6_points)
        assert "eMBB+mMTC" in text
