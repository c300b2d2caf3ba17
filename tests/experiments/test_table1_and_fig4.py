"""Tests for the Table 1 and Fig. 4 reproductions."""

from repro.experiments.fig4_topologies import fig4_campaign, path_statistics, reduce_fig4
from repro.experiments.table1_templates import format_table1, table1_rows
from repro.topology.operators import romanian_topology


class TestTable1:
    def test_rows_cover_all_templates(self):
        rows = table1_rows()
        assert {row["slice_type"] for row in rows} == {"eMBB", "mMTC", "uRLLC"}

    def test_row_values_match_paper(self):
        by_type = {row["slice_type"]: row for row in table1_rows()}
        assert by_type["eMBB"]["sla_mbps"] == 50.0
        assert by_type["mMTC"]["sigma"] == "0"
        assert by_type["uRLLC"]["latency_tolerance_ms"] == 5.0
        assert by_type["mMTC"]["compute_cpus_per_mbps"] == 2.0

    def test_format_renders_every_row(self):
        text = format_table1()
        for name in ("eMBB", "mMTC", "uRLLC"):
            assert name in text


class TestFig4:
    def test_reduced_run_contains_all_operators(self):
        result = reduce_fig4(fig4_campaign(num_base_stations=12, k_paths=4, seed=1).run())
        assert set(result.operators) == {"romanian", "swiss", "italian"}
        rows = result.rows()
        assert len(rows) == 3
        for row in rows:
            assert row["mean_paths_per_pair"] >= 1.0

    def test_romanian_more_redundant_than_italian(self):
        result = reduce_fig4(fig4_campaign(num_base_stations=16, k_paths=6, seed=2).run())
        assert (
            result.operators["romanian"].mean_paths_per_pair
            > result.operators["italian"].mean_paths_per_pair
        )

    def test_swiss_paths_have_lower_capacity(self):
        result = reduce_fig4(fig4_campaign(num_base_stations=16, k_paths=4, seed=2).run())
        swiss = result.operators["swiss"].capacity_cdf_gbps.quantile(0.5)
        romanian = result.operators["romanian"].capacity_cdf_gbps.quantile(0.5)
        assert swiss < romanian

    def test_path_statistics_requires_edge_reachability(self, tiny_topology):
        stats = path_statistics("tiny", tiny_topology)
        assert stats.num_base_stations == 2
        assert stats.mean_paths_per_pair >= 1.0

    def test_delay_distribution_is_positive(self):
        topo = romanian_topology(num_base_stations=10, seed=3)
        stats = path_statistics("romanian", topo, k_paths=3)
        assert stats.delay_cdf_us.quantile(0.0) > 0.0
