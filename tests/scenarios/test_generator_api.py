"""Unit tests for the generator API surface and the campaign integration."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.campaign import build_scenario
from repro.scenarios import ScenarioFamily, sample_scenario
from repro.scenarios.campaigns import (
    format_generated,
    generated_campaign,
    reduce_generated,
)
from repro.scenarios.oracle import problem_for_scenario
from repro.topology.generators import degrade_link_capacities
from repro.topology.operators import testbed_topology as build_testbed_topology
from repro.traffic.demand import OnOffDemand
from repro.traffic.patterns import DemandSpec, demand_for_template
from repro.core.slices import EMBB_TEMPLATE

#: A deliberately tiny family so campaign/oracle tests stay fast.
TINY_FAMILY = ScenarioFamily(
    name="tiny-test",
    operator_profiles=("swiss",),
    num_base_stations=(2, 2),
    num_tenants=(2, 3),
    mean_load_fraction=(0.2, 0.5),
    num_epochs=(2, 2),
    samples_per_epoch=4,
)


class TestSampling:
    def test_scenario_name_is_seed_specific(self):
        scenarios = [sample_scenario(TINY_FAMILY, seed) for seed in (1, 2, 3)]
        assert len({scenario.name for scenario in scenarios}) == 3

    def test_scenario_seed_is_family_specific(self):
        other = replace(TINY_FAMILY, name="tiny-test-2")
        a = sample_scenario(TINY_FAMILY, seed=5)
        b = sample_scenario(other, seed=5)
        assert a.seed != b.seed


class TestBurstyDemand:
    def test_bursty_spec_builds_onoff_model(self):
        spec = DemandSpec(mean_fraction=0.5, relative_std=0.2, bursty=True)
        model = demand_for_template(EMBB_TEMPLATE, spec, seed=1)
        assert isinstance(model, OnOffDemand)
        peaks = model.peak_series(40, 4)
        assert np.all(peaks >= 0.0)
        assert np.all(peaks <= EMBB_TEMPLATE.sla_mbps)

    def test_seasonal_and_bursty_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="seasonal and bursty"):
            DemandSpec(seasonal=True, bursty=True)

    def test_off_mean_must_not_exceed_on_mean(self):
        with pytest.raises(ValueError, match="off_mean_fraction"):
            DemandSpec(mean_fraction=0.1, off_mean_fraction=0.3, bursty=True)


class TestDegradation:
    def test_scales_selected_links_and_revalidates(self):
        topology = build_testbed_topology()
        key = topology.links[0].key
        before = topology.link(*key).capacity_mbps
        degrade_link_capacities(topology, [key], 0.5)
        assert topology.link(*key).capacity_mbps == pytest.approx(before * 0.5)

    def test_rejects_bad_factor(self):
        topology = build_testbed_topology()
        with pytest.raises(ValueError, match="capacity_factor"):
            degrade_link_capacities(topology, [topology.links[0].key], 0.0)

    def test_rejects_unknown_link(self):
        topology = build_testbed_topology()
        with pytest.raises(KeyError):
            degrade_link_capacities(topology, [("nope", "nada")], 0.5)


class TestOracleProblem:
    def test_epoch_zero_problem_covers_active_requests(self):
        scenario = sample_scenario(TINY_FAMILY, seed=2)
        problem = problem_for_scenario(scenario)
        assert problem.num_tenants == len(scenario.workloads)

    def test_epoch_beyond_every_departure_rejected(self):
        scenario = sample_scenario(TINY_FAMILY, seed=2)
        with pytest.raises(ValueError, match="no active slice"):
            problem_for_scenario(scenario, epoch=scenario.num_epochs + 5)


class TestGeneratedCampaign:
    def test_policies_share_the_sampled_scenario(self):
        campaign = generated_campaign(TINY_FAMILY, num_scenarios=2, base_seed=3)
        result = campaign.run(cache_dir=None)
        rows = reduce_generated(result)
        assert len(rows) == 2
        for row in rows:
            assert set(row.net_revenue) == {"optimal", "no-overbooking"}
            assert row.fingerprint  # recorded for provenance
        # Paired comparison: same scenario_index resolves to one seed, so
        # both policy records carry the same sampled-scenario fingerprint.
        by_index: dict[int, set[str]] = {}
        for record in result.records:
            by_index.setdefault(int(record.spec.params["scenario_index"]), set()).add(
                record.extras["scenario_fingerprint"]
            )
        assert all(len(fingerprints) == 1 for fingerprints in by_index.values())

    def test_build_scenario_supports_generated_kind(self):
        scenario = build_scenario(
            {"scenario": "generated", "family": TINY_FAMILY.as_dict()}, seed=4
        )
        assert scenario.name == sample_scenario(TINY_FAMILY, seed=4).name

    def test_records_cache_and_resume(self, tmp_path):
        campaign = generated_campaign(TINY_FAMILY, num_scenarios=1, base_seed=3)
        first = campaign.run(cache_dir=tmp_path)
        assert first.num_executed == len(first.records)
        second = campaign.run(cache_dir=tmp_path)
        assert second.num_executed == 0
        assert second.num_cached == len(second.records)
        for a, b in zip(first.records, second.records):
            assert a.summary == pytest.approx(b.summary)

    def test_preset_name_lookup(self):
        campaign = generated_campaign("differential-small", num_scenarios=1)
        assert campaign.name == "generated-differential-small"
        with pytest.raises(KeyError, match="unknown scenario family"):
            generated_campaign("not-a-family")

    def test_invalid_num_scenarios_rejected(self):
        with pytest.raises(ValueError, match="num_scenarios"):
            generated_campaign(TINY_FAMILY, num_scenarios=0)

    def test_format_generated_reports_dominance(self):
        campaign = generated_campaign(TINY_FAMILY, num_scenarios=1, base_seed=3)
        rows = reduce_generated(campaign.run(cache_dir=None))
        text = format_generated(rows)
        assert "gain over no-overbooking" in text
        assert "sampled scenarios" in text


class TestCliRegistration:
    def test_generated_campaign_listed(self, capsys):
        from repro.experiments.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "generated" in out
