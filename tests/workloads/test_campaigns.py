"""The ``trace-replay`` run kind through the campaign machinery and CLI.

The run kind must be lazily resolvable (registered via
``_RUN_KIND_MODULES``), content-addressed-cacheable like every other kind,
and reachable from ``python -m repro.experiments run trace-replay``.
"""

from __future__ import annotations

import io

import pytest

from repro.experiments.campaign import RunSpec, execute_spec
from repro.experiments.cli import CAMPAIGNS, main
from repro.workloads.campaigns import (
    CITY_TRACE,
    QUICK_TRACE,
    format_trace_replay,
    reduce_trace_replay,
    trace_replay_campaign,
)
from repro.workloads.catalogue import CITY_CATALOGUE
from repro.workloads.replay import ColumnarReplayEngine
from repro.workloads.trace import TraceSpec

pytestmark = pytest.mark.workloads


def tiny_trace() -> TraceSpec:
    return TraceSpec(
        name="tiny",
        catalogue=CITY_CATALOGUE,
        horizon_epochs=12,
        arrival_rate=4.0,
        renewal_probability=0.2,
        aggregate_capacity_mbps=10_000.0,
    )


class TestRunKind:
    def test_execute_spec_resolves_trace_replay_lazily(self):
        spec = RunSpec(
            experiment="t",
            kind="trace-replay",
            params={"trace": tiny_trace().to_dict()},
            seed=7,
        )
        record = execute_spec(spec)
        assert record.summary["epochs"] == 12
        assert record.summary["total_arrivals"] >= 0
        assert record.extras["trace"] == "tiny"
        assert set(record.extras["series"]) == {
            "live", "admitted", "rejected", "occupancy_mbps", "revenue_rate"
        }

    def test_run_matches_direct_engine(self):
        trace = tiny_trace()
        spec = RunSpec(
            experiment="t",
            kind="trace-replay",
            params={"trace": trace.to_dict()},
            seed=7,
        )
        record = execute_spec(spec)
        direct = ColumnarReplayEngine(trace, seed=7).run()
        assert record.summary == direct.summary()
        assert record.extras["stream_fingerprint"] == direct.stream_fingerprint


class TestCampaign:
    def test_caches_and_resumes(self, tmp_path):
        campaign = trace_replay_campaign(tiny_trace(), num_replays=2)
        first = campaign.run(cache_dir=tmp_path)
        assert (first.num_executed, first.num_cached) == (2, 0)
        second = campaign.run(cache_dir=tmp_path)
        assert (second.num_executed, second.num_cached) == (0, 2)
        assert [r.as_dict() for r in first.records] == [
            r.as_dict() for r in second.records
        ]

    def test_specs_carry_only_the_trace_and_the_replay_index(self):
        # The cache key is a function of these params: a replay is
        # determined by its trace and seed, and nothing else enters it.
        trace = tiny_trace()
        campaign = trace_replay_campaign(trace, num_replays=2)
        assert [spec.params for spec in campaign.specs] == [
            {"trace": trace.to_dict(), "replay_index": index} for index in range(2)
        ]

    def test_replays_draw_independent_seeds(self):
        campaign = trace_replay_campaign(tiny_trace(), num_replays=3)
        seeds = [spec.seed for spec in campaign.resolved_specs()]
        assert len(set(seeds)) == 3

    def test_reduce_and_format(self, tmp_path):
        campaign = trace_replay_campaign(tiny_trace(), num_replays=2)
        rows = reduce_trace_replay(campaign.run(cache_dir=tmp_path))
        assert [row.replay_index for row in rows] == [0, 1]
        rendered = format_trace_replay(rows)
        assert "replay 0" in rendered
        assert "min peak live across replays" in rendered

    def test_presets_are_wire_stable(self):
        for preset in (QUICK_TRACE, CITY_TRACE):
            assert TraceSpec.from_dict(preset.to_dict()) == preset
        assert CITY_TRACE.arrival_rate >= 100 * QUICK_TRACE.arrival_rate


class TestCli:
    def test_list_includes_trace_replay(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        assert "trace-replay" in out.getvalue()

    def test_registered_entry_builds_quick_campaign(self):
        campaign, render = CAMPAIGNS["trace-replay"].build(False)
        assert campaign.name == f"trace-replay-{QUICK_TRACE.name}"
        assert all(spec.kind == "trace-replay" for spec in campaign.specs)

    def test_full_profile_uses_city_trace(self):
        campaign, _ = CAMPAIGNS["trace-replay"].build(True)
        assert campaign.name == f"trace-replay-{CITY_TRACE.name}"

    @pytest.mark.parametrize("full, trace", [(False, QUICK_TRACE), (True, CITY_TRACE)])
    def test_each_profile_replays_its_trace_twice(self, full, trace):
        campaign, _ = CAMPAIGNS["trace-replay"].build(full)
        assert [spec.params for spec in campaign.specs] == [
            {"trace": trace.to_dict(), "replay_index": index} for index in range(2)
        ]

    def test_run_command_renders_summary(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["run", "trace-replay", "--cache-dir", str(tmp_path)], out=out
        )
        assert code == 0
        assert "min peak live across replays" in out.getvalue()
