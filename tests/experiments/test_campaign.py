"""Tests for the campaign layer: specs, hashing, caching, resumability, CLI."""

from __future__ import annotations

import io
import json

import pytest

from repro.experiments.campaign import (
    Campaign,
    RunRecord,
    RunSpec,
    RunStore,
    build_scenario,
    execute_spec,
    expand_grid,
    register_run_kind,
)
from repro.experiments.cli import main as cli_main
from repro.utils.executors import (
    ProcessPoolRunExecutor,
    SerialExecutor,
    default_executor,
    resolve_executor,
)
from repro.utils.rng import derive_spec_seed, spec_hash


@register_run_kind("flaky-test-kind")
def _flaky_run_kind(spec: RunSpec) -> dict:
    if spec.params["boom"]:
        raise RuntimeError("boom")
    return {"summary": {"ok": 1.0}}


def tiny_sim_spec(policy="optimal", alpha=0.3, seed=1, **overrides) -> RunSpec:
    params = {
        "scenario": "homogeneous",
        "operator": "romanian",
        "slice_type": "eMBB",
        "alpha": alpha,
        "relative_std": 0.25,
        "penalty_factor": 1.0,
        "num_tenants": 3,
        "num_epochs": 2,
        "num_base_stations": 2,
    }
    params.update(overrides)
    return RunSpec(
        experiment="test", kind="simulation", params=params, policy=policy, seed=seed
    )


class TestSpecHashing:
    def test_hash_is_stable_and_content_addressed(self):
        spec = tiny_sim_spec()
        same = tiny_sim_spec()
        assert spec.run_id == same.run_id
        assert len(spec.run_id) == 64  # sha256 hex

    def test_hash_depends_on_params_policy_seed_and_stop_flag(self):
        base = tiny_sim_spec()
        assert tiny_sim_spec(alpha=0.4).run_id != base.run_id
        assert tiny_sim_spec(policy="kac").run_id != base.run_id
        assert tiny_sim_spec(seed=2).run_id != base.run_id
        stopped = RunSpec(
            **{**base.as_dict(), "stop_on_converged_revenue": True}
        )
        assert stopped.run_id != base.run_id

    def test_tuple_and_list_params_hash_identically(self):
        assert spec_hash({"a": (1, 2)}) == spec_hash({"a": [1, 2]})

    def test_key_order_is_irrelevant(self):
        assert spec_hash({"a": 1, "b": 2}) == spec_hash({"b": 2, "a": 1})

    def test_unhashable_values_raise(self):
        with pytest.raises(TypeError):
            spec_hash({"a": object()})

    def test_scenario_identity_excludes_policy_and_stop_rule(self):
        optimal = tiny_sim_spec(policy="optimal")
        baseline = tiny_sim_spec(policy="no-overbooking")
        assert optimal.scenario_identity() == baseline.scenario_identity()

    def test_derived_seeds_pair_policies_but_separate_grid_points(self):
        optimal = tiny_sim_spec(policy="optimal")
        baseline = tiny_sim_spec(policy="no-overbooking")
        other_point = tiny_sim_spec(alpha=0.6)
        seed_a = derive_spec_seed(99, optimal.scenario_identity())
        seed_b = derive_spec_seed(99, baseline.scenario_identity())
        seed_c = derive_spec_seed(99, other_point.scenario_identity())
        assert seed_a == seed_b
        assert seed_a != seed_c

    def test_campaign_resolves_none_seeds_from_base_seed(self):
        specs = (
            RunSpec(
                experiment="test",
                kind="simulation",
                params=tiny_sim_spec().params,
                policy="optimal",
            ),
            RunSpec(
                experiment="test",
                kind="simulation",
                params=tiny_sim_spec().params,
                policy="no-overbooking",
            ),
        )
        campaign = Campaign(name="test", specs=specs, base_seed=42)
        resolved = campaign.resolved_specs()
        assert resolved[0].seed is not None
        assert resolved[0].seed == resolved[1].seed  # paired comparison

    def test_duplicate_specs_rejected(self):
        spec = tiny_sim_spec()
        with pytest.raises(ValueError, match="duplicate"):
            Campaign(name="dup", specs=(spec, spec))


class TestExpandGrid:
    def test_row_major_nested_loop_order(self):
        points = expand_grid({"a": (1, 2), "b": ("x", "y")})
        assert points == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_empty_axis_gives_no_points(self):
        assert expand_grid({"a": (), "b": (1,)}) == []


class TestScenarioBuilder:
    def test_homogeneous_matches_direct_constructor(self):
        from repro.core.slices import TEMPLATES
        from repro.simulation.scenario import homogeneous_scenario

        spec = tiny_sim_spec()
        built = build_scenario(spec.params, seed=spec.seed)
        direct = homogeneous_scenario(
            operator="romanian",
            template=TEMPLATES["eMBB"],
            num_tenants=3,
            mean_load_fraction=0.3,
            relative_std=0.25,
            penalty_factor=1.0,
            num_epochs=2,
            num_base_stations=2,
            seed=1,
        )
        assert built.name == direct.name
        assert [w.name for w in built.workloads] == [w.name for w in direct.workloads]

    def test_unknown_scenario_kind_raises(self):
        with pytest.raises(KeyError, match="unknown scenario kind"):
            build_scenario({"scenario": "nope"}, seed=1)

    def test_unknown_run_kind_raises(self):
        spec = RunSpec(experiment="x", kind="not-a-kind", params={})
        with pytest.raises(KeyError, match="unknown run kind"):
            execute_spec(spec)


class TestRunStoreAndResume:
    def test_run_persists_and_resumes(self, tmp_path):
        campaign = Campaign(
            name="test",
            specs=(tiny_sim_spec("no-overbooking"), tiny_sim_spec("optimal")),
        )
        first = campaign.run(cache_dir=tmp_path)
        assert (first.num_executed, first.num_cached) == (2, 0)
        second = campaign.run(cache_dir=tmp_path)
        assert (second.num_executed, second.num_cached) == (0, 2)
        assert [r.as_dict() for r in first.records] == [
            r.as_dict() for r in second.records
        ]

    def test_partial_cache_runs_only_missing(self, tmp_path):
        baseline_only = Campaign(name="test", specs=(tiny_sim_spec("no-overbooking"),))
        baseline_only.run(cache_dir=tmp_path)
        both = Campaign(
            name="test",
            specs=(tiny_sim_spec("no-overbooking"), tiny_sim_spec("optimal")),
        )
        result = both.run(cache_dir=tmp_path)
        assert (result.num_executed, result.num_cached) == (1, 1)

    def test_force_reexecutes_everything(self, tmp_path):
        campaign = Campaign(name="test", specs=(tiny_sim_spec(),))
        campaign.run(cache_dir=tmp_path)
        forced = campaign.run(cache_dir=tmp_path, force=True)
        assert forced.num_executed == 1

    def test_no_cache_dir_runs_everything_and_writes_nothing(self, tmp_path):
        campaign = Campaign(name="test", specs=(tiny_sim_spec(),))
        result = campaign.run(cache_dir=None)
        assert result.num_executed == 1
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_record_is_reexecuted(self, tmp_path):
        spec = tiny_sim_spec()
        campaign = Campaign(name="test", specs=(spec,))
        campaign.run(cache_dir=tmp_path)
        store = RunStore(tmp_path)
        store.path_for(spec).write_text("{ not json")
        result = campaign.run(cache_dir=tmp_path)
        assert result.num_executed == 1
        # ... and the repaired record is valid again.
        assert store.load(spec) is not None

    def test_record_with_mismatched_spec_is_ignored(self, tmp_path):
        spec = tiny_sim_spec()
        other = tiny_sim_spec(alpha=0.7)
        record = execute_spec(other)
        store = RunStore(tmp_path)
        payload = record.as_dict()
        store.path_for(spec).parent.mkdir(parents=True)
        store.path_for(spec).write_text(json.dumps(payload))
        assert store.load(spec) is None

    def test_tuple_valued_params_hit_the_cache(self, tmp_path):
        # Tuples JSON-round-trip as lists; the spec's as_dict normalisation
        # must make the loaded record match, or every re-run silently
        # re-executes (regression test).
        spec = tiny_sim_spec(tags=("a", "b"))
        campaign = Campaign(name="test", specs=(spec,))
        assert campaign.run(cache_dir=tmp_path).num_executed == 1
        resumed = campaign.run(cache_dir=tmp_path)
        assert (resumed.num_executed, resumed.num_cached) == (0, 1)

    def test_interrupted_sweep_keeps_completed_records(self, tmp_path):
        # A failing run aborts the sweep, but everything that completed
        # before it must already be persisted (incremental saves).
        ok = RunSpec(experiment="test", kind="flaky-test-kind", params={"boom": False})
        bad = RunSpec(experiment="test", kind="flaky-test-kind", params={"boom": True})
        campaign = Campaign(name="test", specs=(ok, bad))
        with pytest.raises(RuntimeError, match="boom"):
            campaign.run(cache_dir=tmp_path)
        assert RunStore(tmp_path).load(ok) is not None
        status = campaign.status(cache_dir=tmp_path)
        assert (status.cached, status.missing) == (1, 1)

    def test_pool_failure_still_persists_completed_runs(self, tmp_path):
        # Pool mode drains completed futures before re-raising a failure,
        # so sibling runs that finished are persisted for the resume.
        # The bad spec fails inside the worker (unknown scenario kind).
        from repro.utils.executors import ProcessPoolRunExecutor

        good = [tiny_sim_spec("no-overbooking"), tiny_sim_spec("optimal")]
        bad = tiny_sim_spec(scenario="not-a-scenario")
        campaign = Campaign(name="test", specs=(bad, *good))
        with pytest.raises(KeyError, match="unknown scenario kind"):
            campaign.run(
                cache_dir=tmp_path, executor=ProcessPoolRunExecutor(max_workers=2)
            )
        store = RunStore(tmp_path)
        assert all(store.load(spec) is not None for spec in good)
        resumed = Campaign(name="test", specs=tuple(good)).run(cache_dir=tmp_path)
        assert resumed.num_executed == 0

    def test_status_counts_cached_runs(self, tmp_path):
        campaign = Campaign(
            name="test",
            specs=(tiny_sim_spec("no-overbooking"), tiny_sim_spec("optimal")),
        )
        assert campaign.status(cache_dir=tmp_path).cached == 0
        Campaign(name="test", specs=(tiny_sim_spec("optimal"),)).run(
            cache_dir=tmp_path
        )
        status = campaign.status(cache_dir=tmp_path)
        assert (status.total, status.cached, status.missing) == (2, 1, 1)

    def test_record_roundtrips_through_json(self):
        record = execute_spec(tiny_sim_spec())
        payload = json.loads(json.dumps(record.as_dict()))
        restored = RunRecord.from_dict(payload)
        assert restored.spec == record.spec
        assert restored.summary == dict(record.summary)

    def test_unsupported_schema_rejected(self):
        record = execute_spec(tiny_sim_spec())
        payload = record.as_dict()
        payload["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            RunRecord.from_dict(payload)


class TestExecutorSelection:
    def test_default_executor_serial_below_two_workers(self):
        assert isinstance(default_executor(None), SerialExecutor)
        assert isinstance(default_executor(1), SerialExecutor)
        assert isinstance(default_executor(4), ProcessPoolRunExecutor)

    def test_resolve_prefers_explicit_executor(self):
        explicit = SerialExecutor()
        assert resolve_executor(explicit, workers=8) is explicit

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolRunExecutor(max_workers=0)

    def test_pool_repr_names_its_size(self):
        # The CLI prints the executor after a run.
        assert repr(ProcessPoolRunExecutor(max_workers=3)) == "ProcessPoolRunExecutor(max_workers=3)"


class TestCli:
    def test_list_names_all_campaigns(self):
        out = io.StringIO()
        assert cli_main(["list"], out=out) == 0
        text = out.getvalue()
        for name in ("fig4", "fig5", "fig6", "fig8", "sla", "solver-ablation"):
            assert name in text

    def test_run_then_status_reports_cached(self, tmp_path):
        out = io.StringIO()
        code = cli_main(
            ["--cache-dir", str(tmp_path), "run", "sla", "--no-render"], out=out
        )
        assert code == 0
        assert "2 executed, 0 cached" in out.getvalue()

        out = io.StringIO()
        cli_main(["--cache-dir", str(tmp_path), "run", "sla", "--no-render"], out=out)
        assert "0 executed, 2 cached" in out.getvalue()
        assert "all runs cached" in out.getvalue()

        out = io.StringIO()
        cli_main(["--cache-dir", str(tmp_path), "status", "sla"], out=out)
        assert "2/2" in out.getvalue()

    def test_run_renders_reduced_figure(self, tmp_path):
        out = io.StringIO()
        cli_main(["--cache-dir", str(tmp_path), "run", "sla"], out=out)
        assert "violations=" in out.getvalue()

    def test_unknown_campaign_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["--cache-dir", str(tmp_path), "run", "not-a-campaign"])
