"""Property: campaign execution is executor-invariant.

The same grid run serially and through the process-pool executor must yield
identical run records.  This exercises the cross-process determinism the
campaign layer is built on: per-run seeds derive via
``repro.utils.rng.derive_seed`` (CRC32-based since PR 1, so unaffected by
per-process hash salting) and run kinds are pure functions of their spec.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.benders import BendersSolver
from repro.experiments.campaign import Campaign
from repro.experiments.fig5_homogeneous import fig5_campaign
from repro.scenarios import DIFFERENTIAL_FAMILY, problem_for_scenario, sample_scenario

pytestmark = pytest.mark.slow


def _record_dicts(result):
    return [record.as_dict() for record in result.records]


def small_grid_campaign(policies: tuple[str, ...] = ("optimal",)) -> Campaign:
    return fig5_campaign(
        operators=("romanian",),
        slice_types=("eMBB", "mMTC"),
        alphas=(0.2, 0.6),
        relative_stds=(0.25,),
        penalty_factors=(1.0,),
        policies=policies,
        num_base_stations=3,
        num_tenants={"romanian": 4},
        num_epochs=2,
        seed=5,
    )


class TestExecutorInvariance:
    def test_serial_and_process_pool_records_identical(self):
        campaign = small_grid_campaign()
        serial = campaign.run()
        pooled = campaign.run(workers=2)
        assert _record_dicts(serial) == _record_dicts(pooled)

    def test_pool_filled_cache_is_valid_for_serial_resume(self, tmp_path):
        campaign = small_grid_campaign()
        pooled = campaign.run(cache_dir=tmp_path, workers=2)
        assert pooled.num_executed == len(campaign.specs)
        resumed = campaign.run(cache_dir=tmp_path)
        assert resumed.num_executed == 0
        assert _record_dicts(resumed) == _record_dicts(pooled)

    def test_derived_seed_campaign_is_executor_invariant(self):
        # Seeds resolved from the campaign base seed (spec.seed=None) must
        # derive identically in whichever process executes the run.
        campaign = small_grid_campaign()
        derived = Campaign(
            name=campaign.name,
            specs=tuple(
                spec.__class__(**{**spec.as_dict(), "seed": None})
                for spec in campaign.specs
            ),
            base_seed=77,
        )
        serial = derived.run()
        pooled = derived.run(workers=2)
        assert _record_dicts(serial) == _record_dicts(pooled)

    def test_benders_campaign_forked_after_a_parent_solve(self):
        # A Benders solve in the parent starts its pricing helper thread.  A
        # forked worker inherits that executor but not its thread, so it
        # must build its own helper instead of queueing work nobody runs.
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pins what a forked child inherits")
        problem = problem_for_scenario(sample_scenario(DIFFERENTIAL_FAMILY, seed=0))
        BendersSolver().solve(problem)
        campaign = small_grid_campaign(policies=("benders",))
        serial = campaign.run()
        pooled = campaign.run(workers=2)
        assert _record_dicts(serial) == _record_dicts(pooled)
