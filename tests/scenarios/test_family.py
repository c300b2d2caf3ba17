"""Unit tests for the scenario-family declaration layer."""

import pytest

from repro.scenarios.family import FAMILIES, ScenarioFamily


class TestValidation:
    def test_defaults_are_valid(self):
        family = ScenarioFamily()
        assert family.name == "default"

    def test_unknown_operator_profile_rejected(self):
        with pytest.raises(ValueError, match="operator_profiles"):
            ScenarioFamily(operator_profiles=("atlantis",))

    def test_unknown_redundancy_level_rejected(self):
        with pytest.raises(ValueError, match="redundancy_levels"):
            ScenarioFamily(redundancy_levels=("extreme",))

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError, match="num_tenants"):
            ScenarioFamily(num_tenants=(5, 2))

    def test_non_integer_count_range_rejected(self):
        with pytest.raises(ValueError, match="num_base_stations"):
            ScenarioFamily(num_base_stations=(1.5, 3))

    def test_unknown_template_rejected(self):
        with pytest.raises(ValueError, match="template_weights"):
            ScenarioFamily(template_weights=(("holo", 1.0),))

    def test_negative_template_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ScenarioFamily(template_weights=(("eMBB", -1.0),))

    def test_zero_total_template_weight_rejected(self):
        with pytest.raises(ValueError, match="positive total weight"):
            ScenarioFamily(template_weights=(("eMBB", 0.0),))

    def test_regime_probabilities_must_fit_in_one(self):
        with pytest.raises(ValueError, match="must not exceed 1"):
            ScenarioFamily(seasonal_probability=0.7, bursty_probability=0.7)

    def test_load_range_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="mean_load_fraction"):
            ScenarioFamily(mean_load_fraction=(0.5, 1.5))

    def test_bad_forecast_mode_rejected(self):
        with pytest.raises(ValueError, match="forecast_mode"):
            ScenarioFamily(forecast_mode="psychic")


class TestSerialisation:
    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario-family fields"):
            ScenarioFamily.from_dict({"name": "x", "warp_factor": 9})

    def test_as_dict_round_trip_preserves_hash(self):
        family = FAMILIES["mixed-churn"]
        assert ScenarioFamily.from_dict(family.as_dict()).family_hash == family.family_hash

    def test_hash_is_content_sensitive(self):
        a = ScenarioFamily(name="a")
        b = ScenarioFamily(name="a", samples_per_epoch=9)
        assert a.family_hash != b.family_hash
