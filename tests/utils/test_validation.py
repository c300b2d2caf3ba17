"""Tests for the argument-validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    ensure_bool,
    ensure_choice,
    ensure_in_range,
    ensure_int_in_range,
    ensure_list,
    ensure_mapping,
    ensure_non_negative,
    ensure_non_negative_finite,
    ensure_non_negative_int,
    ensure_ordered_pair,
    ensure_positive,
    ensure_positive_count,
    ensure_positive_int,
    ensure_probability,
    ensure_scalar,
    ensure_str,
    ensure_text,
)


class TestEnsurePositive:
    def test_accepts_positive(self):
        assert ensure_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x"):
            ensure_positive(value, "x")


class TestEnsureNonNegative:
    def test_accepts_zero(self):
        assert ensure_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ensure_non_negative(-0.1, "x")

    @pytest.mark.parametrize("value", [0.0, -0.0, 2.5, float("inf")])
    def test_a_non_negative_float_is_returned_as_is(self, value):
        assert ensure_non_negative(value, "x").hex() == value.hex()

    @pytest.mark.parametrize("value", [float("nan"), float("-inf"), -1e-300])
    def test_a_nan_or_negative_float_is_refused(self, value):
        with pytest.raises(ValueError, match="x must be"):
            ensure_non_negative(value, "x")


class TestEnsureInRange:
    def test_accepts_bounds(self):
        assert ensure_in_range(0.0, 0.0, 1.0, "x") == 0.0
        assert ensure_in_range(1.0, 0.0, 1.0, "x") == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            ensure_in_range(1.1, 0.0, 1.0, "x")


class TestEnsureProbability:
    def test_accepts_half(self):
        assert ensure_probability(0.5, "p") == 0.5

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            ensure_probability(2.0, "p")


class TestUniformErrorContract:
    """Every helper raises ValueError whose message names the argument,
    states the admissible values and quotes what was received."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ensure_positive(-1.0, "alpha"),
            lambda: ensure_non_negative(-1.0, "alpha"),
            lambda: ensure_in_range(-1.0, 0.0, 1.0, "alpha"),
            lambda: ensure_probability(-1.0, "alpha"),
            lambda: ensure_positive_int(-1, "alpha"),
            lambda: ensure_non_negative_int(-1, "alpha"),
        ],
        ids=[
            "positive",
            "non_negative",
            "in_range",
            "probability",
            "positive_int",
            "non_negative_int",
        ],
    )
    def test_message_names_argument_and_value(self, call):
        with pytest.raises(ValueError) as excinfo:
            call()
        message = str(excinfo.value)
        assert "alpha" in message
        assert "-1" in message

    def test_in_range_message_states_the_bounds(self):
        with pytest.raises(ValueError, match=r"x must be in \[0\.0, 1\.0\], got 1\.5"):
            ensure_in_range(1.5, 0.0, 1.0, "x")

    @pytest.mark.parametrize("value", [None, "3", [], float("nan")])
    def test_non_numeric_inputs_raise_value_error_not_type_error(self, value):
        for helper in (ensure_positive, ensure_non_negative, ensure_probability):
            with pytest.raises(ValueError, match="x must be"):
                helper(value, "x")
        with pytest.raises(ValueError, match="x must be"):
            ensure_in_range(value, 0.0, 1.0, "x")

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ValueError, match="real number"):
            ensure_positive(True, "flag")

    def test_returns_are_floats(self):
        assert isinstance(ensure_in_range(1, 0, 2, "x"), float)
        assert isinstance(ensure_positive(2, "x"), float)


class TestEnsureInts:
    def test_accepts_integral_floats(self):
        assert ensure_positive_int(3.0, "n") == 3
        assert ensure_non_negative_int(0.0, "n") == 0

    @pytest.mark.parametrize("value", [0, -2, 2.5, "3", None, True])
    def test_positive_int_rejections(self, value):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            ensure_positive_int(value, "n")

    @pytest.mark.parametrize("value", [-1, 2.5, "3", None])
    def test_non_negative_int_rejections(self, value):
        with pytest.raises(ValueError, match="n must be a non-negative integer"):
            ensure_non_negative_int(value, "n")

    def test_an_integer_type_is_taken_whole_however_large(self):
        assert ensure_non_negative_int(2**53 + 1, "n") == 2**53 + 1
        assert type(ensure_positive_int(np.int64(4), "n")) is int
        assert ensure_non_negative_int(-0.0, "n") == 0

    def test_a_bounded_int(self):
        assert ensure_int_in_range(65535.0, 0, 65535, "port") == 65535
        for value in (-1, 65536, 2.5, True):
            with pytest.raises(ValueError, match=r"port must be an integer in \[0, 65535\]"):
                ensure_int_in_range(value, 0, 65535, "port")

    def test_a_count_is_of_an_integer_type(self):
        assert ensure_positive_count(12, "n") == 12
        assert type(ensure_positive_count(np.int32(3), "n")) is int

    @pytest.mark.parametrize("value", [0, -2, 12.0, np.float64(4.0), "3", None, True])
    def test_count_rejections(self, value):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            ensure_positive_count(value, "n")


class TestEnsureChoice:
    def test_accepts_member(self):
        assert ensure_choice("oracle", ("oracle", "online"), "mode") == "oracle"

    def test_rejects_non_member_with_choices_in_message(self):
        with pytest.raises(ValueError, match=r"mode must be one of \('oracle', 'online'\), got 'psychic'"):
            ensure_choice("psychic", ("oracle", "online"), "mode")


class TestEnsureOrderedPair:
    def test_accepts_lists_and_tuples(self):
        assert ensure_ordered_pair([1, 2], "r") == (1.0, 2.0)
        assert ensure_ordered_pair((0.5, 0.5), "r") == (0.5, 0.5)

    @pytest.mark.parametrize("value", [(2, 1), (1,), (1, 2, 3), "ab", 5, (0.0, float("nan"))])
    def test_rejections(self, value):
        with pytest.raises(ValueError, match="r"):
            ensure_ordered_pair(value, "r")

    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match=r"lie within"):
            ensure_ordered_pair((0.5, 1.5), "r", low=0.0, high=1.0)


class TestScenarioConstructorMessages:
    """The scenario layer surfaces the same uniform errors."""

    def test_scenario_rejects_bad_epoch_counts_with_value(self):
        from repro.simulation.scenario import homogeneous_scenario
        from repro.core.slices import EMBB_TEMPLATE

        with pytest.raises(ValueError, match="num_tenants must be a positive integer, got 0"):
            homogeneous_scenario(
                "swiss",
                EMBB_TEMPLATE,
                num_tenants=0,
                mean_load_fraction=0.5,
                num_base_stations=2,
            )

    def test_scenario_rejects_out_of_range_alpha_with_value(self):
        from repro.simulation.scenario import homogeneous_scenario
        from repro.core.slices import EMBB_TEMPLATE

        with pytest.raises(ValueError, match=r"mean_load_fraction must be in \[0\.0, 1\.0\], got 1\.2"):
            homogeneous_scenario(
                "swiss",
                EMBB_TEMPLATE,
                num_tenants=2,
                mean_load_fraction=1.2,
                num_base_stations=2,
            )

    def test_scenario_rejects_bad_forecast_mode_with_choices(self):
        from repro.simulation.scenario import testbed_scenario
        from dataclasses import replace

        scenario = testbed_scenario(num_epochs=2)
        with pytest.raises(ValueError, match="forecast_mode must be one of"):
            replace(scenario, forecast_mode="psychic")

    def test_duplicate_workload_names_are_listed(self):
        from dataclasses import replace
        from repro.simulation.scenario import testbed_scenario

        scenario = testbed_scenario(num_epochs=2)
        duplicated = scenario.workloads + (scenario.workloads[0],)
        with pytest.raises(ValueError, match=r"duplicates \['uRLLC1'\]"):
            replace(scenario, workloads=duplicated)


class TestNewRules:
    def test_text_is_a_non_empty_str(self):
        assert ensure_text("3", "name") == "3"
        for value in ("", 5, None, True, b"x"):
            with pytest.raises(ValueError, match="name must be a non-empty string"):
                ensure_text(value, "name")

    def test_a_finite_non_negative_real(self):
        assert ensure_non_negative_finite(np.float32(0.5), "m") == 0.5
        for value in (-0.5, float("inf"), float("nan"), 10**400, "1.5", True):
            with pytest.raises(ValueError, match="m must be"):
                ensure_non_negative_finite(value, "m")

    def test_an_open_interval(self):
        assert ensure_in_range(0.5, 0.0, 1.0, "f", closed=False) == 0.5
        for value in (0.0, 1.0, 10**400):
            with pytest.raises(ValueError, match=r"f must be in \(0.0, 1.0\)"):
                ensure_in_range(value, 0.0, 1.0, "f", closed=False)


class TestWireRules:
    def test_a_flag_is_a_bool(self):
        assert ensure_bool(np.bool_(False), "f") is False
        for value in ("False", 0, 1.0, None):
            with pytest.raises(ValueError, match="f must be a bool"):
                ensure_bool(value, "f")

    def test_any_str_takes_the_empty_string(self):
        assert ensure_str("", "s") == ""
        with pytest.raises(ValueError, match="s must be a string"):
            ensure_str(5, "s")

    def test_a_json_scalar(self):
        for value in (None, True, 2, 2.5, "x"):
            assert ensure_scalar(value, "v") is value
        for value in ([1], {"a": 1}, np.int64(2)):
            with pytest.raises(ValueError, match="v must be a JSON scalar"):
                ensure_scalar(value, "v")

    def test_a_list_is_not_a_string(self):
        assert ensure_list(("a",), "l") == ("a",)
        for value in ("ab", {"a": 1}, None):
            with pytest.raises(ValueError, match="l must be a list"):
                ensure_list(value, "l")

    def test_a_mapping_has_str_keys(self):
        assert ensure_mapping({"a": 1}, "m") == {"a": 1}
        for value in ({1: 2}, [("a", 1)], "a"):
            with pytest.raises(ValueError, match="m must be a mapping with str keys"):
                ensure_mapping(value, "m")
