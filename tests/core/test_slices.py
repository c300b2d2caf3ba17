"""Tests for slice templates and requests (Table 1)."""

import math

import pytest

from repro.core.slices import (
    EMBB_TEMPLATE,
    MMTC_TEMPLATE,
    TEMPLATES,
    URLLC_TEMPLATE,
    SliceRequest,
    SliceTemplate,
    make_requests,
)


class TestTable1Templates:
    def test_embb_row(self):
        assert EMBB_TEMPLATE.reward == 1.0
        assert EMBB_TEMPLATE.latency_tolerance_ms == 30.0
        assert EMBB_TEMPLATE.sla_mbps == 50.0
        assert EMBB_TEMPLATE.compute_cpus(100.0) == 0.0  # s = {0, 0}

    def test_mmtc_row(self):
        assert MMTC_TEMPLATE.reward == pytest.approx(3.0)  # 1 + b with b = 2
        assert MMTC_TEMPLATE.sla_mbps == 10.0
        assert MMTC_TEMPLATE.default_relative_std == 0.0
        assert MMTC_TEMPLATE.compute_cpus(10.0) == pytest.approx(20.0)

    def test_urllc_row(self):
        assert URLLC_TEMPLATE.reward == pytest.approx(2.2)  # 2 + b with b = 0.2
        assert URLLC_TEMPLATE.latency_tolerance_ms == 5.0
        assert URLLC_TEMPLATE.sla_mbps == 25.0
        assert URLLC_TEMPLATE.compute_cpus(URLLC_TEMPLATE.sla_mbps) == pytest.approx(5.0)

    def test_registry_contains_all_types(self):
        assert set(TEMPLATES) == {"eMBB", "mMTC", "uRLLC"}

    @pytest.mark.parametrize("field, value", [
        ("reward", 0.0),
        ("reward", math.inf),
        ("sla_mbps", math.inf),
        ("latency_tolerance_ms", math.inf),
        ("compute_baseline_cpus", math.inf),
        ("compute_cpus_per_mbps", math.nan),
    ])
    def test_template_validation(self, field, value):
        fields = dict(
            name="bad",
            reward=1.0,
            latency_tolerance_ms=10.0,
            sla_mbps=10.0,
            compute_baseline_cpus=0.0,
            compute_cpus_per_mbps=0.0,
        )
        with pytest.raises(ValueError, match=field):
            SliceTemplate(**{**fields, field: value})

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            EMBB_TEMPLATE.compute_cpus(-1.0)


class TestSliceRequest:
    def test_penalty_rate_definition(self):
        request = SliceRequest(name="t", template=EMBB_TEMPLATE, penalty_factor=4.0)
        # K = m * R / Lambda.
        assert request.penalty_rate_per_mbps == pytest.approx(4.0 * 1.0 / 50.0)

    def test_ten_percent_shortfall_costs_ten_percent_of_reward(self):
        request = SliceRequest(name="t", template=EMBB_TEMPLATE, penalty_factor=1.0)
        shortfall = 0.1 * request.sla_mbps
        assert request.penalty_rate_per_mbps * shortfall == pytest.approx(0.1 * request.reward)

    def test_activity_window(self):
        request = SliceRequest(
            name="t", template=EMBB_TEMPLATE, duration_epochs=4, arrival_epoch=2
        )
        assert not request.is_active(1)
        assert request.is_active(2)
        assert request.is_active(5)
        assert not request.is_active(6)
        assert request.expires_at() == 6

    def test_as_committed(self):
        request = SliceRequest(name="t", template=EMBB_TEMPLATE)
        committed = request.as_committed()
        assert committed.committed and not request.committed
        assert committed.name == request.name

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            SliceRequest(name="t", template=EMBB_TEMPLATE, duration_epochs=0)

    def test_invalid_arrival(self):
        with pytest.raises(ValueError):
            SliceRequest(name="t", template=EMBB_TEMPLATE, arrival_epoch=-1)

    @pytest.mark.parametrize("penalty", [-1.0, math.inf, math.nan])
    def test_invalid_penalty(self, penalty):
        with pytest.raises(ValueError, match="penalty_factor"):
            SliceRequest(name="t", template=EMBB_TEMPLATE, penalty_factor=penalty)


class TestMakeRequests:
    def test_names_are_unique(self):
        requests = make_requests(EMBB_TEMPLATE, 5)
        assert len({r.name for r in requests}) == 5

    def test_prefix(self):
        requests = make_requests(URLLC_TEMPLATE, 2, prefix="tenant")
        assert requests[0].name == "tenant-0"

    def test_zero_count(self):
        assert make_requests(EMBB_TEMPLATE, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            make_requests(EMBB_TEMPLATE, -1)
