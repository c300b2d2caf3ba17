"""Tests for the slice manager intake queue and descriptors."""

import pytest

from repro.api.errors import ValidationError
from repro.api.wire import decode, encode
from repro.controlplane.slice_manager import SliceDescriptor, SliceManager
from repro.core.slices import MMTC_TEMPLATE, SliceRequest


def request(name, arrival=0):
    return SliceRequest(
        name=name, template=MMTC_TEMPLATE, arrival_epoch=arrival, penalty_factor=2.0
    )


class TestDescriptor:
    def test_from_request_carries_sla(self):
        descriptor = SliceDescriptor.from_request(request("a"))
        assert descriptor.slice_type == "mMTC"
        assert descriptor.sla_mbps == 10.0
        assert descriptor.compute_model["cpus_per_mbps"] == 2.0
        assert descriptor.penalty_factor == 2.0

    def test_wire_encoding(self):
        descriptor = SliceDescriptor.from_request(request("a"))
        data = encode(descriptor)
        assert data["slice_name"] == "a"
        assert data["compute_model"]["baseline_cpus"] == 0.0

    def test_decode_inverts_encode(self):
        descriptor = SliceDescriptor.from_request(request("a"))
        assert decode(SliceDescriptor, encode(descriptor)) == descriptor

    def test_decode_missing_field(self):
        payload = encode(SliceDescriptor.from_request(request("a")))
        del payload["duration_epochs"]
        with pytest.raises(ValidationError, match="duration_epochs"):
            decode(SliceDescriptor, payload)


class TestQueue:
    def test_submit_and_collect(self):
        manager = SliceManager()
        manager.submit(request("a", arrival=0))
        manager.submit(request("b", arrival=2))
        assert manager.pending_count == 2
        due_now = manager.collect_for_epoch(0)
        assert [r.name for r in due_now] == ["a"]
        assert manager.pending_count == 1
        assert manager.collect_for_epoch(1) == []
        due_later = manager.collect_for_epoch(2)
        assert [r.name for r in due_later] == ["b"]

    def test_duplicate_submission_rejected(self):
        manager = SliceManager()
        manager.submit(request("a"))
        with pytest.raises(ValueError):
            manager.submit(request("a"))

    def test_pending_count_is_a_property(self):
        # Regression guard: pending_count is a stateless getter exposed as a
        # property, not a method.
        assert isinstance(SliceManager.pending_count, property)
        assert SliceManager().pending_count == 0

    def test_pending_requests_snapshot(self):
        manager = SliceManager()
        manager.submit(request("a"))
        manager.submit(request("b", arrival=3))
        assert [r.name for r in manager.pending_requests] == ["a", "b"]
        assert manager.pending_request("b").arrival_epoch == 3
        assert manager.pending_request("ghost") is None

    def test_withdraw(self):
        manager = SliceManager()
        manager.submit(request("a"))
        manager.submit(request("b"))
        withdrawn = manager.withdraw("a")
        assert withdrawn.name == "a"
        assert manager.pending_count == 1
        with pytest.raises(KeyError):
            manager.withdraw("a")
        # A withdrawn name may be re-submitted.
        manager.submit(request("a"))
        assert manager.pending_count == 2
