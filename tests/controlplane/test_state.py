"""Tests for the slice lifecycle registry."""

import pytest

from repro.controlplane.state import SliceRegistry, SliceState, SliceStateError
from repro.core.slices import EMBB_TEMPLATE, SliceRequest


def request(name="s", duration=4, arrival=0):
    return SliceRequest(
        name=name, template=EMBB_TEMPLATE, duration_epochs=duration, arrival_epoch=arrival
    )


class TestRegistration:
    def test_register_and_lookup(self):
        registry = SliceRegistry()
        record = registry.register(request())
        assert record.state is SliceState.REQUESTED
        assert "s" in registry
        assert registry.record("s") is record

    def test_duplicate_registration_rejected(self):
        registry = SliceRegistry()
        registry.register(request())
        with pytest.raises(SliceStateError):
            registry.register(request())


class TestTransitions:
    def test_admit_then_expire(self):
        registry = SliceRegistry()
        registry.register(request(duration=2))
        record = registry.mark_admitted("s", epoch=3, compute_unit="edge-cu", reservations_mbps={"bs-0": 10.0})
        assert record.state is SliceState.ADMITTED
        assert record.expires_at() == 5
        assert record.is_active(4)
        assert not record.is_active(5)
        expired = registry.expire_due(5)
        assert [r.name for r in expired] == ["s"]
        assert registry.record("s").state is SliceState.EXPIRED

    def test_readmission_keeps_original_epoch(self):
        registry = SliceRegistry()
        registry.register(request(duration=10))
        registry.mark_admitted("s", epoch=1, compute_unit="edge-cu", reservations_mbps={})
        registry.mark_admitted("s", epoch=5, compute_unit="core-cu", reservations_mbps={})
        assert registry.record("s").admitted_epoch == 1
        assert registry.record("s").compute_unit == "core-cu"

    def test_reject_requested(self):
        registry = SliceRegistry()
        registry.register(request())
        registry.mark_rejected("s")
        assert registry.record("s").state is SliceState.REJECTED

    def test_rejecting_admitted_slice_is_an_error(self):
        registry = SliceRegistry()
        registry.register(request())
        registry.mark_admitted("s", epoch=0, compute_unit="edge-cu", reservations_mbps={})
        with pytest.raises(SliceStateError):
            registry.mark_rejected("s")

    def test_admitting_expired_slice_is_an_error(self):
        registry = SliceRegistry()
        registry.register(request(duration=1))
        registry.mark_admitted("s", epoch=0, compute_unit="edge-cu", reservations_mbps={})
        registry.expire_due(10)
        with pytest.raises(SliceStateError):
            registry.mark_admitted("s", epoch=10, compute_unit="edge-cu", reservations_mbps={})


class TestQueries:
    def test_active_slices_and_counts(self):
        registry = SliceRegistry()
        registry.register(request(name="a", duration=5))
        registry.register(request(name="b", duration=5))
        registry.register(request(name="c"))
        registry.mark_admitted("a", epoch=0, compute_unit="edge-cu", reservations_mbps={})
        registry.mark_admitted("b", epoch=2, compute_unit="edge-cu", reservations_mbps={})
        registry.mark_rejected("c")
        active = {r.name for r in registry.active_slices(4)}
        assert active == {"a", "b"}
        active_late = {r.name for r in registry.active_slices(6)}
        assert active_late == {"b"}
        states = [registry.record(name).state for name in ("a", "b", "c")]
        assert states == [SliceState.ADMITTED, SliceState.ADMITTED, SliceState.REJECTED]
        assert registry.admitted_names() == ["a", "b"]


class TestRelease:
    def test_release_of_admitted_slice_reaches_terminal_state(self):
        registry = SliceRegistry()
        registry.register(request(name="s", duration=10))
        registry.mark_admitted("s", epoch=0, compute_unit="edge-cu", reservations_mbps={})
        record = registry.release("s")
        assert record.state is SliceState.EXPIRED
        assert registry.active_slices(1) == []
        # The terminal record can be renewed like a natural expiry.
        renewed = registry.renew(request(name="s", arrival=2))
        assert renewed.state is SliceState.REQUESTED
        assert registry.renewal_count("s") == 1

    def test_release_requires_admitted(self):
        registry = SliceRegistry()
        registry.register(request(name="s"))
        with pytest.raises(SliceStateError, match="release"):
            registry.release("s")
        registry.mark_rejected("s")
        with pytest.raises(SliceStateError, match="release"):
            registry.release("s")

    def test_release_of_unknown_name_is_a_key_error(self):
        with pytest.raises(KeyError):
            SliceRegistry().release("ghost")
