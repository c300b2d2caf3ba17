"""Mid-epoch link failures: displaced slices re-home via the renewal path."""

from __future__ import annotations

import pytest

from repro.api import SliceBroker, SliceRequestV1, ValidationError
from repro.core.forecast_inputs import ForecastInput
from repro.core.milp_solver import DirectMILPSolver
from repro.faults import HOOK_TOPOLOGY, FaultKind, FaultPlan, FaultSpec
from tests.conftest import build_tiny_topology

#: Factor severe enough that 1000 Mbps links keep ~1 Mbps: any slice with a
#: transport reservation on a failed link is guaranteed displaced.
OUTAGE_FACTOR = 0.001


def make_broker() -> SliceBroker:
    return SliceBroker(topology=build_tiny_topology(), solver=DirectMILPSolver())


def admit_one(broker: SliceBroker, duration: int = 6) -> None:
    request = SliceRequestV1.of("u1", "eMBB", duration_epochs=duration)
    broker.submit(request)
    sla = request.to_request().sla_mbps
    broker.set_forecast_override(
        "u1", ForecastInput(lambda_hat_mbps=0.2 * sla, sigma_hat=0.2)
    )
    report = broker.advance_epoch(0)
    assert report.accepted == ("u1",)


def all_link_keys(broker: SliceBroker) -> list[tuple[str, str]]:
    return [link.key for link in broker.orchestrator.topology.links]


class TestInjectedLinkFailure:
    def test_displaced_slice_is_rehomed_through_the_renewal_path(self):
        broker = make_broker()
        admit_one(broker)
        broker.inject_link_failure(all_link_keys(broker), OUTAGE_FACTOR)
        report = broker.advance_epoch(1)

        assert report.rehomed == ("u1",)
        assert report.degraded
        assert any("re-homed" in reason for reason in report.degraded_reasons)
        registry = broker.orchestrator.registry
        assert registry.renewal_count("u1") == 1
        record = registry.record("u1")
        assert record.request.metadata["rehomed_at_epoch"] == 1
        # The re-homed renewal got a same-epoch verdict; either way the
        # registry stays coherent and queryable.
        assert broker.status("u1").state in {"admitted", "rejected"}

    def test_rehomed_slice_with_a_later_renewal_reports_expired(self):
        # Re-homing ends the old life like a natural expiry, not like a
        # tenant release; the renewal the tenant pre-booked keeps its slot.
        broker = make_broker()
        admit_one(broker)
        broker.submit(SliceRequestV1.of("u1", "eMBB", duration_epochs=2, arrival_epoch=6))
        broker.inject_link_failure(all_link_keys(broker), OUTAGE_FACTOR)
        report = broker.advance_epoch(1)
        assert report.rehomed == ("u1",)
        assert broker.orchestrator.registry.renewal_count("u1") == 0
        assert broker.status("u1").state == "queued"  # the booked renewal waits
        broker.release("u1", epoch=1)  # cancel it
        assert broker.status("u1").state == "expired"

    def test_mild_degradation_does_not_displace_anyone(self):
        broker = make_broker()
        admit_one(broker)
        broker.inject_link_failure([("bs-0", "sw")], 0.9)
        report = broker.advance_epoch(1)
        assert report.rehomed == ()
        assert broker.status("u1").state == "admitted"
        # The capacity loss itself persists in the topology.
        link = broker.orchestrator.topology.link("bs-0", "sw")
        assert link.capacity_mbps == pytest.approx(900.0)

    def test_unknown_link_is_a_validation_error(self):
        broker = make_broker()
        with pytest.raises(ValidationError, match="invalid link failure"):
            broker.inject_link_failure([("bs-0", "nowhere")], 0.5)
        with pytest.raises(ValidationError):
            broker.inject_link_failure([("bs-0", "sw")], 1.5)

    def test_rehomed_capacity_returns_on_the_next_solve(self):
        # After the outage epoch, later epochs keep running on the damaged
        # network: the re-homed slice's renewal verdict stays stable and no
        # further re-homing happens without further damage.
        broker = make_broker()
        admit_one(broker)
        broker.inject_link_failure(all_link_keys(broker), OUTAGE_FACTOR)
        broker.advance_epoch(1)
        report = broker.advance_epoch(2)
        assert report.rehomed == ()
        assert not any("re-homed" in r for r in report.degraded_reasons)


class TestPlannedLinkFaults:
    def test_link_down_plan_drives_the_same_renewal_path(self):
        broker = make_broker()
        plan = FaultPlan.of(
            FaultSpec(
                hook=HOOK_TOPOLOGY,
                epoch=1,
                kind=FaultKind.LINK_DOWN,
                params={"factor": OUTAGE_FACTOR, "fraction": 1.0},
            )
        )
        injector = broker.enable_chaos(plan)
        admit_one(broker)
        report = broker.advance_epoch(1)
        assert report.rehomed == ("u1",)
        assert report.degraded
        fired = injector.fired_in_epoch(1)
        assert [fault.hook for fault in fired] == [HOOK_TOPOLOGY]
        assert broker.orchestrator.registry.renewal_count("u1") == 1

    def test_explicit_links_damage_only_the_named_links(self):
        broker = make_broker()
        plan = FaultPlan.of(
            FaultSpec(
                hook=HOOK_TOPOLOGY,
                epoch=1,
                kind=FaultKind.LINK_DOWN,
                params={"factor": 0.5, "links": [["sw", "edge-cu"]]},
            )
        )
        broker.enable_chaos(plan)
        admit_one(broker)
        broker.advance_epoch(1)
        topology = broker.orchestrator.topology
        assert topology.link("sw", "edge-cu").capacity_mbps == pytest.approx(500.0)
        assert topology.link("sw", "core-cu").capacity_mbps == pytest.approx(1000.0)
