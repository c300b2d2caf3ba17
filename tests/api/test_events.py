"""Event-bus contract: per-epoch events are delivered after the registry is
consistent, in deterministic order (EXPIRED -> RENEWED -> ADMITTED ->
REJECTED, names sorted within each kind), including the renewal
(archive + fresh admission) path from PR 4."""

from __future__ import annotations

import pytest

from repro.api import SliceBroker, SliceRequestV1
from repro.api.events import EventBus, LifecycleEvent, LifecycleEventKind
from repro.controlplane.state import SliceState
from repro.core.milp_solver import DirectMILPSolver
from repro.topology import operators


def make_broker() -> SliceBroker:
    return SliceBroker(
        topology=operators.testbed_topology(), solver=DirectMILPSolver()
    )


def request(
    name: str, arrival: int = 0, duration: int = 2, slice_type: str = "uRLLC"
) -> SliceRequestV1:
    return SliceRequestV1.of(
        name, slice_type, duration_epochs=duration, arrival_epoch=arrival
    )


def kinds_and_names(events) -> list[tuple[str, str]]:
    return [(event.kind.value, event.slice_name) for event in events]


class TestBusMechanics:
    def test_subscription_order_and_unsubscribe(self):
        bus = EventBus()
        seen: list[tuple[str, str]] = []
        bus.subscribe(lambda e: seen.append(("first", e.slice_name)))
        token = bus.subscribe(lambda e: seen.append(("second", e.slice_name)))
        event = LifecycleEvent(LifecycleEventKind.ADMITTED, "s1", epoch=0)
        bus.publish([event])
        assert seen == [("first", "s1"), ("second", "s1")]
        bus.unsubscribe(token)
        bus.publish([event])
        assert seen[-1] == ("first", "s1") and len(bus) == 1

    def test_kind_filter(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(e.kind), kinds=[LifecycleEventKind.EXPIRED])
        bus.publish(
            [
                LifecycleEvent(LifecycleEventKind.ADMITTED, "a", 0),
                LifecycleEvent(LifecycleEventKind.EXPIRED, "b", 0),
            ]
        )
        assert seen == [LifecycleEventKind.EXPIRED]


class TestEpochEventOrdering:
    def test_admissions_sorted_by_name(self):
        broker = make_broker()
        # One uRLLC + one mMTC fit the cold-start testbed together; submit in
        # reverse alphabetical order to observe the name sort.
        broker.submit_batch([request("zeta", slice_type="mMTC"), request("alpha")])
        report = broker.advance_epoch(0)
        assert kinds_and_names(report.events) == [
            ("admitted", "alpha"),
            ("admitted", "zeta"),
        ]

    def test_no_events_on_unchanged_epoch(self):
        broker = make_broker()
        broker.submit(request("s1", duration=4))
        broker.advance_epoch(0)
        report = broker.advance_epoch(1)  # committed slice re-confirmed: no transition
        assert report.events == ()

    def test_expiry_event(self):
        broker = make_broker()
        broker.submit(request("s1", duration=2))
        broker.advance_epoch(0)
        broker.advance_epoch(1)
        report = broker.advance_epoch(2)
        assert kinds_and_names(report.events) == [("expired", "s1")]
        assert report.idle

    def test_registry_is_consistent_when_events_are_delivered(self):
        broker = make_broker()
        observed: list[tuple[str, str]] = []

        def probe(event: LifecycleEvent) -> None:
            # Reading broker state from inside the callback must already see
            # the post-transition world.
            observed.append((event.kind.value, broker.status(event.slice_name).state))

        broker.events.subscribe(probe)
        broker.submit(request("s1", duration=2))
        broker.advance_epoch(0)
        broker.advance_epoch(2)
        assert observed == [("admitted", "admitted"), ("expired", "expired")]

    def test_renewal_path_orders_expired_renewed_admitted(self):
        broker = make_broker()
        broker.submit(request("s1", arrival=0, duration=2))
        broker.advance_epoch(0)
        broker.advance_epoch(1)
        # Renewal booked at the expiry epoch: the old life expires, the name
        # re-registers (archive + fresh record) and is re-admitted -- all
        # within epoch 2, in exactly this order.
        broker.submit(request("s1", arrival=2, duration=2))
        report = broker.advance_epoch(2)
        assert kinds_and_names(report.events) == [
            ("expired", "s1"),
            ("renewed", "s1"),
            ("admitted", "s1"),
        ]
        assert report.expired == ("s1",)
        assert report.renewed == ("s1",)
        assert broker.status("s1").renewal_count == 1

    def test_renewal_of_long_expired_slice_has_no_expiry_event(self):
        broker = make_broker()
        broker.submit(request("s1", arrival=0, duration=1))
        broker.advance_epoch(0)
        broker.advance_epoch(1)  # EXPIRED event fires here
        broker.advance_epoch(2)
        broker.submit(request("s1", arrival=3, duration=2))
        report = broker.advance_epoch(3)
        # The old life was already terminal going into epoch 3: only the
        # renewal + fresh admission are new facts.
        assert kinds_and_names(report.events) == [
            ("renewed", "s1"),
            ("admitted", "s1"),
        ]

    def test_admitted_event_carries_decision_metadata(self):
        broker = make_broker()
        broker.submit(request("s1", duration=2))
        report = broker.advance_epoch(0)
        (event,) = report.events
        assert event.kind is LifecycleEventKind.ADMITTED
        assert event.epoch == 0
        assert "objective_value" in event.metadata
        assert event.metadata["compute_unit"] is not None
        assert event.metadata["reserved_mbps_total"] > 0.0

    def test_released_event_is_synchronous(self):
        broker = make_broker()
        seen = []
        broker.events.subscribe(lambda e: seen.append(e.kind), kinds=[LifecycleEventKind.RELEASED])
        broker.submit(request("s1", duration=4))
        broker.advance_epoch(0)
        broker.release("s1", epoch=1)
        assert seen == [LifecycleEventKind.RELEASED]
        assert broker.status("s1").state == "released"

    def test_a_failed_epoch_rolls_its_expiry_back_and_the_retry_publishes_it(self):
        from repro.api import SolverError

        class FlakySolver:
            def __init__(self):
                self.inner = DirectMILPSolver()
                self.fail_next = False

            def solve(self, problem):
                if self.fail_next:
                    self.fail_next = False
                    raise RuntimeError("transient solver failure")
                return self.inner.solve(problem)

        solver = FlakySolver()
        broker = SliceBroker(topology=operators.testbed_topology(), solver=solver)
        seen = []
        broker.events.subscribe(lambda e: seen.append((e.kind.value, e.slice_name)))
        broker.submit(request("a", arrival=0, duration=2))
        broker.submit(request("late", arrival=2, duration=2))
        broker.advance_epoch(0)
        broker.advance_epoch(1)
        registry = broker.orchestrator.registry
        pre_epoch = registry.all_records()  # records are immutable values
        # Epoch 2: 'a' expires inside run_epoch, then the solve for 'late'
        # fails -- the epoch rolls back, expiry included, and publishes
        # nothing.
        solver.fail_next = True
        with pytest.raises(SolverError):
            broker.advance_epoch(2)
        assert seen == [("admitted", "a")]
        assert registry.all_records() == pre_epoch
        assert registry.record("a").state is SliceState.ADMITTED
        # The retry expires 'a' again and publishes it with the admission.
        broker.advance_epoch(3)
        assert seen == [
            ("admitted", "a"),
            ("expired", "a"),
            ("admitted", "late"),
        ]

    def test_subscriber_exceptions_propagate_to_the_publisher(self):
        broker = make_broker()

        def bad_subscriber(event):
            raise RuntimeError("subscriber bug")

        broker.events.subscribe(bad_subscriber)
        broker.submit(request("s1"))
        with pytest.raises(RuntimeError, match="subscriber bug"):
            broker.advance_epoch(0)

    def test_subscriber_failure_does_not_republish_transitions(self):
        broker = make_broker()
        seen = []
        broker.events.subscribe(lambda e: seen.append((e.kind.value, e.slice_name, e.epoch)))
        fail_once = {"armed": True}

        def flaky_subscriber(event):
            if fail_once["armed"]:
                fail_once["armed"] = False
                raise RuntimeError("subscriber hiccup")

        broker.events.subscribe(flaky_subscriber)
        broker.submit(request("s1", duration=4))
        with pytest.raises(RuntimeError, match="hiccup"):
            broker.advance_epoch(0)
        # Delivery is at-most-once per transition: the next epoch must not
        # re-publish the admission under a later epoch stamp.
        broker.advance_epoch(1)
        assert seen == [("admitted", "s1", 0)]
