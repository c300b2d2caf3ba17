"""SliceBroker facade behaviour: submission/tickets, batch atomicity,
idempotency tokens, quotes, statuses, release, and bit-identical equivalence
with driving the orchestrator directly."""

from __future__ import annotations

import pytest

from repro.api import SliceBroker, SliceRequestV1
from repro.api.dtos import AdmissionTicket, EpochReport
from repro.controlplane.orchestrator import E2EOrchestrator
from repro.core.milp_solver import DirectMILPSolver
from repro.topology import operators


def make_broker() -> SliceBroker:
    return SliceBroker(
        topology=operators.testbed_topology(), solver=DirectMILPSolver()
    )


def request(name: str, arrival: int = 0, duration: int = 2) -> SliceRequestV1:
    return SliceRequestV1.of(
        name, "uRLLC", duration_epochs=duration, arrival_epoch=arrival
    )


class TestSubmission:
    def test_ticket_carries_descriptor(self):
        broker = make_broker()
        ticket = broker.submit(request("s1", arrival=3, duration=7))
        assert isinstance(ticket, AdmissionTicket)
        assert ticket.slice_name == "s1"
        assert ticket.arrival_epoch == 3
        assert ticket.descriptor.slice_type == "uRLLC"
        assert ticket.descriptor.duration_epochs == 7
        assert broker.pending_count == 1
        assert broker.status("s1").state == "queued"

    def test_accepts_all_three_request_forms(self):
        broker = make_broker()
        dto = request("a", arrival=9)
        broker.submit(dto)
        broker.submit(dto.to_dict() | {"name": "b"})
        broker.submit(request("c", arrival=9).to_request())
        assert broker.pending_count == 3

    def test_token_replay_returns_equal_ticket_without_requeueing(self):
        broker = make_broker()
        first = broker.submit(request("s1", arrival=5), client_token="tok")
        second = broker.submit(request("s1", arrival=5), client_token="tok")
        assert first == second
        assert broker.pending_count == 1

    def test_ticket_ids_are_unique_and_monotonic(self):
        broker = make_broker()
        ids = [broker.submit(request(f"s{i}", arrival=9)).ticket_id for i in range(3)]
        assert len(set(ids)) == 3
        assert ids == sorted(ids)

    def test_deferred_submission_waits_for_arrival(self):
        broker = make_broker()
        broker.submit(request("later", arrival=2, duration=2))
        assert broker.advance_epoch(0).idle
        assert broker.advance_epoch(1).idle
        report = broker.advance_epoch(2)
        assert report.accepted == ("later",)

    def test_batch_rollback_restores_token_cache(self):
        broker = make_broker()
        with pytest.raises(Exception):
            broker.submit_batch(
                [request("a", arrival=2), request("a", arrival=2)],
                client_tokens=["t-a", "t-b"],
            )
        # The rolled-back token is free again and maps to a fresh submission.
        ticket = broker.submit(request("a", arrival=2), client_token="t-a")
        assert ticket.slice_name == "a"
        assert broker.pending_count == 1

    def test_batch_rollback_restores_released_markers(self):
        broker = make_broker()
        broker.submit(request("x", arrival=5))
        broker.release("x", epoch=0)
        assert broker.status("x").state == "released"
        with pytest.raises(Exception):
            # 'x' re-enqueues (its withdrawal marker stays, unread while
            # 'x' is queued), then the duplicate 'y' fails the batch -- once
            # the rollback withdraws 'x' again, the marker answers as before.
            broker.submit_batch(
                [request("x", arrival=5), request("y", arrival=5), request("y", arrival=5)]
            )
        assert broker.pending_count == 0
        assert broker.status("x").state == "released"

    def test_batch_replays_are_not_rolled_back(self):
        broker = make_broker()
        original = broker.submit(request("a", arrival=5), client_token="t-a")
        with pytest.raises(Exception):
            broker.submit_batch(
                [request("a", arrival=5), request("b", arrival=5), request("b", arrival=5)],
                client_tokens=["t-a", None, None],
            )
        # The pre-existing submission survives the failed batch untouched.
        assert broker.pending_count == 1
        assert broker.submit(request("a", arrival=5), client_token="t-a") == original


class TestTokenInvalidation:
    def test_release_of_queued_request_voids_its_token(self):
        broker = make_broker()
        broker.submit(request("s1", arrival=4), client_token="tok")
        broker.release("s1", epoch=0)
        # A retry under the cancelled token must re-enqueue, not replay the
        # stale ticket of the withdrawn submission.
        ticket = broker.submit(request("s1", arrival=4), client_token="tok")
        assert broker.pending_count == 1
        assert broker.status("s1").state == "queued"
        assert ticket.slice_name == "s1"

    def test_collected_submissions_keep_their_tokens(self):
        broker = make_broker()
        original = broker.submit(request("s1", duration=4), client_token="tok")
        broker.advance_epoch(0)  # collected and admitted
        # Replay after collection still deduplicates (at-most-once intake).
        assert broker.submit(request("s1", duration=4), client_token="tok") == original
        assert broker.pending_count == 0


class TestQuoteAndStatus:
    def test_quote_is_pure(self):
        broker = make_broker()
        quote = broker.quote(request("probe"))
        assert quote.slice_name == "probe"
        assert 0.0 < quote.forecast_peak_mbps <= quote.sla_mbps
        assert broker.pending_count == 0
        with pytest.raises(Exception):
            broker.status("probe")  # nothing was enqueued

    def test_quote_respects_forecast_overrides(self):
        from repro.core.forecast_inputs import ForecastInput

        broker = make_broker()
        broker.set_forecast_overrides({"s1": ForecastInput(lambda_hat_mbps=4.0, sigma_hat=0.5)})
        quote = broker.quote(request("s1"))
        assert quote.forecast_peak_mbps == pytest.approx(4.0)
        assert quote.forecast_sigma == pytest.approx(0.5)

    def test_status_reflects_full_lifecycle(self):
        broker = make_broker()
        broker.submit(request("s1", duration=2))
        assert broker.status("s1").state == "queued"
        broker.advance_epoch(0)
        status = broker.status("s1")
        assert status.state == "admitted"
        assert status.admitted_epoch == 0
        assert status.expires_at == 2
        assert status.compute_unit is not None
        assert status.reservations_mbps
        broker.advance_epoch(2)
        assert broker.status("s1").state == "expired"

    def test_list_slices_includes_queued_and_registered(self):
        broker = make_broker()
        broker.submit(request("active", duration=4))
        broker.advance_epoch(0)
        broker.submit(request("queued-later", arrival=9))
        states = {status.name: status.state for status in broker.list_slices()}
        assert states == {"active": "admitted", "queued-later": "queued"}


class TestReportLoad:
    """A load report the monitoring track cannot take is a
    ``ValidationError`` that records nothing."""

    @staticmethod
    def learnt_broker() -> SliceBroker:
        """Eleven epochs of ``[5, 6]`` at one station: the quote has
        learnt a 6 Mb/s peak with almost no spread."""
        from repro.controlplane.orchestrator import OrchestratorConfig
        from tests.conftest import build_tiny_topology

        broker = SliceBroker(
            topology=build_tiny_topology(),
            solver=DirectMILPSolver(),
            config=OrchestratorConfig(epochs_per_day=4),
        )
        for epoch in range(11):
            broker.report_load("s", "bs-0", epoch, [5.0, 6.0])
        return broker

    @staticmethod
    def embb(name: str = "s", arrival: int = 0) -> SliceRequestV1:
        return SliceRequestV1.of(name, "eMBB", duration_epochs=5, arrival_epoch=arrival)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sample_leaves_the_forecast_learnt(self, bad):
        """One NaN or inf used to enter the peak history and knock the
        slice to the full-SLA forecast (49.95 Mb/s, sigma 1.0) for the
        rest of its life."""
        from repro.api.errors import ValidationError

        broker = self.learnt_broker()
        learnt = broker.quote(self.embb())
        assert (learnt.forecast_peak_mbps, learnt.forecast_sigma) == (6.0, 0.001)
        with pytest.raises(ValidationError, match="finite") as raised:
            broker.report_load("s", "bs-0", 11, [5.0, bad])
        assert raised.value.details == {"slice_name": "s", "base_station": "bs-0", "epoch": 11}
        assert broker.quote(self.embb()) == learnt
        history = broker.orchestrator.monitoring.peak_history("s")
        assert history.tolist() == [6.0] * 11
        # The epoch it refused is still open, and the next epoch forecasts
        # the slice from what it learnt.
        broker.report_load("s", "bs-0", 11, [5.0, 6.0])
        broker.submit(self.embb(arrival=12))
        broker.advance_epoch(12)
        forecast = broker.last_problem.forecast("s")
        assert (forecast.lambda_hat_mbps, forecast.sigma_hat) == (6.0, 0.001)

    def test_older_epoch_is_a_validation_error(self):
        from repro.api.errors import ValidationError

        broker = self.learnt_broker()
        before = broker.orchestrator.monitoring.peak_history("s")
        for bs in ("bs-0", "bs-1"):  # at the station that reported it or not
            with pytest.raises(ValidationError, match="epoch order"):
                broker.report_load("s", bs, 9, [40.0])
        assert broker.orchestrator.monitoring.peak_history("s").tolist() == before.tolist()
        # The last epoch itself is still open at every station.
        broker.report_load("s", "bs-1", 10, [7.0])
        assert broker.orchestrator.monitoring.peak_history("s").tolist()[-1] == 7.0

    def test_non_numeric_samples_are_a_validation_error(self):
        from repro.api.errors import ValidationError

        broker = self.learnt_broker()
        with pytest.raises(ValidationError):
            broker.report_load("s", "bs-0", 11, ["heavy"])
        assert broker.orchestrator.monitoring.peak_history("s").size == 11

    def test_unknown_base_station_leaves_the_forecast_learnt(self):
        """A report from a station the topology does not have used to fold
        into the slice's peak track: one ``[45.0]`` at "no-such-station"
        moved the quote from 6.0 to 24.72 Mb/s, sigma 1.0."""
        from repro.api.errors import ValidationError

        broker = self.learnt_broker()
        learnt = broker.quote(self.embb())
        with pytest.raises(ValidationError, match="no-such-station") as raised:
            broker.report_load("s", "no-such-station", 11, [45.0])
        assert raised.value.details == {
            "slice_name": "s", "base_station": "no-such-station", "epoch": 11
        }
        assert broker.quote(self.embb()) == learnt
        assert broker.orchestrator.monitoring.peak_history("s").tolist() == [6.0] * 11

    def test_empty_report_records_nothing(self):
        broker = self.learnt_broker()
        learnt = broker.quote(self.embb())
        broker.report_load("s", "bs-0", 11, [])
        broker.report_load("s", "bs-0", 3, [])  # not even the order is checked
        assert broker.orchestrator.monitoring.peak_history("s").size == 11
        assert broker.quote(self.embb()) == learnt

    def test_quote_reads_the_peak_over_every_station(self):
        broker = self.learnt_broker()
        for epoch in range(11, 22):
            broker.report_load("s", "bs-0", epoch, [5.0, 6.0])
            broker.report_load("s", "bs-1", epoch, [8.0, 2.0])
        history = broker.orchestrator.monitoring.peak_history("s")
        assert history.tolist() == [6.0] * 11 + [8.0] * 11
        assert broker.quote(self.embb()).forecast_peak_mbps > 6.0

    def test_a_name_never_submitted_can_be_reported_and_quoted(self):
        """Monitoring is keyed by slice name alone: load reported for a
        name before any request carries it feeds that name's first quote."""
        broker = self.learnt_broker()
        assert broker.pending_count == 0 and broker.slice_count() == 0
        quote = broker.quote(self.embb())
        fresh = broker.quote(self.embb("never-reported"))
        assert (quote.forecast_peak_mbps, quote.forecast_sigma) == (6.0, 0.001)
        assert fresh.forecast_sigma == 1.0  # full-SLA pessimism: nothing learnt

    def test_orchestrator_keeps_the_internal_value_error(self):
        """Below the broker the track's refusal stays a ``ValueError``;
        only the northbound boundary translates it."""
        broker = self.learnt_broker()
        with pytest.raises(ValueError, match="epoch order"):
            broker.orchestrator.observe_load("s", "bs-0", 2, [1.0])


class TestRelease:
    def test_release_of_queued_request_withdraws_it(self):
        broker = make_broker()
        broker.submit(request("s1", arrival=4))
        status = broker.release("s1", epoch=0)
        assert status.state == "released"
        assert broker.pending_count == 0
        # The withdrawal is remembered: status() reports the release instead
        # of claiming the name was never submitted, and the name may be
        # re-submitted afresh.
        assert broker.status("s1").state == "released"
        assert [s.name for s in broker.list_slices()] == ["s1"]
        broker.submit(request("s1", arrival=4))
        assert broker.status("s1").state == "queued"

    def test_released_slice_frees_capacity_next_epoch(self):
        broker = make_broker()
        broker.submit(request("s1", duration=10))
        broker.advance_epoch(0)
        broker.release("s1", epoch=1)
        report = broker.advance_epoch(1)
        assert report.idle
        assert broker.status("s1").state == "released"

    def test_release_prefers_the_live_slice_over_a_queued_renewal(self):
        broker = make_broker()
        broker.submit(request("s1", arrival=0, duration=2))
        broker.advance_epoch(0)
        # Pre-book a legal renewal at the expiry epoch, then release early:
        # the live slice must terminate; the queued renewal stays queued.
        broker.submit(request("s1", arrival=2, duration=2))
        status = broker.status("s1")
        assert status.state == "admitted"  # live record wins over the queue
        released = broker.release("s1", epoch=1)
        assert released.state == "released"
        assert broker.pending_count == 1  # the renewal is still queued
        assert broker.status("s1").state == "queued"
        # A second release cancels the queued renewal.
        broker.release("s1", epoch=1)
        assert broker.pending_count == 0

    def test_queued_token_tracking_is_pruned_after_collection(self):
        broker = make_broker()
        broker.submit(request("s1", duration=2), client_token="tok")
        assert broker._token_by_queued_name == {"s1": "tok"}
        broker.advance_epoch(0)  # collected: no longer queued
        assert broker._token_by_queued_name == {}
        # The replay cache itself survives collection (at-most-once intake).
        assert broker.submit(request("s1", duration=2), client_token="tok")

    def test_token_cache_eviction_spares_queued_submissions(self):
        broker = SliceBroker(
            topology=operators.testbed_topology(),
            solver=DirectMILPSolver(),
            cache_limit=2,
        )
        first = broker.submit(request("a", arrival=9), client_token="t-a")
        broker.submit(request("b", arrival=9), client_token="t-b")
        broker.submit(request("c", arrival=9), client_token="t-c")
        # All three submissions are still queued, so none of their tokens may
        # be evicted even though the cache is over its limit: the retry
        # contract of a live submission always holds.
        assert broker.submit(request("a", arrival=9), client_token="t-a") == first
        assert broker.pending_count == 3

    def test_token_cache_evicts_collected_submissions_first(self):
        broker = SliceBroker(
            topology=operators.testbed_topology(),
            solver=DirectMILPSolver(),
            cache_limit=1,
        )
        broker.submit(request("old", duration=4), client_token="t-old")
        broker.advance_epoch(0)  # collected: its token is now evictable
        broker.submit(request("e", arrival=9), client_token="t-e")
        broker.submit(request("f", arrival=9), client_token="t-f")
        assert "t-old" not in broker._tickets_by_token
        assert {"t-e", "t-f"} <= set(broker._tickets_by_token)

    def test_released_name_can_be_renewed(self):
        broker = make_broker()
        broker.submit(request("s1", duration=10))
        broker.advance_epoch(0)
        broker.release("s1", epoch=1)
        broker.submit(request("s1", arrival=2, duration=2))
        report = broker.advance_epoch(2)
        assert report.accepted == ("s1",)
        status = broker.status("s1")
        assert status.state == "admitted"
        assert status.renewal_count == 1

    def test_released_slice_stays_released_past_the_cache_limit(self):
        # Being released is a fact of the slice's registry record, not a
        # bounded broker cache: later releases cannot evict it.
        broker = SliceBroker(
            topology=operators.testbed_topology(),
            solver=DirectMILPSolver(),
            cache_limit=1,
        )
        for epoch, name in enumerate(("first", "second", "third")):
            broker.submit(request(name, arrival=epoch, duration=4))
            assert broker.advance_epoch(epoch).accepted == (name,)
            broker.release(name, epoch=epoch)
        assert [broker.status(name).state for name in ("first", "second", "third")] == [
            "released"
        ] * 3


class TestFacadeEquivalence:
    def test_bit_identical_to_direct_orchestrator_calls(self):
        """The facade adds intake/reporting around the same call sequence:
        decisions (allocations, objective, solver trajectory) are identical."""
        requests = [
            request("a", arrival=0, duration=3),
            request("b", arrival=1, duration=3),
            request("c", arrival=2, duration=2),
        ]

        direct = E2EOrchestrator(
            topology=operators.testbed_topology(), solver=DirectMILPSolver()
        )
        for dto in requests:
            direct.submit_request(dto.to_request())

        broker = make_broker()
        broker.submit_batch(requests)

        for epoch in range(5):
            expected = direct.run_epoch(epoch)
            report = broker.advance_epoch(epoch)
            actual = broker.last_decision
            assert isinstance(report, EpochReport)
            assert report.epoch == epoch
            assert actual.objective_value == expected.objective_value
            assert sorted(actual.allocations) == sorted(expected.allocations)
            for name, allocation in expected.allocations.items():
                mirrored = actual.allocations[name]
                assert mirrored.accepted == allocation.accepted
                assert mirrored.compute_unit == allocation.compute_unit
                assert mirrored.reservations_mbps == allocation.reservations_mbps
            assert report.accepted == tuple(sorted(expected.accepted_tenants))
            assert actual.stats.iterations == expected.stats.iterations


class TestTimeTruncationSurfacing:
    """A budget-stopped solve must be visible at the API boundary (PR 7)."""

    class TruncatingSolver:
        """Wraps the exact solver but stamps its stats as time-truncated."""

        def __init__(self):
            self.inner = DirectMILPSolver()

        def solve(self, problem):
            from dataclasses import replace

            decision = self.inner.solve(problem)
            decision.stats = replace(
                decision.stats,
                time_truncated=True,
                optimal=False,
                message=decision.stats.message
                + " (time limit reached; incumbent not certified)",
            )
            return decision

    def test_report_carries_the_truncation_flag(self):
        broker = SliceBroker(
            topology=operators.testbed_topology(), solver=self.TruncatingSolver()
        )
        broker.submit(request("s1"))
        report = broker.advance_epoch(0)
        assert report.solver_time_truncated
        assert "not certified" in report.solver_message
        # ...and survives the wire round-trip.
        assert EpochReport.from_dict(report.to_dict()).solver_time_truncated

    def test_certified_solve_reports_no_truncation(self):
        broker = make_broker()
        broker.submit(request("s1"))
        report = broker.advance_epoch(0)
        assert not report.solver_time_truncated
        assert not EpochReport.from_dict(report.to_dict()).solver_time_truncated
