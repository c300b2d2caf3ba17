"""Concurrency safety of the SliceBroker facade: the idempotency-token race,
admission-path locking under thread pools, intake backpressure, cache-limit
validation, and the incremental replay-cache eviction."""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import (
    BrokerClient,
    BrokerServer,
    CapacityError,
    LifecycleError,
    SliceBroker,
    SliceRequestV1,
    SolverError,
)
import repro.controlplane.orchestrator as orchestrator_module
from repro.controlplane.orchestrator import ForecastingBlock, OrchestratorConfig
from repro.controlplane.slice_manager import SliceManager
from repro.controlplane.state import SliceRecord
from repro.core.forecast_inputs import ForecastInput
from repro.core.milp_solver import DirectMILPSolver
from repro.core.slices import SliceRequest
from repro.forecasting import HoltWintersForecaster
from repro.topology import operators
from repro.utils.journal import Journal

pytestmark = pytest.mark.transport


def make_broker(**kwargs) -> SliceBroker:
    return SliceBroker(
        topology=operators.testbed_topology(), solver=DirectMILPSolver(), **kwargs
    )


def request(name: str, arrival: int = 0, duration: int = 2) -> SliceRequestV1:
    return SliceRequestV1.of(
        name, "uRLLC", duration_epochs=duration, arrival_epoch=arrival
    )


# --------------------------------------------------------------------- #
# The idempotency-token race (satellite regression test)
# --------------------------------------------------------------------- #
class TestTokenRace:
    def test_concurrent_same_token_submits_enqueue_exactly_once(self):
        """Hammer one token from a thread pool: exactly one ticket may win
        the enqueue; every other submit must replay that same ticket."""
        broker = make_broker()
        workers = 16
        attempts = 64
        barrier = threading.Barrier(workers)
        payload = request("contended", arrival=9)

        def hammer(_):
            barrier.wait()
            results = []
            for _ in range(attempts // workers):
                results.append(broker.submit(payload, client_token="tok"))
            return results

        with ThreadPoolExecutor(max_workers=workers) as pool:
            tickets = [
                ticket
                for batch in pool.map(hammer, range(workers))
                for ticket in batch
            ]

        assert len(tickets) == (attempts // workers) * workers
        assert len({ticket.ticket_id for ticket in tickets}) == 1
        assert all(ticket == tickets[0] for ticket in tickets)
        assert broker.pending_count == 1
        assert broker.status("contended").state == "queued"

    def test_race_repeats_across_fresh_tokens(self):
        """Many rounds, each its own token/name: one winner per round."""
        broker = make_broker()
        workers = 8
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for round_index in range(10):
                payload = request(f"s{round_index}", arrival=9)
                token = f"tok-{round_index}"
                barrier = threading.Barrier(workers)

                def submit_once(_):
                    barrier.wait()
                    return broker.submit(payload, client_token=token)

                tickets = list(pool.map(submit_once, range(workers)))
                assert len({t.ticket_id for t in tickets}) == 1
        assert broker.pending_count == 10

    def test_concurrent_distinct_submits_all_win_unique_tickets(self):
        broker = make_broker()
        count = 64
        barrier = threading.Barrier(16)

        def submit_one(index):
            if index < 16:
                barrier.wait()
            return broker.submit(request(f"s{index}", arrival=9), client_token=f"t{index}")

        with ThreadPoolExecutor(max_workers=16) as pool:
            tickets = list(pool.map(submit_one, range(count)))
        assert len({t.ticket_id for t in tickets}) == count
        assert broker.pending_count == count

    def test_same_token_race_over_the_wire(self):
        """The transport inherits the guarantee: concurrent HTTP sessions
        replaying one idempotency token receive one identical ticket."""
        broker = make_broker()
        payload = request("contended", arrival=9)
        workers = 8
        with BrokerServer(broker) as server:
            barrier = threading.Barrier(workers)

            def session(_):
                with BrokerClient(server.host, server.port) as client:
                    barrier.wait()
                    return client.submit(payload, client_token="tok")

            with ThreadPoolExecutor(max_workers=workers) as pool:
                tickets = list(pool.map(session, range(workers)))
        assert len({t.ticket_id for t in tickets}) == 1
        assert broker.pending_count == 1


# --------------------------------------------------------------------- #
# Intake backpressure
# --------------------------------------------------------------------- #
class TestBackpressure:
    def test_bound_is_enforced_under_concurrency(self):
        bound = 8
        broker = make_broker(max_pending=bound)
        outcomes = []
        lock = threading.Lock()

        def submit_one(index):
            try:
                ticket = broker.submit(request(f"s{index}", arrival=9))
                with lock:
                    outcomes.append(("ok", ticket.slice_name))
            except CapacityError as error:
                with lock:
                    outcomes.append(("shed", error.details["max_pending"]))

        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(submit_one, range(32)))

        accepted = [entry for entry in outcomes if entry[0] == "ok"]
        shed = [entry for entry in outcomes if entry[0] == "shed"]
        assert len(accepted) == bound
        assert len(shed) == 32 - bound
        assert all(entry[1] == bound for entry in shed)
        assert broker.pending_count == bound

    def test_rejected_submit_leaves_no_trace(self):
        broker = make_broker(max_pending=1)
        broker.submit(request("a", arrival=9))
        with pytest.raises(CapacityError):
            broker.submit(request("b", arrival=9), client_token="t-b")
        # The shed submission neither queued nor burned its token.
        with pytest.raises(Exception):
            broker.status("b")
        broker.advance_epoch(0)  # drains nothing (arrival 9) but token stays free
        broker.release("a", epoch=0)
        assert broker.submit(request("b", arrival=9), client_token="t-b").slice_name == "b"

    def test_batch_rollback_respects_bound(self):
        broker = make_broker(max_pending=2)
        with pytest.raises(CapacityError):
            broker.submit_batch(
                [request("a", arrival=9), request("b", arrival=9), request("c", arrival=9)]
            )
        assert broker.pending_count == 0
        # The bound itself still admits a fitting batch afterwards.
        assert len(broker.submit_batch([request("a", arrival=9), request("b", arrival=9)])) == 2

    def test_unbounded_by_default(self):
        broker = make_broker()
        for index in range(64):
            broker.submit(request(f"s{index}", arrival=9))
        assert broker.pending_count == 64


# --------------------------------------------------------------------- #
# Constructor limits (their values: tests/api/test_input_contract.py)
# --------------------------------------------------------------------- #
class TestLimitsValidation:
    def test_cache_limit_one_preserves_same_call_replay(self):
        broker = make_broker(cache_limit=1)
        first = broker.submit(request("a", arrival=9), client_token="t-a")
        assert broker.submit(request("a", arrival=9), client_token="t-a") == first


# --------------------------------------------------------------------- #
# Incremental replay-cache eviction (satellite: no-behavior-change + cost)
# --------------------------------------------------------------------- #
class TestIncrementalEviction:
    def test_behavior_unchanged_collected_evicted_oldest_first(self):
        broker = make_broker(cache_limit=2)
        broker.submit(request("old1", duration=4), client_token="t-old1")
        broker.submit(request("old2", duration=4), client_token="t-old2")
        broker.advance_epoch(0)  # both collected: tokens now evictable
        broker.submit(request("e", arrival=9), client_token="t-e")
        assert "t-old1" not in broker._tickets_by_token
        assert {"t-old2", "t-e"} <= set(broker._tickets_by_token)
        broker.submit(request("f", arrival=9), client_token="t-f")
        assert "t-old2" not in broker._tickets_by_token
        assert set(broker._tickets_by_token) == {"t-e", "t-f"}

    def test_behavior_unchanged_queued_tokens_never_evicted(self):
        broker = make_broker(cache_limit=2)
        first = broker.submit(request("a", arrival=9), client_token="t-a")
        broker.submit(request("b", arrival=9), client_token="t-b")
        broker.submit(request("c", arrival=9), client_token="t-c")
        # All three still queued: over-limit, but every retry must replay.
        assert len(broker._tickets_by_token) == 3
        assert broker.submit(request("a", arrival=9), client_token="t-a") == first

    def test_mixed_cache_settles_exactly_at_limit(self):
        broker = make_broker(cache_limit=3)
        broker.submit(request("live", arrival=9), client_token="t-live")
        for index in range(6):
            broker.submit(request(f"c{index}", duration=4), client_token=f"t-c{index}")
            broker.advance_epoch(index)  # collect immediately: token evictable
        # The queued token survives every eviction wave; the cache holds
        # exactly the limit, ending with the newest evictable entries.
        assert len(broker._tickets_by_token) == 3
        assert "t-live" in broker._tickets_by_token

    def test_eviction_does_not_rescan_the_intake_queue(self, monkeypatch):
        """The O(queue + cache) rebuild is gone: over-limit submits never
        touch ``pending_requests`` (the queued-token track answers in O(1))."""
        broker = make_broker(cache_limit=4)
        for index in range(4):
            broker.submit(request(f"c{index}", duration=4), client_token=f"t-{index}")
        broker.advance_epoch(0)  # all collected -> evictable

        accesses = 0
        original = SliceManager.pending_requests.fget

        def counting(self):
            nonlocal accesses
            accesses += 1
            return original(self)

        monkeypatch.setattr(SliceManager, "pending_requests", property(counting))
        for index in range(16):
            broker.submit(request(f"n{index}", arrival=9), client_token=f"t-n{index}")
        assert accesses == 0

    def test_full_pass_guard_terminates_when_everything_is_queued(self):
        broker = make_broker(cache_limit=1)
        for index in range(32):
            broker.submit(request(f"s{index}", arrival=9), client_token=f"t-{index}")
        # Nothing is evictable (all queued): the scan stops after one pass,
        # the cache is bounded by the real queue length, replays all work.
        assert len(broker._tickets_by_token) == 32
        assert broker.pending_count == 32


# --------------------------------------------------------------------- #
# Mixed concurrent traffic over one broker
# --------------------------------------------------------------------- #
class TestMixedTraffic:
    def test_reads_and_writes_interleave_safely(self):
        broker = make_broker()
        errors = []

        def tenant(index):
            try:
                name = f"s{index}"
                broker.submit(request(name, arrival=9), client_token=f"t{index}")
                broker.status(name)
                broker.quote(request(name, arrival=9))
                broker.list_slices()
                if index % 3 == 0:
                    broker.release(name, epoch=0)
            except Exception as error:  # noqa: BLE001 -- collected for the assert
                errors.append(error)

        with ThreadPoolExecutor(max_workers=12) as pool:
            list(pool.map(tenant, range(48)))
        assert errors == []
        released = sum(1 for index in range(48) if index % 3 == 0)
        assert broker.pending_count == 48 - released

    def test_stress_reads_stay_whole_while_writers_and_epochs_run(self):
        """More threads than cores and a 10 us switch interval: writers
        submit, an epoch thread decides, readers read throughout.  Mid-epoch
        a collected request is for a moment in neither the queue nor the
        registry, so a read torn across the live tables would report a
        submitted name as unknown, or a total that is not the page's."""
        broker = make_broker()
        known: list[str] = []
        errors: list[BaseException] = []
        writing = threading.Event()
        epochs = 8

        def guarded(work):
            def run(*args):
                try:
                    work(*args)
                except BaseException as error:  # noqa: BLE001 -- asserted below
                    errors.append(error)

            return run

        def writer(index):
            for count in range(12):
                name = f"w{index}-{count}"
                broker.submit(request(name, arrival=count % epochs, duration=1))
                known.append(name)

        def decider():
            for epoch in range(epochs):
                broker.advance_epoch(epoch)

        def reader():
            while writing.is_set():
                names = list(known)
                for name in names:
                    broker.status(name)
                page = broker.list_slices()
                assert page.total == len(page) >= len(names)
                assert broker.slice_count() >= page.total

        writers = [
            threading.Thread(target=guarded(writer), args=(index,)) for index in range(3)
        ]
        writers.append(threading.Thread(target=guarded(decider)))
        readers = [threading.Thread(target=guarded(reader)) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writing.set()
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(GUARD_S)
            writing.clear()
            for thread in readers:
                thread.join(GUARD_S)
        finally:
            writing.clear()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers + readers)
        assert errors == []
        assert broker.slice_count() == 36

    def test_lock_free_quote_races_report_load_opening_new_series(self):
        """``quote`` takes no lock while ``report_load`` opens a new peak
        track per slice.  When monitoring kept one series per ``(slice,
        bs)``, quoting a slice with no samples scanned all of them, and a
        series opened mid-scan raised "dictionary changed size during
        iteration" out of ``quote``.  Each write must still land whole."""
        broker = make_broker()
        probe = request("never-reported")
        errors: list[Exception] = []
        writing = threading.Event()

        def writer():
            try:
                for index in range(1000):
                    broker.report_load(f"w{index}", f"bs-{index % 2}", 0, [1.0])
            finally:
                writing.clear()

        def reader():
            while writing.is_set():
                try:
                    broker.quote(probe)
                except Exception as error:  # noqa: BLE001 -- asserted below
                    errors.append(error)
                    return

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writing.set()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(GUARD_S)
        finally:
            writing.clear()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        monitoring = broker.orchestrator.monitoring
        for index in range(1000):
            assert monitoring.peak_history(f"w{index}").tolist() == [1.0]
        assert monitoring.peak_history("never-reported").size == 0

    def test_lock_free_quotes_race_the_forecast_memo(self):
        """``quote`` forecasts through the same per-slice memo as the epoch,
        without the lock: quotes land between the two base stations' reports
        of an epoch (so the next read finds that epoch's peak raised) and
        while the epoch prunes the memo.  Every forecast, from either side,
        must equal a fresh block's forecast of the history it read."""
        season = 4
        broker = SliceBroker(
            topology=operators.testbed_topology(),
            solver=DirectMILPSolver(),
            config=OrchestratorConfig(epochs_per_day=season),
        )
        seen: list[tuple[SliceRequest, np.ndarray, ForecastInput]] = []

        class RecordingBlock(ForecastingBlock):
            def forecast_for(self, request, history):
                forecast = super().forecast_for(request, history)
                seen.append((request, np.array(history), forecast))
                return forecast

        broker.set_forecasting(
            RecordingBlock(primary=HoltWintersForecaster(season_length=season))
        )
        names = [f"u{index}" for index in range(3)]
        for name in names:
            broker.submit(request(name, duration=40))
        errors: list[Exception] = []
        deciding = threading.Event()
        rng = np.random.default_rng(0)

        def await_quotes(count):
            target = len(seen) + count
            for _ in range(int(GUARD_S / 1e-3)):
                if len(seen) >= target:
                    return
                time.sleep(1e-3)

        def decider():
            try:
                for epoch in range(6 * season):
                    broker.advance_epoch(epoch)
                    for bs in ("bs-0", "bs-1"):
                        for name in names:
                            broker.report_load(name, bs, epoch, rng.uniform(1.0, 9.0, 3))
                        # Quotes read the half-reported epoch; bs-1 may then
                        # raise the peak they consumed.
                        await_quotes(2 * len(names))
            except Exception as error:  # noqa: BLE001 -- asserted below
                errors.append(error)
            finally:
                deciding.clear()

        def quoter(index):
            probe = request(names[index % len(names)])
            while deciding.is_set():
                try:
                    broker.quote(probe)
                except Exception as error:  # noqa: BLE001 -- asserted below
                    errors.append(error)
                    return

        threads = [threading.Thread(target=decider)]
        threads += [threading.Thread(target=quoter, args=(index,)) for index in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            deciding.set()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(GUARD_S)
        finally:
            deciding.clear()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        recursive = [history for _, history, _ in seen if history.size >= 3]
        assert len(recursive) > 6 * season and max(map(len, recursive)) >= 2 * season
        for core_request, history, forecast in seen:
            fresh = ForecastingBlock(primary=HoltWintersForecaster(season_length=season))
            assert forecast == fresh.forecast_for(core_request, history)


# --------------------------------------------------------------------- #
# Snapshot reads never wait for an epoch
# --------------------------------------------------------------------- #
#: Hang guard for every wait/join below.  Nothing is asserted about time:
#: a run either reaches the awaited state or fails at the guard.
GUARD_S = 60.0


class GateSolver:
    """Parks every solve on an Event until the test opens the gate.

    While it is parked, the epoch's thread sits exactly where a real epoch
    spends its time: inside the solver, holding the admission lock, with
    HiGHS having let go of the GIL.
    """

    def __init__(self, *, fail: bool = False):
        self._inner = DirectMILPSolver()
        self.fail = fail
        self.entered = threading.Event()
        self.gate = threading.Event()

    def solve(self, problem):
        self.entered.set()
        assert self.gate.wait(GUARD_S), "gate never opened"
        if self.fail:
            raise RuntimeError("injected solver fault")
        return self._inner.solve(problem)

    def rearm(self, *, fail: bool = False) -> None:
        self.fail = fail
        self.entered.clear()
        self.gate.clear()


class EpochInFlight:
    """``advance(epoch)`` on a thread of its own, parked inside the solver."""

    def __init__(self, solver: GateSolver, advance, epoch: int, *, fail: bool = False):
        solver.rearm(fail=fail)
        self.solver = solver
        self.outcome: list = []
        self._thread = threading.Thread(target=self._run, args=(advance, epoch))
        self._thread.start()

    def _run(self, advance, epoch):
        try:
            self.outcome.append(advance(epoch))
        except Exception as error:  # noqa: BLE001 -- handed to the test
            self.outcome.append(error)

    def parked(self) -> "EpochInFlight":
        assert self.solver.entered.wait(GUARD_S), "epoch never reached the solver"
        return self

    def finish(self):
        self.solver.gate.set()
        self._thread.join(GUARD_S)
        assert not self._thread.is_alive(), "epoch never returned"
        return self.outcome[0]


def on_thread(function, *args):
    """Run ``function`` on another thread; fail instead of hanging if it blocks."""
    box: list = []
    thread = threading.Thread(target=lambda: box.append(function(*args)))
    thread.start()
    thread.join(GUARD_S)
    assert not thread.is_alive(), f"{function} blocked behind the epoch"
    return box[0]


def states(page) -> dict[str, tuple[str, int]]:
    return {status.name: (status.state, status.renewal_count) for status in page}


def gated_broker(**kwargs) -> tuple[SliceBroker, GateSolver]:
    solver = GateSolver()
    broker = SliceBroker(topology=operators.testbed_topology(), solver=solver, **kwargs)
    return broker, solver


class TestReadsDuringEpoch:
    def test_in_process_reads_return_pre_epoch_state_while_solver_is_held(self):
        broker, solver = gated_broker()
        broker.submit(request("s1"))
        broker.submit(request("late", arrival=5))
        epoch = EpochInFlight(solver, broker.advance_epoch, 0).parked()
        assert broker.epoch_in_flight
        # The live tables have moved on (s1 left the queue and is registered)
        # but every read from another thread is ordered before the epoch.
        assert on_thread(broker.status, "s1").state == "queued"
        assert states(on_thread(broker.list_slices)) == {
            "s1": ("queued", 0),
            "late": ("queued", 0),
        }
        assert on_thread(broker.slice_count) == 2
        assert on_thread(lambda: broker.pending_count) == 2
        report = epoch.finish()
        assert report.accepted == ("s1",)
        assert not broker.epoch_in_flight
        assert broker.status("s1").state == "admitted"
        assert states(broker.list_slices()) == {
            "s1": ("admitted", 0),
            "late": ("queued", 0),
        }
        assert broker.pending_count == 1

    def test_wire_reads_return_pre_epoch_state_while_solver_is_held(self):
        broker, solver = gated_broker()
        with BrokerServer(broker) as server:
            with BrokerClient(server.host, server.port) as lead, BrokerClient(
                server.host, server.port
            ) as reader:
                lead.submit(request("s1"))
                lead.submit(request("late", arrival=5))
                epoch = EpochInFlight(solver, lead.advance_epoch, 0).parked()
                assert on_thread(reader.status, "s1").state == "queued"
                page = on_thread(reader.list_slices)
                assert states(page) == {"s1": ("queued", 0), "late": ("queued", 0)}
                assert page.total == 2
                health = on_thread(reader.health)
                assert health["epoch_in_flight"] is True
                assert health["pending_requests"] == 2
                report = epoch.finish()
                assert report.accepted == ("s1",)
                assert reader.status("s1").state == "admitted"
                health = reader.health()
                assert health["epoch_in_flight"] is False
                assert health["pending_requests"] == 1

    @pytest.mark.parametrize("over_the_wire", [False, True])
    def test_rolled_back_epoch_reads_pre_epoch_state_before_and_after(self, over_the_wire):
        broker, solver = gated_broker()
        checkpoints = []
        publish = broker._publish_epoch_view

        def recording_publish(checkpoint):
            checkpoints.append(checkpoint)
            publish(checkpoint)

        broker._publish_epoch_view = recording_publish
        with BrokerServer(broker) as server, BrokerClient(server.host, server.port) as client:
            surface = client if over_the_wire else broker
            broker.submit(request("s1", duration=1))
            solver.gate.set()
            broker.advance_epoch(0)
            broker.submit(request("s2", arrival=1))
            before = states(surface.list_slices())
            assert before == {"s1": ("admitted", 0), "s2": ("queued", 0)}
            epoch = EpochInFlight(solver, broker.advance_epoch, 1, fail=True).parked()
            # Mid-epoch the live registry already expired s1 and registered
            # s2; the reader is still served the checkpoint.
            assert states(on_thread(surface.list_slices)) == before
            assert on_thread(surface.status, "s1").state == "admitted"
            error = epoch.finish()
            assert isinstance(error, SolverError)
            assert not broker.epoch_in_flight
            # Rolled back: the live tables equal the checkpoint again, so the
            # two sources of the one status function agree name for name.
            assert states(surface.list_slices()) == before
            for name in before:
                assert broker._status_from(checkpoints[-1], name) == broker.status(name)
            # ... and a clean retry commits.
            report = EpochInFlight(solver, broker.advance_epoch, 1).parked().finish()
            assert report.expired == ("s1",)
            assert states(surface.list_slices()) == {
                "s1": ("expired", 0),
                "s2": ("admitted", 0),
            }

    def test_epoch_starting_mid_read_cannot_trap_the_reader(self):
        """The start race: a reader that found no epoch running and is about
        to read the live tables, an epoch that starts right then.  The epoch
        must wait the few microseconds for that read (it cannot mutate what
        is being read), and the reader must come back with the pre-epoch
        state while the solve is still parked -- not queue behind it."""
        broker, solver = gated_broker()
        broker.submit(request("s1"))
        reader_chose = threading.Event()
        reader_go = threading.Event()
        epoch_at_publish = threading.Event()
        read_source = broker._read_source
        publish = broker._publish_epoch_view
        reader_ident: list[int] = []

        def parked_read_source():
            source = read_source()
            if threading.get_ident() in reader_ident and not reader_chose.is_set():
                reader_chose.set()
                assert reader_go.wait(GUARD_S)
            return source

        def announced_publish(checkpoint):
            epoch_at_publish.set()
            publish(checkpoint)

        broker._read_source = parked_read_source
        broker._publish_epoch_view = announced_publish
        observed: list = []

        def read():
            reader_ident.append(threading.get_ident())
            observed.append(broker.status("s1").state)

        reader = threading.Thread(target=read)
        reader.start()
        assert reader_chose.wait(GUARD_S)  # chose the live tables, not read yet
        epoch = EpochInFlight(solver, broker.advance_epoch, 0)
        # The epoch holds the admission lock and has its checkpoint; it now
        # needs the state mutex the reader is holding.
        assert epoch_at_publish.wait(GUARD_S)
        assert not solver.entered.is_set()
        reader_go.set()
        reader.join(GUARD_S)
        assert not reader.is_alive(), "reader trapped behind the epoch"
        assert observed == ["queued"]
        epoch.parked()  # only now can the epoch have reached the solver
        assert epoch.finish().accepted == ("s1",)
        assert broker.status("s1").state == "admitted"

    def test_subscriber_inside_publish_sees_post_epoch_state(self):
        broker, solver = gated_broker()
        solver.gate.set()
        seen = []

        def probe(event):
            seen.append(
                (
                    event.kind.value,
                    broker.epoch_in_flight,
                    states(broker.list_slices()),
                    broker.slice_count(),
                    broker.pending_count,
                )
            )

        broker.events.subscribe(probe)
        broker.submit(request("s1"))
        broker.submit(request("late", arrival=5))
        broker.advance_epoch(0)
        assert seen == [
            ("admitted", False, {"s1": ("admitted", 0), "late": ("queued", 0)}, 2, 1)
        ]

    def test_epochs_own_thread_reads_live_mid_epoch(self):
        """A fault hook (here: the solver itself) runs on the epoch's thread
        and must see the tables the epoch is mutating, not the checkpoint."""
        broker, solver = gated_broker()
        solver.gate.set()
        inner_solve = solver.solve
        mid_epoch = []

        def solve(problem):
            mid_epoch.append((broker.status("s1").state, broker.pending_count))
            return inner_solve(problem)

        solver.solve = solve
        broker.submit(request("s1"))
        broker.advance_epoch(0)
        assert mid_epoch == [("requested", 0)]

    def test_one_journal_per_epoch_serves_rollback_reads_and_events(self, monkeypatch):
        broker, solver = gated_broker()
        solver.gate.set()
        orchestrator = broker.orchestrator
        journals = []

        class CountedJournal(Journal):
            def __init__(self):
                super().__init__()
                journals.append(self)

        monkeypatch.setattr(orchestrator_module, "Journal", CountedJournal)
        # Twenty dormant lives the epochs below never touch.
        for index in range(20):
            orchestrator.registry.register(request(f"old{index}").to_request())
            orchestrator.registry.mark_rejected(f"old{index}")
        built = []
        record_init = SliceRecord.__init__

        def counted_init(record, *args, **kwargs):
            built.append(len(journals))
            record_init(record, *args, **kwargs)

        monkeypatch.setattr(SliceRecord, "__init__", counted_init)
        broker.submit(request("s1"))
        published = []
        publish = broker._publish_epoch_view

        def recording_publish(checkpoint):
            published.append(checkpoint)
            publish(checkpoint)

        broker._publish_epoch_view = recording_publish
        derive_events = broker._derive_events
        derived_from = []

        def recording_derive_events(epoch, checkpoint, decision):
            derived_from.append(checkpoint)
            return derive_events(epoch, checkpoint, decision)

        broker._derive_events = recording_derive_events
        kinds = [
            [event.kind.value for event in broker.advance_epoch(epoch).events]
            for epoch in range(3)
        ]
        assert kinds == [["admitted"], [], ["expired"]]
        assert len(journals) == 3
        # The published view reads through the epoch's journal, and the
        # same checkpoint is where the events come from.
        assert [view.journal for view in published] == journals
        assert derived_from == published
        # No record copies: the only records built are the transitions of
        # s1 (registered and admitted, maybe re-reserved, expired), never
        # one of the twenty dormant ones.
        per_epoch = [built.count(epoch) for epoch in (1, 2, 3)]
        assert per_epoch[0] == 2 and per_epoch[1] <= 1 and per_epoch[2] == 1
        records = orchestrator.registry._records
        assert all(set(journal.touched(records)) <= {"s1"} for journal in journals)

    def test_list_total_comes_from_the_same_state_as_the_page(self):
        """``GET /v1/slices`` used to take the page and the total in two
        critical sections; a submit landing between them tore the two."""
        broker, solver = gated_broker()
        solver.gate.set()
        for index in range(5):
            broker.submit(request(f"s{index}", arrival=9))
        read_source = broker._read_source
        racers = []

        def racing_read_source():
            source = read_source()
            if not racers:
                # What a concurrent tenant would do right after the page's
                # critical section: with one section there is no "after".
                racers.append(
                    threading.Thread(
                        target=broker.submit, args=(request("racer", arrival=9),)
                    )
                )
                racers[0].start()
            return source

        broker._read_source = racing_read_source
        with BrokerServer(broker) as server, BrokerClient(server.host, server.port) as client:
            page = client.list_slices(limit=2)
            assert [status.name for status in page] == ["s0", "s1"]
            assert page.total == 5
            racers[0].join(GUARD_S)
            assert not racers[0].is_alive()
            in_process = broker.list_slices(offset=1, limit=2)
            assert (in_process.total, in_process.offset) == (broker.slice_count(), 1) == (6, 1)


# --------------------------------------------------------------------- #
# History check against the sequential lifecycle model
# --------------------------------------------------------------------- #
class LifecycleModel:
    """The broker's slice lifecycle as a sequential state machine.

    Admission outcomes are an input (the accepted set of the real epoch's
    report): the model pins the lifecycle, not the solver.
    """

    LEGAL = {
        None: {"queued"},
        "queued": {"requested", "admitted", "rejected", "released"},
        "requested": {"admitted", "rejected"},
        "admitted": {"expired", "released"},
        "rejected": {"queued"},
        "expired": {"queued"},
        "released": {"queued"},
    }

    def __init__(self):
        self.queue: dict[str, tuple[int, int]] = {}
        self.records: dict[str, dict] = {}
        self.withdrawn: set[str] = set()

    def submit(self, name, arrival, duration):
        self.queue[name] = (arrival, duration)
        self.withdrawn.discard(name)

    def release(self, name):
        record = self.records.get(name)
        if record is not None and record["state"] == "admitted":
            record["state"] = "released"
        else:
            del self.queue[name]
            if record is None:
                self.withdrawn.add(name)

    def advance(self, epoch, accepted):
        for record in self.records.values():
            if record["state"] == "admitted" and epoch >= record["until"]:
                record["state"] = "expired"
        for name, (arrival, duration) in list(self.queue.items()):
            if arrival <= epoch:
                del self.queue[name]
                previous = self.records.get(name)
                self.records[name] = {
                    "state": "requested",
                    "duration": duration,
                    "renewals": 0 if previous is None else previous["renewals"] + 1,
                }
        for name, record in self.records.items():
            if record["state"] == "requested":
                admitted = name in accepted
                record["state"] = "admitted" if admitted else "rejected"
                record["until"] = epoch + record["duration"]

    def view(self) -> dict[str, tuple[str, int]]:
        view = {name: ("released", 0) for name in self.withdrawn}
        for name, record in self.records.items():
            view[name] = (record["state"], record["renewals"])
        for name in self.queue:
            record = self.records.get(name)
            if record is None or record["state"] != "admitted":
                view[name] = ("queued", 0 if record is None else record["renewals"])
        return view


class TestHistoryAgainstSequentialModel:
    def test_every_read_is_one_model_state_and_readers_only_move_forward(self):
        """One driver thread runs a scripted lifecycle (submits, releases,
        gated epochs, one rolled-back epoch) and steps the model beside it;
        reader threads -- in process and over the wire -- list the broker
        the whole time and stamp every read with the logical window it
        overlapped: ``lo`` = operations completed when it began, ``hi`` =
        operations started when it ended.  Each read must equal the model
        after exactly ``v`` operations for some ``lo <= v <= hi`` -- whole,
        never a mix of two versions -- and the ``v`` of one reader's
        successive reads never decreases.  While an epoch is parked, ``hi -
        lo`` is 1: the read is the state before or after that epoch."""
        broker, solver = gated_broker()
        model = LifecycleModel()
        versions = [model.view()]
        clock = {"started": 0, "completed": 0}
        progress = threading.Condition()
        reads_done = [0, 0, 0]
        stop = threading.Event()
        histories: list[list] = [[], [], []]

        def reader(index, list_slices):
            while not stop.is_set():
                lo = clock["completed"]
                page = list_slices()
                hi = clock["started"]
                histories[index].append((lo, hi, states(page), page.total))
                with progress:
                    reads_done[index] += 1
                    progress.notify_all()

        def step(operation, apply_to_model):
            clock["started"] += 1
            result = operation()
            apply_to_model(result)
            versions.append(model.view())
            clock["completed"] += 1
            return result

        def submit(name, arrival, duration):
            # eMBB: three fit the testbed at once, so the script sees
            # admissions and rejections side by side.
            payload = SliceRequestV1.of(
                name, "eMBB", duration_epochs=duration, arrival_epoch=arrival
            )
            step(
                lambda: broker.submit(payload),
                lambda _: model.submit(name, arrival, duration),
            )

        def release(name, epoch):
            step(lambda: broker.release(name, epoch=epoch), lambda _: model.release(name))

        def gated_epoch(epoch, *, fail=False):
            def operation():
                in_flight = EpochInFlight(solver, broker.advance_epoch, epoch, fail=fail)
                in_flight.parked()
                # Hold the solver until every reader has completed two more
                # reads: at least one began and ended inside this epoch.
                target = [count + 2 for count in reads_done]
                with progress:
                    assert progress.wait_for(
                        lambda: all(d >= t for d, t in zip(reads_done, target)), GUARD_S
                    ), "a reader stalled while the solver was held"
                return in_flight.finish()

            def apply(outcome):
                if fail:
                    assert isinstance(outcome, SolverError)
                else:
                    model.advance(epoch, set(outcome.accepted))

            step(operation, apply)

        with BrokerServer(broker) as server, BrokerClient(server.host, server.port) as client:
            threads = [
                threading.Thread(target=reader, args=(0, broker.list_slices)),
                threading.Thread(target=reader, args=(1, broker.list_slices)),
                threading.Thread(target=reader, args=(2, client.list_slices)),
            ]
            for thread in threads:
                thread.start()
            try:
                for name, arrival, duration in (
                    ("a", 0, 2), ("b", 0, 3), ("x", 0, 2), ("y", 0, 2),
                    ("c", 1, 2), ("gone", 7, 1),
                ):
                    submit(name, arrival, duration)
                gated_epoch(0)  # a, b, y admitted; x rejected
                release("gone", 0)  # cancelled while queued
                submit("d", 1, 1)
                gated_epoch(1)  # c, d rejected
                release("b", 1)  # early release of an admitted slice
                submit("a", 2, 2)  # renewal booked for a's expiry epoch
                gated_epoch(2, fail=True)  # rolled back
                gated_epoch(2)  # a expires and renews; y expires
                submit("b", 3, 1)  # renewal of the released name
                gated_epoch(3)
                submit("c", 4, 1)  # renewal of a rejected name
                gated_epoch(4)  # a, b expire
            finally:
                stop.set()
                solver.gate.set()
                for thread in threads:
                    thread.join(GUARD_S)
            assert not any(thread.is_alive() for thread in threads)

        # The model itself walks the lifecycle: per name, every change of
        # state is a legal transition, and renewals only count up.
        for name in versions[-1]:
            walk = [version.get(name, (None, 0)) for version in versions]
            for (before, renewals_before), (after, renewals_after) in zip(walk, walk[1:]):
                assert renewals_after >= renewals_before
                if (before, renewals_before) != (after, renewals_after):
                    hops = LifecycleModel.LEGAL[before]
                    # One epoch can carry queued -> requested -> admitted or
                    # admitted -> expired -> (renewal) requested -> admitted.
                    two_hops = {s for hop in hops for s in LifecycleModel.LEGAL[hop]}
                    three_hops = {s for hop in two_hops for s in LifecycleModel.LEGAL[hop]}
                    assert after in hops | two_hops | three_hops, (name, before, after)
        seen_states = {state for version in versions for state, _ in version.values()}
        assert seen_states == {"queued", "admitted", "rejected", "expired", "released"}
        assert max(renewals for _, renewals in versions[-1].values()) == 1

        # Every read is one whole model version inside its window, and each
        # reader's versions are monotone.
        inside_an_epoch = 0
        for history in histories:
            assert history, "a reader never ran"
            floor = 0
            for lo, hi, observed, total in history:
                matching = [
                    v
                    for v in range(max(lo, floor), hi + 1)
                    if versions[v] == observed
                ]
                assert matching, (lo, hi, observed, versions[lo : hi + 1])
                assert total == len(observed)
                floor = matching[0]
                inside_an_epoch += hi - lo == 1
        assert inside_an_epoch >= 6 * len(histories)


class TestReadsRaceEveryTransition:
    """Readers race epochs that register, renew, reject, expire and re-home,
    with a release in between, parked after the last registry write of
    each epoch: a status, listing or count is the state before the epoch
    or the state after it, never a mix.  An epoch writes records by
    replacing them; a writer editing a record in place would leak its
    post-epoch state into the pre-epoch view, and these reads would see
    it."""

    NAMES = ("a", "b", "c", "x", "y", "d", "e", "nope")

    def observe(self, broker: SliceBroker) -> dict:
        """Every read the racers make, made sequentially."""
        reads = {"list": self.read(broker, "list"), "count": broker.slice_count()}
        for name in self.NAMES:
            reads[name] = self.read(broker, name)
        return reads

    @staticmethod
    def read(broker: SliceBroker, what: str):
        if what == "list":
            page = broker.list_slices()
            return states(page), page.total
        if what == "count":
            return broker.slice_count()
        try:
            return broker.status(what).to_dict()
        except LifecycleError:
            return "unknown"

    def test_every_read_is_the_state_before_or_after_the_epoch(self):
        broker = SliceBroker(topology=operators.testbed_topology(), solver=DirectMILPSolver())
        parked, resume = threading.Event(), threading.Event()

        def park_after_the_registry_writes(hook: str) -> None:
            if hook == "controller.cloud.apply":
                parked.set()
                assert resume.wait(GUARD_S), "the test never resumed the epoch"

        broker.orchestrator.controllers.fault_hook = park_after_the_registry_writes
        stop = threading.Event()
        reads: list[tuple[str, object]] = []
        done = [0, 0, 0]
        kinds = ["list", "count", *self.NAMES]

        def reader(index: int) -> None:
            turn = index
            while not stop.is_set():
                what = kinds[turn % len(kinds)]
                reads.append((what, self.read(broker, what)))
                done[index] += 1
                turn += 1

        def raced_epoch(epoch: int):
            before = self.observe(broker)
            del reads[:]
            parked.clear()
            resume.clear()
            outcome: list = []
            epoch_thread = threading.Thread(
                target=lambda: outcome.append(broker.advance_epoch(epoch))
            )
            epoch_thread.start()
            assert parked.wait(GUARD_S), "the epoch never reached the controllers"
            target = [count + 2 * len(kinds) for count in done]
            deadline = time.monotonic() + GUARD_S
            while any(d < t for d, t in zip(done, target)) and time.monotonic() < deadline:
                time.sleep(0.001)
            resume.set()
            epoch_thread.join(GUARD_S)
            assert not epoch_thread.is_alive()
            after = self.observe(broker)
            assert before != after
            for what, seen in list(reads):
                assert seen in (before[what], after[what]), (epoch, what, seen)
            return outcome[0]

        threads = [threading.Thread(target=reader, args=(index,)) for index in range(3)]
        for thread in threads:
            thread.start()
        try:
            for name, duration in (("a", 1), ("b", 3), ("c", 3), ("x", 3), ("y", 3)):
                broker.submit(SliceRequestV1.of(name, "eMBB", duration_epochs=duration))
            first = raced_epoch(0)
            assert first.accepted and first.rejected
            # A release, a renewal of a rejected name, and a new arrival.
            released = next(name for name in first.accepted if name != "a")
            broker.release(released, epoch=0)
            broker.submit(
                SliceRequestV1.of(first.rejected[0], "eMBB", duration_epochs=3, arrival_epoch=1)
            )
            broker.submit(SliceRequestV1.of("d", "eMBB", duration_epochs=3, arrival_epoch=1))
            second = raced_epoch(1)
            # Cut a link that carries an admitted slice: the next epoch
            # re-homes it.
            transport = broker.orchestrator.controllers.transport
            key = next(key for key, slices in transport.reservations_mbps.items() if slices)
            broker.inject_link_failure([key], 0.001)
            broker.submit(SliceRequestV1.of("e", "eMBB", duration_epochs=2, arrival_epoch=2))
            third = raced_epoch(2)
        finally:
            stop.set()
            resume.set()
            for thread in threads:
                thread.join(GUARD_S)
        events = {event.kind.value for report in (first, second, third) for event in report.events}
        assert {"admitted", "rejected", "expired", "renewed"} <= events
        assert third.rehomed
