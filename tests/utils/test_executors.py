"""Failure semantics of the pooled run executors (PR 7 regressions).

The pre-fix ``ProcessPoolRunExecutor.map`` had two bugs this file pins:

* an exception raised by the ``on_result`` consumer *masked* an earlier (or
  later) run failure, so the sweep driver reported the bookkeeping error
  instead of the root cause;
* neither failure cancelled the futures that had not started yet, so a
  failed sweep kept burning workers on doomed runs.

The contract under test (module docstring of ``repro.utils.executors``):
results come back in item order, a run failure always wins over a consumer
failure, and either failure cancels pending work.
"""

from __future__ import annotations

import time

import pytest

from repro.utils.executors import (
    ProcessPoolRunExecutor,
    SerialExecutor,
    default_executor,
)

POOLED = [ProcessPoolRunExecutor]


class RunError(RuntimeError):
    pass


class ConsumerError(RuntimeError):
    pass


# Module-level work functions so the process pool can pickle them.
def _identity(item):
    return item


def _fail_on_negative(item):
    if item < 0:
        raise RunError(f"run failed on {item}")
    return item


def _fail_fast_then_sleep(work):
    # Item 0 fails immediately; the rest are slow, so the drain sees the
    # failure while most of the queue is still pending.  Every run leaves a
    # marker file behind so the parent can count what actually started.
    directory, item = work
    (directory / f"started-{item}").touch()
    if item == 0:
        raise RunError("doomed sweep")
    time.sleep(0.05)
    return item


def _slow_success_fast_failure(item):
    # Failures complete (and are observed) before any success does.
    if item < 0:
        raise RunError(f"run failed on {item}")
    time.sleep(0.05)
    return item


def _fast_success_slow_failure(item):
    # The first event the drain sees is a success; the run failure is
    # already in flight (so cancellation cannot suppress it) but lands
    # only after the consumer has broken.  The sleeps are generous because
    # pool workers spin up lazily: the failing run must have *started*
    # before the success completes, or cancellation would (correctly)
    # drop it.
    if item < 0:
        time.sleep(1.0)
        raise RunError(f"run failed on {item}")
    time.sleep(0.4)
    return item


def _sleep_inverse(item):
    # Later items finish *earlier*: completion order is the reverse of item
    # order, which is exactly what the in-order return must hide.
    time.sleep(0.02 * (4 - item))
    return item


class TestOrdering:
    @pytest.mark.parametrize("executor_cls", POOLED)
    def test_results_in_item_order_despite_completion_order(self, executor_cls):
        results = executor_cls(max_workers=4).map(_sleep_inverse, [0, 1, 2, 3])
        assert results == [0, 1, 2, 3]

    @pytest.mark.parametrize("executor_cls", POOLED)
    def test_on_result_sees_every_result(self, executor_cls):
        seen = []
        results = executor_cls(max_workers=2).map(
            _identity, [1, 2, 3], on_result=seen.append
        )
        assert results == [1, 2, 3]
        assert sorted(seen) == [1, 2, 3]

    def test_serial_matches_pool(self):
        items = list(range(6))
        assert SerialExecutor().map(_identity, items) == ProcessPoolRunExecutor(
            max_workers=3
        ).map(_identity, items)


class TestFailurePrecedence:
    """A run failure carries the root cause; the consumer is bookkeeping."""

    @pytest.mark.parametrize("executor_cls", POOLED)
    def test_run_failure_first_wins_over_later_consumer_failure(self, executor_cls):
        # Ordering 1: the run failure is observed first, then a success is
        # forwarded to a consumer that breaks.  The run failure must win.
        def broken_consumer(result):
            raise ConsumerError("persistence broke")

        with pytest.raises(RunError):
            executor_cls(max_workers=2).map(
                _slow_success_fast_failure, [-1, 1, 2], on_result=broken_consumer
            )

    @pytest.mark.slow
    def test_late_run_failure_wins_in_process_pool(self):
        # Ordering 2: the consumer breaks on the first success while the
        # failing run is still executing.  The run failure discovered later
        # must still win -- this is the masking bug the fix pins down.
        # Closures cannot carry an event into a worker process: generous
        # sleeps stand in for the rendezvous.
        def broken_consumer(result):
            raise ConsumerError("persistence broke")

        with pytest.raises(RunError):
            ProcessPoolRunExecutor(max_workers=2).map(
                _fast_success_slow_failure, [1, -1], on_result=broken_consumer
            )

    @pytest.mark.parametrize("executor_cls", POOLED)
    def test_consumer_failure_propagates_when_runs_succeed(self, executor_cls):
        def broken_consumer(result):
            raise ConsumerError("persistence broke")

        with pytest.raises(ConsumerError):
            executor_cls(max_workers=2).map(
                _identity, [1, 2, 3], on_result=broken_consumer
            )

    def test_run_failure_wins_in_serial_executor_too(self):
        def broken_consumer(result):
            raise ConsumerError("persistence broke")

        # Serially the first event is the consumer failure on item 1; the
        # generator stops there, so the consumer error is the honest outcome.
        with pytest.raises(ConsumerError):
            SerialExecutor().map(
                _fail_on_negative, [1, -1], on_result=broken_consumer
            )

    @pytest.mark.parametrize("executor_cls", POOLED)
    def test_completed_results_reach_consumer_before_run_failure(self, executor_cls):
        seen = []
        with pytest.raises(RunError):
            executor_cls(max_workers=1).map(
                _fail_on_negative, [1, 2, -1], on_result=seen.append
            )
        # With one worker the successes complete before the failing item
        # runs: an aborted sweep persists all finished work.  (as_completed
        # yields already-finished futures in unspecified order, so only the
        # membership is contractual, not the forwarding order.)
        assert sorted(seen) == [1, 2]


class TestCancellation:
    # Running all 12 items would leave 12 markers; cancellation keeps it to
    # the first item plus what the pool had already handed to its one worker
    # (the process pool pre-queues one call beyond the running one).
    def test_pending_futures_are_cancelled_on_run_failure(self, tmp_path):
        # One worker, a fast failure, then a queue of slow items: after the
        # failure is observed, the still-pending futures must be cancelled,
        # so only the item(s) already grabbed by the worker can still run.
        with pytest.raises(RunError):
            ProcessPoolRunExecutor(max_workers=1).map(
                _fail_fast_then_sleep, [(tmp_path, item) for item in range(12)]
            )
        started = len(list(tmp_path.iterdir()))
        assert 1 <= started <= 6, f"pending work was not cancelled ({started} ran)"

    def test_pending_futures_are_cancelled_on_consumer_failure(self, tmp_path):
        def broken_consumer(result):
            raise ConsumerError("persistence broke")

        with pytest.raises(ConsumerError):
            ProcessPoolRunExecutor(max_workers=1).map(
                _fail_fast_then_sleep,
                [(tmp_path, item) for item in [99] + list(range(1, 12))],
                on_result=broken_consumer,
            )
        started = len(list(tmp_path.iterdir()))
        assert 1 <= started <= 6, f"pending work was not cancelled ({started} ran)"


class TestResolution:
    def test_default_executor_serial_for_single_worker(self):
        assert isinstance(default_executor(None), SerialExecutor)
        assert isinstance(default_executor(1), SerialExecutor)
        pooled = default_executor(3)
        assert isinstance(pooled, ProcessPoolRunExecutor)
        assert pooled.max_workers == 3

    @pytest.mark.parametrize("executor_cls", POOLED)
    def test_rejects_non_positive_workers(self, executor_cls):
        with pytest.raises(ValueError):
            executor_cls(max_workers=0)
