"""Pluggable executors for fanning out independent runs.

The campaign layer (:mod:`repro.experiments.campaign`) and the policy
comparison helper (:func:`repro.simulation.runner.compare_policies`) both
need to map a pure function over a list of independent work items.  The
executor contract is deliberately tiny so tests can run serially while the
default path fans out over a pool:

* ``map(fn, items, on_result=None)`` applies ``fn`` to every item and
  returns the results **in item order**; ``on_result`` is invoked with each
  result as soon as it is available (item order serially, completion order
  in the pool), which the campaign layer uses to persist records
  incrementally -- even when one run fails, every run that completed is
  persisted before the failure propagates, so an aborted sweep resumes
  from all finished work;
* a failure raised by a *run* always wins over a failure raised by the
  ``on_result`` consumer (run failures carry the root cause; the consumer
  is bookkeeping), and either failure cancels work that has not started;
* ``fn`` and the items must be picklable for the process-pool executor
  (``fn`` must be a module-level function);
* executors are stateless between ``map`` calls and may be reused.

Because every work item carries its own seed (derived via
:func:`repro.utils.rng.derive_seed`, which is stable across processes), the
results are identical whichever executor runs them -- a property the test
suite asserts explicitly.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def _consume(
    results: Iterable[R], on_result: Callable[[R], None] | None
) -> list[R]:
    collected: list[R] = []
    for result in results:
        if on_result is not None:
            on_result(result)
        collected.append(result)
    return collected


def _drain_pool(
    futures: list["concurrent.futures.Future[R]"],
    on_result: Callable[[R], None] | None,
) -> list[R]:
    """Drain ``futures`` in completion order, then return results in order.

    Failure semantics of the pool executor: every finished result
    still reaches ``on_result`` before a failure propagates; the first *run*
    failure takes precedence over a failure raised by ``on_result`` itself;
    either kind of failure cancels futures that have not started yet so the
    pool shuts down promptly instead of finishing doomed work.
    """
    first_failure: BaseException | None = None
    consumer_failure: BaseException | None = None

    def cancel_pending() -> None:
        # Cancel immediately, not after the drain: futures that have not
        # been handed to a worker yet are dropped, so a failed sweep stops
        # scheduling doomed work while the already-running futures finish.
        for future in futures:
            future.cancel()

    for future in concurrent.futures.as_completed(futures):
        if future.cancelled():
            continue
        try:
            result = future.result()
        except BaseException as exc:
            if first_failure is None:
                first_failure = exc
                cancel_pending()
            continue
        if on_result is not None and consumer_failure is None:
            try:
                on_result(result)
            except BaseException as exc:
                # Keep draining what still completes: those runs already
                # did their work; we only stop forwarding to the broken
                # consumer.  A run failure discovered later still wins.
                consumer_failure = exc
                cancel_pending()
    failure = first_failure or consumer_failure
    if failure is not None:
        raise failure
    return [future.result() for future in futures]


class SerialExecutor:
    """Run every item in the calling process, one after the other."""

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        on_result: Callable[[R], None] | None = None,
    ) -> list[R]:
        return _consume((fn(item) for item in items), on_result)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ProcessPoolRunExecutor:
    """Fan items out over a :class:`concurrent.futures.ProcessPoolExecutor`.

    ``max_workers=None`` lets the pool pick one worker per CPU.  The pool is
    created per ``map`` call so the executor object itself stays picklable
    and carries no OS resources between sweeps.
    """

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive (or None for the default)")
        self.max_workers = max_workers

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        on_result: Callable[[R], None] | None = None,
    ) -> list[R]:
        items = list(items)
        if len(items) <= 1:  # not worth a pool
            return _consume((fn(item) for item in items), on_result)
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=self.max_workers
        ) as pool:
            return _drain_pool([pool.submit(fn, item) for item in items], on_result)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessPoolRunExecutor(max_workers={self.max_workers})"


def default_executor(workers: int | None) -> SerialExecutor | ProcessPoolRunExecutor:
    """Executor selection used by the CLI: ``0``/``1``/``None`` mean serial."""
    if workers is None or workers <= 1:
        return SerialExecutor()
    return ProcessPoolRunExecutor(max_workers=workers)


__all__ = [
    "SerialExecutor",
    "ProcessPoolRunExecutor",
    "default_executor",
]
