"""Span recording at the program's public seams, from outside the program.

A traced pass runs the same ops as an untraced one, with timing proxies
slipped in where the program lets a caller inject or swap a collaborator
(the solver argument of ``SliceBroker``, the orchestrator's ``forecasting``
/ ``problem_cache`` / ``controllers`` attributes, its ``run_epoch``) and
``with span(...)`` blocks in the benchmark's own op code around every other
call into a layer.  Nothing under ``src/`` knows about any of this.

Spans are kept in memory as ``[name, start, end, parent, op]`` rows (parent
is the row index of the enclosing span, -1 at the top; op is the index of
the benchmark op that caused the span) and are only aggregated or written
once the passes are over.  A :class:`Tracer` belongs to one thread.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

NAME, START, END, PARENT, OP = range(5)


class _Span:
    __slots__ = ("_tracer", "_name", "_row")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        tracer = self._tracer
        stack = tracer._stack
        row = [self._name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
        stack.append(len(tracer.spans))
        tracer.spans.append(row)
        self._row = row
        row[START] = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self._row[END] = time.perf_counter()
        self._tracer._stack.pop()


class Tracer:
    """Single-threaded in-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Index of the benchmark op in flight, stamped on every span.
        self.op = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, function, name: str):
        """``function`` timed under ``name`` on every call."""

        @functools.wraps(function)
        def timed(*args, **kwargs):
            with _Span(self, name):
                return function(*args, **kwargs)

        return timed

    def proxy(self, target, **span_names: str) -> "TimingProxy":
        """A stand-in for ``target`` whose named methods are timed."""
        return TimingProxy(target, self, span_names)


class TimingProxy:
    """Delegates everything to ``target``; times the methods it was told to.

    The orchestrator's decision-reuse key compares the solver by identity,
    so one proxy object kept for the life of a broker is a stable key.
    """

    def __init__(self, target, tracer: Tracer, span_names: dict[str, str]):
        object.__setattr__(self, "_target", target)
        for method, name in span_names.items():
            object.__setattr__(self, method, tracer.wrap(getattr(target, method), name))

    def __getattr__(self, attribute):
        return getattr(self._target, attribute)

    def __setattr__(self, attribute, value) -> None:
        setattr(self._target, attribute, value)


def null_span(name: str):
    """What an untraced pass uses in place of ``Tracer.span``."""
    return _NULL


_NULL = contextlib.nullcontext()


def layer_totals(spans: list[list], weight=None) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and self seconds.

    ``weight(row)`` scales a row's seconds; rows it weighs 0 are left out.
    Self time is a span's duration minus the part its direct children cover.
    """
    child_time = [0.0] * len(spans)
    for row in spans:
        if row[PARENT] >= 0:
            child_time[row[PARENT]] += row[END] - row[START]
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for index, row in enumerate(spans):
        scale = 1.0 if weight is None else weight(row)
        if not scale:
            continue
        entry = totals[row[NAME]]
        duration = row[END] - row[START]
        entry["calls"] += 1
        entry["total_s"] += scale * duration
        entry["self_s"] += scale * (duration - child_time[index])
    return dict(totals)


def subtree_self_seconds(spans: list[list], root_name: str) -> tuple[float, float]:
    """(sum of durations of ``root_name`` spans, sum of self times beneath them).

    The two agree when every child lies inside its parent and siblings do
    not overlap -- the balance the smoke test asserts.
    """
    child_time = [0.0] * len(spans)
    inside = [False] * len(spans)
    root_total = 0.0
    self_total = 0.0
    for index, row in enumerate(spans):
        parent = row[PARENT]
        duration = row[END] - row[START]
        if parent >= 0:
            child_time[parent] += duration
        if row[NAME] == root_name and not (parent >= 0 and inside[parent]):
            inside[index] = True
            root_total += duration
        elif parent >= 0 and inside[parent]:
            inside[index] = True
    for index, row in enumerate(spans):
        if inside[index]:
            self_total += row[END] - row[START] - child_time[index]
    return root_total, self_total
