"""Deterministic enactment of a :class:`~repro.faults.plan.FaultPlan`.

The :class:`FaultInjector` is the single stateful object of the chaos layer:
it tracks how many times each hook point was invoked in each epoch, decides
(purely from the plan) which invocations a fault covers, and keeps an append
-only log of every fault that actually fired -- the broker reads that log to
flag committed epochs as degraded, and the fault-matrix tests read it to
know whether an invariant about "the fault fired" applies at all (decision
reuse can legally skip the solver hook in a steady-state epoch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.faults.plan import (
    HOOK_SOLVER,
    HOOK_TOPOLOGY,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    SolverBudgetExceededError,
    TransientSolverError,
)
from repro.utils.rng import derive_seed, make_rng


@dataclass(frozen=True)
class FiredFault:
    """One fault that actually fired (epoch, hook, kind)."""

    epoch: int
    hook: str
    kind: FaultKind


def _exception_for(spec: FaultSpec) -> InjectedFaultError:
    message = f"injected {spec.kind.value} fault at {spec.hook} (epoch {spec.epoch})"
    if spec.kind is FaultKind.TRANSIENT:
        return TransientSolverError(message)
    if spec.kind is FaultKind.BUDGET:
        return SolverBudgetExceededError(message)
    return InjectedFaultError(message)


class FaultInjector:
    """Fires the faults of one plan at the control plane's hook points.

    Wiring (see :func:`attach_injector`): the orchestrator calls
    :meth:`begin_epoch` at the top of ``run_epoch`` and
    :meth:`link_faults` for mid-epoch topology damage; ``ControllerSet`` and
    ``ForecastingBlock`` call :meth:`enact` (a ``Callable[[str], None]``)
    at their hook points; :class:`ChaosSolver` proxies the primary solver.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._epoch = 0
        #: (hook, epoch) -> number of invocations seen so far.
        self._invocations: dict[tuple[str, int], int] = {}
        #: Every fault that fired, in firing order.
        self.fired: list[FiredFault] = []
        #: Epochs whose LINK_DOWN specs were already resolved and applied --
        #: a rolled-back epoch's retry must not damage the topology twice.
        self._resolved_link_epochs: set[int] = set()

        #: Index into :attr:`fired` at the start of the current run_epoch
        #: attempt (a retried epoch begins a fresh attempt).
        self._attempt_mark = 0

    # ------------------------------------------------------------------ #
    def begin_epoch(self, epoch: int) -> None:
        """Anchor subsequent hook firings to ``epoch``.

        Also marks an attempt boundary: faults fired by a rolled-back
        attempt of the same epoch stay in :attr:`fired` (forensics) but are
        excluded from :meth:`fired_in_attempt`, so a clean retry's report is
        not flagged degraded by its predecessor's faults.
        """
        self._epoch = epoch
        self._attempt_mark = len(self.fired)

    @property
    def epoch(self) -> int:
        return self._epoch

    def fire(self, hook: str) -> FaultSpec | None:
        """Record one invocation of ``hook``; return the covering spec if any.

        Specs targeting the same (hook, epoch) cover consecutive invocation
        ranges in plan order: spec #1 with ``times=2`` covers invocations 1-2,
        a following spec covers invocation 3, and so on -- so a retry loop
        deterministically consumes a transient fault's budget.
        """
        key = (hook, self._epoch)
        count = self._invocations.get(key, 0) + 1
        self._invocations[key] = count
        cumulative = 0
        for spec in self.plan.specs_for(hook, self._epoch):
            cumulative += spec.times
            if count <= cumulative:
                self.fired.append(FiredFault(self._epoch, hook, spec.kind))
                return spec
        return None

    def enact(self, hook: str) -> None:
        """Hook-point callable: raise the covering fault, if any."""
        spec = self.fire(hook)
        if spec is not None:
            raise _exception_for(spec)

    def link_faults(self, epoch: int, topology) -> list[tuple[tuple[str, str], float]]:
        """Resolve this epoch's ``LINK_DOWN`` specs to (link key, factor) pairs.

        Explicit ``links`` params are taken verbatim; fractional specs sample
        ``ceil(fraction * num_links)`` links from the sorted key list with an
        rng derived from ``(plan.seed, "link_down", epoch, spec index)`` --
        the same plan against the same topology always damages the same
        links.  Each resolved spec is logged as fired.
        """
        if epoch in self._resolved_link_epochs:
            return []
        self._resolved_link_epochs.add(epoch)
        resolved: list[tuple[tuple[str, str], float]] = []
        specs = self.plan.specs_for(HOOK_TOPOLOGY, epoch)
        for index, spec in enumerate(specs):
            factor = float(spec.params["factor"])
            if "links" in spec.params:
                keys = [tuple(sorted(key)) for key in spec.params["links"]]
            else:
                all_keys = sorted(link.key for link in topology.links)
                count = min(
                    len(all_keys),
                    max(1, math.ceil(float(spec.params["fraction"]) * len(all_keys))),
                )
                rng = make_rng(derive_seed(self.plan.seed, "link_down", epoch, index))
                chosen = rng.choice(len(all_keys), size=count, replace=False)
                keys = [all_keys[i] for i in sorted(chosen)]
            resolved.extend((key, factor) for key in keys)
            if keys:
                self.fired.append(FiredFault(epoch, HOOK_TOPOLOGY, spec.kind))
        return resolved

    # ------------------------------------------------------------------ #
    def fired_in_epoch(self, epoch: int) -> list[FiredFault]:
        """Every fault fired at ``epoch``, across all attempts."""
        return [fault for fault in self.fired if fault.epoch == epoch]

    def fired_in_attempt(self) -> list[FiredFault]:
        """Faults fired since the last :meth:`begin_epoch` (current attempt)."""
        return list(self.fired[self._attempt_mark :])


class ChaosSolver:
    """Transparent solver proxy that injects ``solver.solve`` faults.

    Keeps the fault logic out of :class:`~repro.core.benders.BendersSolver`
    itself: production solves never pay for a chaos check, and any solver
    implementing ``solve(problem)`` can be proxied.  The proxy holds no
    epoch state: the inner solver's is declared on the inner solver.
    """

    JOURNALED_PARTS = ("inner",)

    def __init__(self, inner, injector: FaultInjector):
        self.inner = inner
        self.injector = injector

    def solve(self, problem):
        self.injector.enact(HOOK_SOLVER)
        return self.inner.solve(problem)


def attach_injector(orchestrator, injector: FaultInjector) -> FaultInjector:
    """Bind an injector to an orchestrator's hook points.

    Sets the orchestrator's ``fault_injector`` (epoch anchoring + topology
    faults), the controller set's ``fault_hook`` and the forecasting block's
    ``fault_hook``.  The solver is *not* wrapped here -- build the solver
    stack explicitly (e.g. ``SafeguardedSolver(ChaosSolver(benders,
    injector), ...)``) so the chaos proxy sits exactly where the plan says
    faults should land.
    """
    orchestrator.fault_injector = injector
    orchestrator.controllers.fault_hook = injector.enact
    orchestrator.forecasting.fault_hook = injector.enact
    return injector
