"""The end-to-end orchestrator (the paper's OVNES).

This is the central, stateful control-plane component.  Every decision epoch
it:

1. collects the slice requests released by the slice manager and the slices
   admitted in earlier epochs that are still active (constraint (13));
2. turns the monitoring history of each slice into a peak-load forecast and
   an uncertainty estimate (the Forecasting block);
3. builds the AC-RR problem of Section 3 and solves it with the configured
   algorithm (Benders, KAC, direct MILP, or the no-overbooking baseline);
4. records admissions/rejections in the slice registry and pushes the new
   reservations to the RAN, transport and cloud controllers.

The orchestrator is deliberately independent of the simulation engine: any
driver that feeds it requests and monitoring samples (a testbed adapter, a
trace replayer, the bundled simulator) gets the same behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

import numpy as np

from repro.controlplane.controllers import ControllerSet
from repro.controlplane.monitoring import MonitoringService
from repro.controlplane.slice_manager import QueueView, SliceManager
from repro.controlplane.state import (
    TERMINAL_STATES,
    RegistryView,
    SliceRegistry,
    SliceState,
    SliceStateError,
)
from repro.core.forecast_inputs import ForecastInput
from repro.core.problem import ACRRProblem, ProblemOptions, ProblemStructureCache
from repro.core.slices import SliceRequest
from repro.core.solution import OrchestrationDecision
from repro.faults.safeguard import TIER_PRIMARY
from repro.forecasting import (
    DoubleExponentialForecaster,
    Forecaster,
    ForecastOutcome,
    HoltWintersForecaster,
    NaiveForecaster,
    RecursiveForecaster,
)
from repro.topology.generators import degrade_link_capacities
from repro.topology.network import NetworkTopology
from repro.topology.paths import compute_path_sets
from repro.utils.journal import Journal, assign
from repro.utils.validation import ensure_non_negative_int

#: ``stats.message`` of a decision the orchestrator reused instead of
#: running the solver.
REUSED_MESSAGE = "reused unchanged decision from previous epoch"

#: The forecasting chain's last tier before the pessimistic forecast.
_LAST_RESORT = NaiveForecaster()


@dataclass(frozen=True)
class OrchestratorConfig:
    """Static configuration of the orchestrator.

    ``reuse_unchanged_decisions`` short-circuits the solver when the AC-RR
    problem of the current epoch is semantically identical to the previous
    epoch's (same :meth:`~repro.core.problem.ACRRProblem.identity`,
    forecasts, metadata, topology, path set and solver) and the previous
    decision came from the primary tier: every solver in this codebase is
    deterministic, so re-solving an unchanged problem returns the unchanged
    decision.  Steady-state simulations (the Fig. 5 / Fig. 6 oracle
    scenarios) hit this on every epoch after the admission settles; disable
    it when benchmarking raw solver latency.
    """

    epochs_per_day: int = 24
    samples_per_epoch: int = 12
    candidate_paths_per_pair: int = 3
    reuse_unchanged_decisions: bool = True


@dataclass
class ForecastingBlock:
    """Chooses the best forecaster the available history allows.

    The primary algorithm is multiplicative Holt-Winters (one season per
    day); slices younger than two seasons fall back to double exponential
    smoothing, then to the naive last-value predictor, and finally -- with no
    history at all -- to a pessimistic full-SLA forecast (new slices are not
    overbooked until their behaviour has been learnt).
    """

    primary: Forecaster
    fallback: Forecaster = field(default_factory=DoubleExponentialForecaster)
    #: Optional chaos hook, fired on entry of every per-slice forecast (hook
    #: point ``forecast.forecast_for``); ``None`` in production.
    fault_hook: Callable[[str], None] | None = None
    #: Slice name -> ``(forecaster, history, state)``: the recursive tier
    #: that last forecast the slice, the history it folded and the state it
    #: reached.  A pure function of that history, so it needs no checkpoint;
    #: entries are replaced whole, never edited (see DESIGN.md "Forecasting
    #: as a filter").
    _folds: dict[str, tuple[RecursiveForecaster, np.ndarray, Any]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def forecast_for(self, request: SliceRequest, history: np.ndarray) -> ForecastInput:
        """Forecast one slice's next-epoch peak, never raising.

        Forecasting is advisory, so a failure anywhere in the chain -- an
        injected chaos fault or a real forecaster bug -- degrades to the
        next tier instead of failing the epoch, bottoming out at the
        pessimistic full-SLA forecast (the same stance taken for slices with
        no history: an unforecastable slice is simply not overbooked).
        """
        history = np.asarray(history, dtype=float)
        if self.fault_hook is not None:
            try:
                self.fault_hook("forecast.forecast_for")
            except Exception:
                return ForecastInput.pessimistic(request.sla_mbps)
        for forecaster in (self.primary, self.fallback, _LAST_RESORT):
            try:
                if forecaster.can_forecast(history):
                    if isinstance(forecaster, RecursiveForecaster):
                        outcome = self._filter(request.name, forecaster, history)
                    else:
                        outcome = forecaster.forecast(history, horizon=1)
                    return outcome.as_forecast_input(request.sla_mbps)
            except Exception:
                continue
        return ForecastInput.pessimistic(request.sla_mbps)

    def _filter(
        self, name: str, forecaster: RecursiveForecaster, history: np.ndarray
    ) -> ForecastOutcome:
        """``forecaster.forecast(history)``, folding only the peaks that
        arrived since ``name`` was last forecast by the same tier.  Anything
        else -- a raised last peak, a tier change, a renewal the memo forgot
        -- fails the prefix test and folds the history from scratch."""
        observations = forecaster.observations(history)
        entry = self._folds.get(name)
        if entry is not None and entry[0] is forecaster and _is_prefix(entry[1], history):
            state = forecaster.fold(entry[2], observations[entry[1].size :])
        else:
            state = forecaster.fit(observations)
        self._folds[name] = (forecaster, history.copy(), state)
        return forecaster.outcome(state, observations, 1)

    def retain(self, names: Iterable[str]) -> None:
        """Forget every slice but ``names``, the ones this epoch forecast.

        Walks ``names``, never the memo: a lock-free quote may be adding to
        the memo meanwhile, and the memo is replaced, not edited under it."""
        folds = self._folds
        self._folds = {name: folds[name] for name in names if name in folds}


def _is_prefix(prefix: np.ndarray, array: np.ndarray) -> bool:
    return prefix.size <= array.size and np.array_equal(prefix, array[: prefix.size])


@dataclass(frozen=True)
class EpochCheckpoint:
    """What :meth:`E2EOrchestrator.run_epoch` hands its ``on_checkpoint``
    caller: the epoch's write journal, and the pre-epoch registry and intake
    queue read through it.

    Nothing is copied: the journal holds the values the epoch replaced, and
    :attr:`registry` / :attr:`slice_manager` overlay them on the live state
    (same query names as the live objects, so code reading them off the
    orchestrator reads them off the checkpoint unchanged).  The views stay
    the pre-epoch state while the epoch runs, commits or rolls back, until
    the live state is next written outside this journal -- the broker
    withdraws them at the commit point, before anything else can write.
    """

    journal: Journal
    registry: RegistryView
    slice_manager: QueueView


class E2EOrchestrator:
    """Hierarchical end-to-end orchestrator with overbooking support.

    Its own epoch state is the last decision and what produced it
    (``JOURNALED``); the rest lives in its declared parts.  Every write to
    any of it goes through the epoch journal (:mod:`repro.utils.journal`).
    """

    JOURNALED = ("_last_solve", "last_problem", "last_decision", "last_rehomed")
    JOURNALED_PARTS = ("registry", "slice_manager", "controllers", "solver", "problem_cache")

    def __init__(
        self,
        topology: NetworkTopology,
        solver,
        config: OrchestratorConfig | None = None,
        forecasting: ForecastingBlock | None = None,
    ):
        self.topology = topology
        self.solver = solver
        self.config = config or OrchestratorConfig()
        self.path_set = compute_path_sets(topology, k=self.config.candidate_paths_per_pair)
        self.forecasting = forecasting or ForecastingBlock(
            primary=HoltWintersForecaster(season_length=self.config.epochs_per_day)
        )
        self.monitoring = MonitoringService()
        self.slice_manager = SliceManager()
        self.registry = SliceRegistry()
        self.controllers = ControllerSet.for_topology(topology)
        #: Per-slice forecasts that take precedence over the online
        #: forecasting block.  Used by the steady-state evaluation scenarios
        #: (Fig. 5 / Fig. 6), where the orchestrator is assumed to already
        #: know each slice's demand statistics.
        self.forecast_overrides: dict[str, ForecastInput] = {}
        self.last_problem: ACRRProblem | None = None
        self.last_decision: OrchestrationDecision | None = None
        #: Reuses the ACRRProblem skeleton across epochs with an unchanged
        #: request set and options (see DESIGN.md).
        self.problem_cache = ProblemStructureCache()
        #: (reuse key, decision) of the last primary-tier solver run, stored
        #: as one atomic pair so a failure later in run_epoch can never pair
        #: a stale decision with a fresh key.
        self._last_solve: tuple[tuple, OrchestrationDecision] | None = None
        #: Optional :class:`repro.faults.FaultInjector` (chaos testing).
        self.fault_injector = None
        #: Link failures queued via :meth:`schedule_link_failure`, applied at
        #: the start of the next epoch.
        self._scheduled_link_failures: list[tuple[list[tuple[str, str]], float]] = []
        #: True while a link-capacity loss still awaits a committed epoch's
        #: re-homing pass.  Deliberately *not* journaled state:
        #: if the epoch that applied the damage rolls back, the retry must
        #: re-run displacement detection (the damage itself persists).
        self._rehome_pending = False
        #: Names re-homed (expired + renewal re-submitted) by the last
        #: committed epoch, for the broker's EpochReport.
        self.last_rehomed: tuple[str, ...] = ()

    # ------------------------------------------------------------------ #
    # Request intake
    # ------------------------------------------------------------------ #
    def submit_request(self, request: SliceRequest) -> None:
        """Tenant-facing entry point (delegates to the slice manager).

        A re-submission under the name of a *live* slice is rejected here,
        at intake -- before the request can enter an epoch batch -- unless
        its arrival lies at or beyond the live slice's expiry (a legal
        renewal booked in advance).  Rejecting at submit time keeps an
        invalid renewal from poisoning the batch it would have been
        collected with.
        """
        record = self._live_record(request.name)
        if record is not None and request.arrival_epoch < record.expires_at():
            raise SliceStateError(
                f"cannot submit slice {request.name!r}: a slice with that "
                f"name is still {record.state.value} until epoch "
                f"{record.expires_at()}; renewals must arrive at or after "
                "its expiry"
            )
        self.slice_manager.submit(request)

    def _live_record(self, name: str):
        if name not in self.registry:
            return None
        record = self.registry.record(name)
        return None if record.state in TERMINAL_STATES else record

    # ------------------------------------------------------------------ #
    # Monitoring feedback
    # ------------------------------------------------------------------ #
    def observe_load(
        self,
        slice_name: str,
        base_station: str,
        epoch: int,
        samples_mbps: list[float] | np.ndarray,
    ) -> None:
        """Feed monitoring samples collected by the controllers.

        A base station the topology does not have, or an epoch that is not
        a non-negative integer (``2.5``, ``"3"``, a bool), is a
        ``ValueError`` and records nothing: every report of a slice folds
        into its one peak track, so a stray one would move its forecast.
        """
        try:
            self.topology.base_station(base_station)
        except KeyError:
            raise ValueError(
                f"load samples of slice {slice_name!r} name base station "
                f"{base_station!r}, which the topology does not have"
            ) from None
        if type(epoch) is not int or epoch < 0:
            try:
                epoch = ensure_non_negative_int(epoch, "epoch")
            except ValueError:
                raise ValueError(
                    f"load samples of slice {slice_name!r} at {base_station!r} "
                    f"must have a non-negative epoch (an integer; got {epoch!r})"
                ) from None
        self.monitoring.record_samples(slice_name, base_station, epoch, samples_mbps)

    # ------------------------------------------------------------------ #
    # Decision epoch
    # ------------------------------------------------------------------ #
    def forecast_for(self, request: SliceRequest) -> ForecastInput:
        """Forecast the next-epoch peak load of one slice."""
        override = self.forecast_overrides.get(request.name)
        if override is not None:
            return override.clamped(request.sla_mbps)
        history = self.monitoring.peak_history(request.name)
        return self.forecasting.forecast_for(request, history)

    def schedule_link_failure(
        self, link_keys: list[tuple[str, str]], capacity_factor: float
    ) -> None:
        """Queue a mid-epoch link-capacity loss for the next decision epoch.

        Each named link's capacity is multiplied by ``capacity_factor`` when
        the next epoch starts (before expiries are processed), and any
        admitted slice whose transport reservations no longer fit the
        damaged links is re-homed through the renewal path.
        """
        if not 0.0 < capacity_factor < 1.0:
            raise ValueError(
                f"capacity_factor must be in (0, 1), got {capacity_factor!r}"
            )
        keys = [tuple(sorted(key)) for key in link_keys]
        for key in keys:
            self.topology.link(*key)  # raises KeyError for unknown links
        self._scheduled_link_failures.append((keys, float(capacity_factor)))

    def run_epoch(
        self,
        epoch: int,
        *,
        on_checkpoint: Callable[[EpochCheckpoint], None] | None = None,
    ) -> OrchestrationDecision:
        """Run the AC-RR cycle for one decision epoch and enforce the result.

        Crash-consistent: every write the epoch makes to declared state --
        registry, intake queue, controllers, the solver layer's warm-start
        state, the decision-reuse pair and the problem-structure cache --
        is journaled, and any exception -- an injected fault, a solver
        error, a controller apply failure -- rolls the journal back before
        propagating.  The epoch either commits fully or did not happen.
        Topology damage applied by a link failure is *not* rolled back: the
        network really is degraded, and the retry epoch re-detects and
        re-homes the displaced slices.

        ``on_checkpoint`` receives the :class:`EpochCheckpoint` before the
        first write of the epoch, so a caller serving reads concurrently
        (the broker) can switch them over to the pre-epoch view in time.
        """
        if self.fault_injector is not None:
            self.fault_injector.begin_epoch(epoch)
        journal = Journal()
        if on_checkpoint is not None:
            on_checkpoint(
                EpochCheckpoint(
                    journal=journal,
                    registry=self.registry.before(journal),
                    slice_manager=self.slice_manager.before(journal),
                )
            )
        try:
            with journal:
                return self._run_epoch_inner(epoch)
        except BaseException:
            journal.rollback()
            raise

    def _run_epoch_inner(self, epoch: int) -> OrchestrationDecision:
        self._apply_link_failures(epoch)
        rehomed = self._rehome_displaced(epoch) if self._rehome_pending else ()
        self.registry.expire_due(epoch)

        new_requests = self.slice_manager.collect_for_epoch(epoch)
        for request in new_requests:
            if request.name not in self.registry:
                self.registry.register(request)
            else:
                # A re-submission under a known name is a *renewal*: legal
                # once the previous slice reached a terminal state (the
                # registry archives the old record and the renewal competes
                # for admission like any new arrival), a lifecycle error
                # while the original slice is still live.  Intake already
                # rejects live-name renewals, so this is defence in depth.
                # The raise rolls the whole epoch back (run_epoch rolls its
                # journal back), returning every collected request --
                # including the invalid one -- to the intake queue intact;
                # withdrawing the poisoned request unblocks its batch mates.
                self.registry.renew(request)

        committed_records = self.registry.active_slices(epoch)
        committed_requests = []
        for record in committed_records:
            committed = record.request.as_committed()
            if record.compute_unit is not None:
                # Remember where the slice already runs so solvers (notably
                # the KAC heuristic) keep it anchored there.
                committed.metadata["preferred_compute_unit"] = record.compute_unit
            committed_requests.append(committed)
        # Candidates come from the *registry*, not the collected batch: in
        # normal flow every REQUESTED record is one this epoch registered
        # (all earlier ones were decided the epoch they arrived), but if a
        # previous epoch died mid-batch, its registered-but-undecided
        # requests are retried here instead of vanishing.
        candidate_new = [record.request for record in self.registry.requested_records()]
        requests = committed_requests + candidate_new
        forecasts = {request.name: self.forecast_for(request) for request in requests}
        self.forecasting.retain(forecasts)
        if not requests:
            # Idle epoch: release every reservation (the last admitted slice
            # has expired; leaving the controllers enforcing its reservations
            # would hold RAN/transport/cloud resources forever), but keep the
            # warm-start state (_last_solve, the solver-side cut pool, the
            # problem-structure cache): if the same slices come back, the
            # solver layer resumes from where it left off instead of a cold
            # re-solve.
            assign(self, "last_problem", None)
            assign(self, "last_decision", None)
            self.controllers.clear()
            assign(self, "last_rehomed", tuple(rehomed))
            self._rehome_pending = False
            return OrchestrationDecision(
                allocations={},
                objective_value=0.0,
                stats=_idle_stats(),
            )

        problem = self.problem_cache.build(
            topology=self.topology,
            path_set=self.path_set,
            requests=requests,
            forecasts=forecasts,
            options=ProblemOptions(
                allow_deficit=bool(committed_requests),
                epochs_per_day=self.config.epochs_per_day,
            ),
        )
        decision = self._solve(problem)
        self._update_registry(epoch, decision)
        self.controllers.apply(problem, decision)
        assign(self, "last_problem", problem)
        assign(self, "last_decision", decision)
        assign(self, "last_rehomed", tuple(rehomed))
        self._rehome_pending = False
        return decision

    # ------------------------------------------------------------------ #
    # Link-failure handling
    # ------------------------------------------------------------------ #
    def _apply_link_failures(self, epoch: int) -> None:
        """Damage the topology per the injector and the scheduled failures."""
        failures: list[tuple[tuple[str, str], float]] = []
        if self.fault_injector is not None:
            failures.extend(self.fault_injector.link_faults(epoch, self.topology))
        scheduled = self._scheduled_link_failures
        self._scheduled_link_failures = []
        for keys, factor in scheduled:
            failures.extend((key, factor) for key in keys)
        for key, factor in failures:
            degrade_link_capacities(self.topology, [key], factor)
        if failures:
            self._rehome_pending = True

    def _rehome_displaced(self, epoch: int) -> list[str]:
        """Re-home slices displaced by link damage through the renewal path.

        A slice is displaced when it holds a transport reservation on a link
        whose reserved total now exceeds the (damaged) capacity.  Every
        displaced slice expires early (terminal EXPIRED, reservations
        reclaimed by this epoch's decision) and a renewal request -- same
        name, remaining lifetime, arriving now -- is queued, so it is
        collected this very epoch and competes for admission on the damaged
        network like any arrival.  Slices in their final epoch are left to
        expire naturally.
        """
        overloaded: list[tuple[str, str]] = []
        for key, slices in self.controllers.transport.reservations_mbps.items():
            if not slices:
                continue
            if sum(slices.values()) > self.topology.link(*key).capacity_mbps + 1e-9:
                overloaded.append(key)
        displaced: list[str] = sorted(
            {
                name
                for key in overloaded
                for name in self.controllers.transport.reservations_mbps[key]
            }
        )
        rehomed: list[str] = []
        for name in displaced:
            if name not in self.registry:
                continue
            record = self.registry.record(name)
            if not record.is_active(epoch):
                continue
            remaining = record.expires_at() - epoch
            if remaining <= 0:
                continue
            # The plain ADMITTED -> EXPIRED transition of a natural expiry,
            # not a tenant release: the old life reports "expired".
            self.registry.expire(name)
            if self.slice_manager.pending_request(name) is not None:
                # A renewal is already queued under this name (e.g. a tenant
                # pre-booked one); it will compete for admission instead.
                rehomed.append(name)
                continue
            renewal = replace(
                record.request,
                arrival_epoch=epoch,
                duration_epochs=remaining,
                committed=False,
                metadata=dict(record.request.metadata),
            )
            renewal.metadata["rehomed_at_epoch"] = epoch
            self.slice_manager.submit(renewal)
            rehomed.append(name)
        return rehomed

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _solve(self, problem: ACRRProblem) -> OrchestrationDecision:
        """Solve the epoch's problem, reusing the previous decision when the
        problem (and the solver) did not change since the last epoch.

        Only a primary-tier decision is kept for reuse: a safeguard fallback
        is no certificate, so the next epoch asks the solver again."""
        key = (
            # The solver, topology and path set objects themselves (not ids):
            # the strong references pin their identity even if the public
            # attributes are later swapped for new objects.
            self.solver,
            problem.topology,
            problem.path_set,
            problem.identity(),
            tuple(problem.forecast(request.name) for request in problem.requests),
            # Full metadata, not just the fields today's solvers read: any
            # metadata change must invalidate the reuse.
            tuple(tuple(sorted(request.metadata.items())) for request in problem.requests),
        )
        if (
            self.config.reuse_unchanged_decisions
            and self._last_solve is not None
            and self._last_solve[0] == key
        ):
            cached = self._last_solve[1]
            # Same allocations and objective, but honest diagnostics: this
            # epoch did no solver work, so it retried and fell back nowhere.
            return OrchestrationDecision(
                allocations=cached.allocations,
                objective_value=cached.objective_value,
                stats=replace(
                    cached.stats,
                    runtime_s=0.0,
                    iterations=0,
                    cuts_optimality=0,
                    cuts_feasibility=0,
                    retries=0,
                    fallback_reason="",
                    message=REUSED_MESSAGE,
                ),
                deficits=cached.deficits,
            )
        decision = self.solver.solve(problem)
        reusable = decision.stats.tier == TIER_PRIMARY
        assign(self, "_last_solve", (key, decision) if reusable else None)
        return decision

    def _update_registry(self, epoch: int, decision: OrchestrationDecision) -> None:
        for name, allocation in decision.allocations.items():
            record = self.registry.record(name)
            if allocation.accepted:
                self.registry.mark_admitted(
                    name,
                    epoch=epoch,
                    compute_unit=allocation.compute_unit,
                    reservations_mbps=allocation.reservations_mbps,
                )
            elif record.state is SliceState.REQUESTED:
                self.registry.mark_rejected(name)
            elif record.state is SliceState.ADMITTED:
                # A committed slice can never be silently dropped: if the solver
                # could not fit it, the deficit variables should have absorbed
                # the overload instead.  Surface this loudly.
                raise RuntimeError(
                    f"solver {decision.stats.solver!r} dropped committed slice "
                    f"{name!r}: constraint (13) keeps it, and the epoch's problem "
                    "allows deficits to absorb the overload"
                )


def _idle_stats():
    from repro.core.solution import SolverStats

    return SolverStats(solver="idle", iterations=0, runtime_s=0.0, optimal=True)
