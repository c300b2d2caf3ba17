"""The northbound SliceBroker facade: the supported entry point to the
control plane.

The paper's OVNES broker exposes a northbound interface through which tenants
request, renew and release slices.  :class:`SliceBroker` is that surface for
this reproduction: a thin, versioned, transport-agnostic facade over the
:class:`~repro.controlplane.orchestrator.E2EOrchestrator` that

* accepts :class:`~repro.api.dtos.SliceRequestV1` DTOs (or raw payload
  dictionaries, or in-process :class:`~repro.core.slices.SliceRequest`
  objects) and returns :class:`~repro.api.dtos.AdmissionTicket` receipts,
  with idempotent client tokens and atomic batch submission;
* translates every internal failure into the structured
  :class:`~repro.api.errors.BrokerError` taxonomy -- bare ``ValueError`` /
  ``SliceStateError`` never cross the boundary;
* publishes lifecycle events (ADMITTED / REJECTED / EXPIRED / RENEWED /
  RELEASED) on an :class:`~repro.api.events.EventBus` *after* the registry
  and controllers are consistent for the epoch;
* drives decision epochs through :meth:`advance_epoch`, returning an
  :class:`~repro.api.dtos.EpochReport` DTO instead of raw solver objects.

Routing through the facade is *bit-identical* to calling the orchestrator
directly: the broker adds intake validation, error translation and event
derivation around the exact same call sequence, and never perturbs the solver
path (the golden-run harness and the differential sweeps pin this).

The orchestrator's registry is the only lifecycle record.  An epoch's events
come from the registry entries its write journal holds -- the names whose
record the epoch replaced, each against its pre-epoch life -- and a tenant
release is a flag on the released life's
:class:`~repro.controlplane.state.SliceRecord`.  The broker itself keeps only
intake bookkeeping: idempotency tokens, the markers of requests withdrawn
before they ever reached the registry, and the sorted index of every name it
can report a status for.

In-process drivers (the simulation engine, benchmarks) additionally need the
raw decision/problem objects of the last epoch; the broker exposes them as
documented escape hatches (:attr:`last_decision`, :attr:`last_problem`,
:meth:`active_slices`) so such drivers still route every *mutation* through
the facade.
"""

from __future__ import annotations

import bisect
import functools
import json
import threading
from typing import Any, Mapping, Sequence

from repro.api.dtos import (
    AdmissionTicket,
    EpochReport,
    QuoteResponse,
    SlicePage,
    SliceRequestV1,
    SliceStatus,
)
from repro.api.errors import (
    CapacityError,
    DuplicateSliceError,
    LifecycleError,
    SolverError,
    ValidationError,
)
from repro.api.events import EventBus, LifecycleEvent, LifecycleEventKind
from repro.api.wire import checked
from repro.controlplane.orchestrator import (
    REUSED_MESSAGE,
    E2EOrchestrator,
    EpochCheckpoint,
    OrchestratorConfig,
)
from repro.controlplane.slice_manager import SliceDescriptor
from repro.controlplane.state import (
    TERMINAL_STATES,
    SliceRecord,
    SliceState,
    SliceStateError,
)
from repro.core.forecast_inputs import ForecastInput
from repro.core.slices import SliceRequest
from repro.faults.injector import ChaosSolver, FaultInjector, attach_injector
from repro.faults.plan import FaultPlan
from repro.faults.safeguard import TIER_PRIMARY, HealthMonitor, SafeguardedSolver
from repro.utils.validation import (
    ensure_in_range,
    ensure_non_negative_int,
    ensure_positive_int,
    ensure_text,
)


def _coerce_request(
    request: SliceRequestV1 | SliceRequest | Mapping[str, Any],
) -> SliceRequest:
    """Accept the three supported request forms, normalised to the core type
    (an in-process :class:`SliceRequest` meets the V1 field rules too)."""
    if isinstance(request, SliceRequest):
        SliceRequestV1.from_request(request)
        return request
    if isinstance(request, SliceRequestV1):
        return request.to_request()
    if isinstance(request, Mapping):
        return SliceRequestV1.from_dict(request).to_request()
    raise ValidationError(
        "slice request must be a SliceRequestV1, a SliceRequest or a payload "
        f"mapping, got {type(request).__name__}"
    )


def _request_fingerprint(request: SliceRequest) -> str:
    """Canonical content fingerprint used to police idempotency-token reuse.

    Covers the V1 wire fields plus the in-process-only fields (``committed``,
    ``metadata``) so two :class:`SliceRequest` objects that differ anywhere
    the solver can see never fingerprint as the same payload.
    """
    payload = SliceRequestV1.from_request(request).to_dict()
    payload["committed"] = request.committed
    payload["metadata"] = sorted(
        (str(key), repr(value)) for key, value in request.metadata.items()
    )
    return json.dumps(payload, sort_keys=True)


def _record_status(record: SliceRecord, renewal_count: int) -> SliceStatus:
    """Status of one registry life (a released life reports "released")."""
    return SliceStatus(
        name=record.name,
        state="released" if record.released else record.state.value,
        arrival_epoch=record.request.arrival_epoch,
        duration_epochs=record.request.duration_epochs,
        admitted_epoch=record.admitted_epoch,
        expires_at=record.expires_at(),
        compute_unit=record.compute_unit,
        reservations_mbps=dict(record.last_reservations_mbps),
        renewal_count=renewal_count,
    )


#: Default bound on the idempotency-token cache and the withdrawal markers,
#: the broker's only per-request tables.  A long-running broker serving heavy
#: multi-client traffic must not grow them without limit; when one overflows,
#: entries are evicted oldest-first with fail-safe exclusions (a still-queued
#: submission's token is never dropped -- its retry contract stays intact).
#: Evicting a withdrawal marker only degrades how an *old* cancellation is
#: reported: the withdrawn-while-queued, never-registered name falls back to
#: "unknown slice"; live state is never affected.
DEFAULT_CACHE_LIMIT = 65536


def _synchronized(method):
    """Run ``method`` under the broker's admission-path lock (reentrant)."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


#: What a status read consults for the intake queue and the registry
#: (``.slice_manager`` / ``.registry``): the live orchestrator, or the
#: running epoch's checkpoint, whose two views read the pre-epoch state
#: through the epoch's journal -- same attribute and query names.
_StateSource = E2EOrchestrator | EpochCheckpoint


class SliceBroker:
    """Versioned northbound service API over one orchestrator instance.

    Thread safety, three tiers.  *Serialised writers*: every mutating entry
    point (``submit``, ``submit_batch``, ``release``, ``advance_epoch``,
    monitoring/forecast feeds, chaos controls) serialises on one reentrant
    admission-path lock, so concurrent transport sessions can share a broker
    without torn caches or double-enqueued idempotent retries.  *Snapshot
    reads* (``status``, ``list_slices``, ``slice_count``, ``pending_count``)
    never touch that lock: they take only a short state mutex that writers
    hold for their own table mutation and that ``advance_epoch`` holds just
    long enough to publish, and later withdraw, the epoch's checkpoint as
    the read view -- so a read that overlaps an epoch is answered from the
    pre-epoch state, the live tables overlaid with the values the epoch's
    journal replaced (it is ordered before the epoch, which has not
    returned yet), instead of waiting out the solve.  Lock order is admission lock,
    then state mutex, never the reverse.  *Pure reads*: ``quote`` takes no
    lock at all.  With ``max_pending`` set, intake applies backpressure: a
    submit that would grow the queue past the bound raises the 429-style
    :class:`CapacityError` instead of accepting unbounded work.
    """

    def __init__(
        self,
        topology,
        solver,
        *,
        config: OrchestratorConfig | None = None,
        cache_limit: int = DEFAULT_CACHE_LIMIT,
        max_pending: int | None = None,
    ):
        self._orchestrator = E2EOrchestrator(topology, solver, config=config)
        #: Lifecycle event bus; subscribe instead of polling the registry.
        self.events = EventBus()
        self._tickets_by_token: dict[str, tuple[str, AdmissionTicket]] = {}
        #: name -> client token of the *currently queued* submission under
        #: that name (if any): withdrawing the queued request must invalidate
        #: exactly that token's ticket, and no other.
        self._token_by_queued_name: dict[str, str] = {}
        self._ticket_counter = 0
        #: Queued submissions withdrawn before ever reaching the registry:
        #: lets status() keep answering "released" for them instead of
        #: claiming the name was never submitted.  Written at withdrawal and
        #: never popped: status() answers from the queue or the registry
        #: first, so the marker of a name submitted again is never read.
        self._withdrawn: dict[str, tuple[int, int]] = {}
        #: Every name a status can be reported for -- queued, registered or
        #: withdrawn-while-queued -- sorted, so a listing page is a slice of
        #: it.  Kept by the intake writers; an epoch moves names from the
        #: queue to the registry but never adds or removes one.
        self._names: list[str] = []
        #: FIFO bound applied to the token cache and the withdrawal markers.
        #: A positive integer: a zero limit would busy-evict the entry a
        #: tokened submit just inserted, breaking same-call replay.
        self._cache_limit = checked(ensure_positive_int, cache_limit, "cache_limit")
        #: Intake-queue bound; ``None`` disables backpressure.
        if max_pending is not None:
            max_pending = checked(ensure_positive_int, max_pending, "max_pending")
        self._max_pending = max_pending
        #: One reentrant lock serialises the whole admission path (intake,
        #: release, epochs, cache maintenance).  Reentrant because
        #: ``submit_batch`` drives ``submit`` and error paths may re-enter.
        self._lock = threading.RLock()
        #: Guards the tables status reads consult (intake queue, registry,
        #: withdrawal markers) and the choice of read view.  Plain
        #: and short-held: never across a solve, never across event fan-out.
        #: Taken after ``_lock`` by writers, alone by readers.
        self._state_mutex = threading.Lock()
        #: The running epoch's checkpoint, published as the read view from
        #: the start of the epoch until it commits or rolls back; ``None``
        #: between epochs (reads then see the live tables).  Its journal is
        #: also where the epoch's events come from.
        self._epoch_view: EpochCheckpoint | None = None
        #: Thread running that epoch: its own reads (fault hooks) stay live.
        self._epoch_thread: int | None = None
        self._last_decision = None
        #: Broker health state machine.  Shared with the orchestrator's
        #: solver when that is a :class:`SafeguardedSolver` (its chain gates
        #: safe-mode probes on the same monitor); otherwise broker-owned.
        solver_health = getattr(self._orchestrator.solver, "health", None)
        self.health: HealthMonitor = (
            solver_health
            if isinstance(solver_health, HealthMonitor)
            else HealthMonitor()
        )
        self._fault_injector: FaultInjector | None = None

    # ------------------------------------------------------------------ #
    # In-process accessors (documented escape hatches; all read-only)
    # ------------------------------------------------------------------ #
    @property
    def orchestrator(self) -> E2EOrchestrator:
        """The wrapped orchestrator (for tests/benchmarks tweaking config)."""
        return self._orchestrator

    @property
    def last_decision(self):
        """Raw decision of the most recent :meth:`advance_epoch` (idle included)."""
        return self._last_decision

    @property
    def last_problem(self):
        """The AC-RR problem of the last non-idle epoch (``None`` after idle)."""
        return self._orchestrator.last_problem

    @property
    def pending_count(self) -> int:
        """Requests queued at intake, not yet released into an epoch batch."""
        with self._state_mutex:
            return self._read_source().slice_manager.pending_count

    @property
    def epoch_in_flight(self) -> bool:
        """True while an ``advance_epoch`` is between checkpoint and commit."""
        return self._epoch_view is not None

    def active_slices(self, epoch: int) -> list[SliceRecord]:
        """Registry records of slices that must stay provisioned at ``epoch``."""
        epoch = checked(ensure_non_negative_int, epoch, "epoch")
        return self._orchestrator.registry.active_slices(epoch)

    def admitted_names(self) -> list[str]:
        """Names currently in the ADMITTED state, in registry order."""
        return self._orchestrator.registry.admitted_names()

    def rejected_names(self) -> list[str]:
        """Names currently in the REJECTED state, in registry order."""
        return self._orchestrator.registry.rejected_names()

    # ------------------------------------------------------------------ #
    # Submission (single, batch, deferred, idempotent)
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: SliceRequestV1 | SliceRequest | Mapping[str, Any],
        *,
        client_token: str | None = None,
    ) -> AdmissionTicket:
        """Queue one slice request for admission at its arrival epoch.

        Deferred submission is the default semantics: a request whose
        ``arrival_epoch`` lies in the future stays queued until that epoch's
        batch is collected.  With ``client_token``, resubmitting the same
        payload under the same token returns the original ticket without
        enqueueing a second copy (at-most-once intake over lossy transports);
        reusing a token with a *different* payload raises
        :class:`DuplicateSliceError`.
        """
        if client_token is not None:
            client_token = checked(ensure_text, client_token, "client_token")
        core_request, fingerprint = self._prepare(request, client_token)
        with self._lock, self._state_mutex:
            return self._submit_prepared(core_request, fingerprint, client_token)

    @staticmethod
    def _prepare(
        request: SliceRequestV1 | SliceRequest | Mapping[str, Any],
        client_token: str | None,
    ) -> tuple[SliceRequest, str | None]:
        """Coerce and (for tokened submits) fingerprint one request.

        Pure computation: a single ``submit`` runs it outside both locks.
        """
        core_request = _coerce_request(request)
        if client_token is None:
            return core_request, None
        return core_request, _request_fingerprint(core_request)

    def _submit_prepared(
        self,
        core_request: SliceRequest,
        fingerprint: str | None,
        client_token: str | None,
    ) -> AdmissionTicket:
        """Replay check, enqueue and cache store; the caller holds both locks.

        The three are one atomic step: two concurrent submits racing on the
        same token must resolve into exactly one enqueued ticket, with the
        loser replaying it.
        """
        if client_token is not None:
            replay = self._tickets_by_token.get(client_token)
            if replay is not None:
                stored_fingerprint, ticket = replay
                if stored_fingerprint != fingerprint:
                    raise DuplicateSliceError(
                        f"client token {client_token!r} was already used for a "
                        "different request payload",
                        details={"client_token": client_token},
                    )
                return ticket
        ticket = self._enqueue(core_request, client_token)
        if client_token is not None:
            self._tickets_by_token[client_token] = (fingerprint, ticket)
            self._evict_replay_cache()
        return ticket

    def _evict_replay_cache(self) -> None:
        """Bound the token-replay cache without breaking live retries.

        Evicting a *still-queued* submission's token would turn its
        legitimate lost-response retry into a DuplicateSliceError, so only
        entries whose slice has left the intake queue are dropped (oldest
        first); the remainder is bounded by the real queue length.

        Incremental on the hot path: a token is still queued iff the
        queued-name track (``_token_by_queued_name``, maintained at enqueue /
        withdraw / collection) still maps its slice back to it -- an O(1)
        probe instead of rebuilding a name set from the whole intake queue.
        Each call pops only the overflow; a protected (still-queued) entry
        met during the scan is re-queued at the FIFO tail, so across calls
        every entry is examined O(1) amortised times per eviction instead of
        the cache being rescanned end-to-end on every over-limit submit.
        """
        overflow = len(self._tickets_by_token) - self._cache_limit
        if overflow <= 0:
            return
        # At most one full pass: if every entry is protected, the cache
        # legitimately exceeds the limit (it is then bounded by the real
        # queue length) and the scan must not spin.
        remaining_scans = len(self._tickets_by_token)
        while overflow > 0 and remaining_scans > 0:
            remaining_scans -= 1
            token = next(iter(self._tickets_by_token))
            entry = self._tickets_by_token.pop(token)
            if self._token_by_queued_name.get(entry[1].slice_name) == token:
                # Still queued: keep its retry contract, age it from now.
                self._tickets_by_token[token] = entry
            else:
                overflow -= 1

    def submit_batch(
        self,
        requests: Sequence[SliceRequestV1 | SliceRequest | Mapping[str, Any]],
        *,
        client_tokens: Sequence[str | None] | None = None,
    ) -> list[AdmissionTicket]:
        """Queue several requests atomically: all are accepted or none are.

        If any request fails validation or intake, every request this call
        already enqueued is withdrawn again before the error propagates --
        the queue is left exactly as it was.  Token replays are served from
        the token cache and are never rolled back (they were accepted by an
        earlier call).
        """
        if client_tokens is not None and len(client_tokens) != len(requests):
            raise ValidationError(
                "client_tokens must be None or match the requests one-to-one",
                details={"requests": len(requests), "client_tokens": len(client_tokens)},
            )
        tokens: Sequence[str | None] = [None] * len(requests)
        if client_tokens is not None:
            tokens = [
                t if t is None else checked(ensure_text, t, "client_tokens") for t in client_tokens
            ]
        tickets: list[AdmissionTicket] = []
        enqueued: list[tuple[str, str | None]] = []
        completed = False
        # The state mutex is held across the whole batch: a concurrent
        # status read sees all of it or none of it, never a request that a
        # later entry's failure is about to withdraw again.
        with self._lock, self._state_mutex:
            try:
                for request, token in zip(requests, tokens):
                    was_replay = token is not None and token in self._tickets_by_token
                    core_request, fingerprint = self._prepare(request, token)
                    ticket = self._submit_prepared(core_request, fingerprint, token)
                    if not was_replay:
                        enqueued.append((ticket.slice_name, token))
                    tickets.append(ticket)
                completed = True
            finally:
                # Atomicity lives in a success-flag ``finally``, not an
                # except clause: nothing is caught (structured broker errors
                # and unexpected bugs alike propagate unchanged, per the
                # error taxonomy), yet the queue is restored on *every*
                # abnormal exit, including BaseExceptions a bare ``except
                # Exception`` would have missed.
                # Every entry in `enqueued` was a fresh (non-replay)
                # submission, so any token it carries was inserted by this
                # batch and is popped outright -- no pre-batch token snapshot
                # needed.
                if not completed:
                    for name, token in reversed(enqueued):
                        self._orchestrator.slice_manager.withdraw(name)
                        self._unindex_if_unknown(name)
                        self._token_by_queued_name.pop(name, None)
                        if token is not None:
                            self._tickets_by_token.pop(token, None)
        return tickets

    def _enqueue(self, request: SliceRequest, client_token: str | None) -> AdmissionTicket:
        manager = self._orchestrator.slice_manager
        if manager.pending_request(request.name) is not None:
            raise DuplicateSliceError(
                f"a request named {request.name!r} is already queued",
                details={"slice_name": request.name},
            )
        if self._max_pending is not None and manager.pending_count >= self._max_pending:
            # Backpressure: shed load instead of growing the intake queue
            # without bound.  Raised before any state is touched, so a
            # rejected submit leaves no trace (no ticket, no token entry).
            raise CapacityError(
                f"intake queue is full ({manager.pending_count} pending, "
                f"bound {self._max_pending}); retry after the next epoch",
                details={
                    "slice_name": request.name,
                    "pending": manager.pending_count,
                    "max_pending": self._max_pending,
                },
            )
        try:
            # Intake validation (live-name renewals, queue uniqueness) lives
            # in the orchestrator; the broker only translates its errors.
            self._orchestrator.submit_request(request)
        except SliceStateError as error:
            raise LifecycleError(str(error), details={"slice_name": request.name}) from error
        except ValueError as error:
            raise ValidationError(str(error), details={"slice_name": request.name}) from error
        self._index_name(request.name)
        if client_token is not None:
            self._token_by_queued_name[request.name] = client_token
            if len(self._token_by_queued_name) > max(
                self._cache_limit, manager.pending_count
            ):
                # Unlike the replay caches, evicting a *still-queued* entry
                # would silently re-enable stale-ticket replay after a
                # cancel; prune only entries whose name has left the queue
                # (the rest is bounded by the real queue length).  By
                # invariant the track only holds queued names (withdraw,
                # rollback and collection all pop), so stale entries can
                # only exist -- and a scan only pays off -- while the track
                # outgrows the queue itself; the hot path stays O(1).
                still_pending = {r.name for r in manager.pending_requests}
                self._token_by_queued_name = {
                    name: token
                    for name, token in self._token_by_queued_name.items()
                    if name in still_pending
                }
        else:
            self._token_by_queued_name.pop(request.name, None)
        self._ticket_counter += 1
        return AdmissionTicket(
            ticket_id=f"tkt-{self._ticket_counter:06d}",
            slice_name=request.name,
            arrival_epoch=request.arrival_epoch,
            descriptor=SliceDescriptor.from_request(request),
            client_token=client_token,
        )

    # ------------------------------------------------------------------ #
    # Chaos and degraded operation
    # ------------------------------------------------------------------ #
    @_synchronized
    def enable_chaos(self, plan: FaultPlan) -> FaultInjector:
        """Arm a fault plan and wrap the solver in the safeguarded chain.

        Builds ``SafeguardedSolver(ChaosSolver(current solver, injector))``
        around the orchestrator's solver, sharing the broker's health
        monitor (arming a plan is not a recovery).  A solver that already is
        a :class:`SafeguardedSolver` keeps its chain and gets its primary
        proxied; re-arming replaces the previous plan's proxy instead of
        nesting a second one, so only ``plan`` fires.  The injector is bound
        to every hook point.  With ``FaultPlan.empty()`` the instrumented
        run is byte-identical to an uninstrumented one.
        """
        injector = FaultInjector(plan)
        attach_injector(self._orchestrator, injector)
        solver = self._orchestrator.solver
        if isinstance(solver, SafeguardedSolver):
            primary = solver.primary
            if isinstance(primary, ChaosSolver):
                primary = primary.inner
            solver.primary = ChaosSolver(primary, injector)
        else:
            solver = SafeguardedSolver(ChaosSolver(solver, injector), health=self.health)
            self._orchestrator.solver = solver
        self.health = solver.health
        self._fault_injector = injector
        return injector

    @_synchronized
    def inject_link_failure(
        self, link_keys: Sequence[tuple[str, str]], capacity_factor: float
    ) -> None:
        """Schedule a mid-epoch link-capacity loss for the next epoch.

        The named links lose ``1 - capacity_factor`` of their capacity when
        the next ``advance_epoch`` starts; displaced slices are re-homed
        through the renewal path and reported in ``EpochReport.rehomed``.
        ``capacity_factor`` lies in (0, 1).
        """
        capacity_factor = checked(
            ensure_in_range, capacity_factor, "capacity_factor", 0.0, 1.0, closed=False
        )
        try:
            self._orchestrator.schedule_link_failure(
                [tuple(key) for key in link_keys], capacity_factor
            )
        except KeyError as error:
            raise ValidationError(
                f"invalid link failure: {error}",
                details={"links": [list(key) for key in link_keys]},
            ) from error

    # ------------------------------------------------------------------ #
    # Quotes
    # ------------------------------------------------------------------ #
    def quote(
        self, request: SliceRequestV1 | SliceRequest | Mapping[str, Any]
    ) -> QuoteResponse:
        """Non-binding quote: the forecast and economics the broker would use.

        Pure read: consults forecast overrides and the monitoring history
        exactly as the next epoch would, without touching the queue or the
        registry.
        """
        core_request = _coerce_request(request)
        forecast = self._orchestrator.forecast_for(core_request)
        return QuoteResponse(
            slice_name=core_request.name,
            slice_type=core_request.template.name,
            sla_mbps=core_request.sla_mbps,
            forecast_peak_mbps=forecast.lambda_hat_mbps,
            forecast_sigma=forecast.sigma_hat,
            reward_per_epoch=core_request.reward,
            penalty_rate_per_mbps=core_request.penalty_rate_per_mbps,
        )

    # ------------------------------------------------------------------ #
    # Monitoring feedback and forecast control
    # ------------------------------------------------------------------ #
    @_synchronized
    def report_load(
        self, slice_name: str, base_station: str, epoch: int, samples_mbps
    ) -> None:
        """Feed monitoring samples for one slice at one base station.

        A base station the topology does not have, a non-finite sample, or
        an epoch older than the slice's last report (at any of its base
        stations), is a ``ValidationError`` naming the slice, the station and
        the epoch, and records nothing (as is a refusal by a parameter rule).
        """
        # ~42 reports an epoch: the plain case skips the adapter calls.
        if type(slice_name) is not str or not slice_name or type(epoch) is not int or epoch < 0:
            slice_name = checked(ensure_text, slice_name, "slice_name")
            epoch = checked(ensure_non_negative_int, epoch, "epoch")
        try:
            self._orchestrator.observe_load(slice_name, base_station, epoch, samples_mbps)
        except ValueError as error:
            raise ValidationError(
                str(error),
                details={"slice_name": slice_name, "base_station": base_station, "epoch": epoch},
            ) from error

    @_synchronized
    def set_forecast_overrides(self, overrides: Mapping[str, ForecastInput]) -> None:
        """Replace the whole forecast-override table (oracle scenarios)."""
        self._orchestrator.forecast_overrides = dict(overrides)

    @_synchronized
    def set_forecasting(self, forecasting) -> None:
        """Swap the online forecasting block (forecaster ablations)."""
        self._orchestrator.forecasting = forecasting

    # ------------------------------------------------------------------ #
    # Decision epochs
    # ------------------------------------------------------------------ #
    @_synchronized
    def advance_epoch(self, epoch: int) -> EpochReport:
        """Run one decision epoch and return its report.

        Calls the orchestrator's AC-RR cycle (bit-identical to driving it
        directly), derives the epoch's lifecycle events from the registry
        entries the epoch's journal holds, publishes them on
        :attr:`events` once the registry and controllers are consistent, and
        returns the :class:`EpochReport` DTO.  Non-blocking from the caller's
        perspective: the report is plain data; nothing needs to be polled
        afterwards.

        A failed epoch publishes nothing: ``run_epoch`` rolls its journal
        back, so every transition it made is undone and the retry makes and
        derives them afresh against the same pre-epoch state.

        Status reads from other threads are not held up: from the start of
        the epoch until the commit point below they are answered from the
        pre-epoch state read through the epoch's journal, i.e. ordered
        before this epoch.  An ``epoch`` that is not a non-negative integer
        is a :class:`ValidationError` that runs nothing: not a failed epoch,
        so health does not move.
        """
        epoch = checked(ensure_non_negative_int, epoch, "epoch")
        registry = self._orchestrator.registry
        events: list[LifecycleEvent] = []
        try:
            try:
                decision = self._orchestrator.run_epoch(
                    epoch, on_checkpoint=self._publish_epoch_view
                )
            except SliceStateError as error:
                self.health.note_failed_epoch()
                raise LifecycleError(str(error)) from error
            except (ValueError, RuntimeError) as error:
                # advance_epoch carries no tenant payload, so an internal
                # ValueError is a control-plane fault, not a client
                # validation failure -- both map to the solver-side error
                # code.  run_epoch already rolled the control plane back to
                # its pre-epoch state (crash-consistent epochs); only the
                # health machine remembers that the epoch failed.
                self.health.note_failed_epoch()
                raise SolverError(str(error)) from error
            self._last_decision = decision
            # Collected submissions left the intake queue; stop tracking
            # their queued-withdrawal tokens (the replay cache itself stays
            # intact).
            still_pending = {
                request.name
                for request in self._orchestrator.slice_manager.pending_requests
            }
            self._token_by_queued_name = {
                name: token
                for name, token in self._token_by_queued_name.items()
                if name in still_pending
            }
            # Delivery is at-most-once per transition: the next epoch's
            # journal only holds what that epoch changes, so a subscriber
            # raising mid-publish (exceptions propagate by contract) cannot
            # make it re-publish this epoch's transitions.
            events = self._derive_events(epoch, self._epoch_view, decision)
        finally:
            # Commit point (or rollback: the live tables then equal the
            # checkpoint again, so either source gives the same answer).
            # Readers switch to the live tables before any subscriber runs.
            self._withdraw_epoch_view()
        # Registry + controllers are consistent here; only now fan out.
        self.events.publish(events)
        stats = decision.stats
        tier, retries = stats.tier, stats.retries
        rehomed = self._orchestrator.last_rehomed
        reasons: list[str] = []
        if tier != TIER_PRIMARY:
            reasons.append(
                f"solver tier {tier}: {stats.fallback_reason}"
                if stats.fallback_reason
                else f"solver tier {tier}"
            )
        elif retries:
            reasons.append(f"primary solver needed {retries} transient retries")
        if self._fault_injector is not None:
            # Only the committing attempt's faults: a rolled-back attempt of
            # this epoch already surfaced as a raised BrokerError, and its
            # faults must not taint the clean retry's report.
            reasons.extend(
                f"{fault.kind.value} fault fired at {fault.hook}"
                for fault in self._fault_injector.fired_in_attempt()
            )
        if rehomed:
            reasons.append(
                f"re-homed {len(rehomed)} slice(s) displaced by link failure"
            )
        degraded = bool(reasons)
        idle = stats.solver == "idle"
        reused = stats.message == REUSED_MESSAGE
        # Health bookkeeping: when the orchestrator's solver is the
        # safeguarded chain sharing this monitor, a real (non-reused) solve
        # already noted its tier outcome -- the broker only adds what the
        # chain cannot see (faults outside the solver, re-homing).  Idle
        # epochs never move the health state.
        if not idle:
            chain_noted = (
                getattr(self._orchestrator.solver, "health", None) is self.health
                and not reused
            )
            if not chain_noted:
                self.health.note_outcome(tier, degraded)
            elif degraded and tier == TIER_PRIMARY and not retries:
                self.health.note_outcome(tier, True)
        return EpochReport(
            epoch=epoch,
            idle=idle,
            objective_value=decision.objective_value,
            accepted=tuple(sorted(decision.accepted_tenants)),
            rejected=tuple(sorted(decision.rejected_tenants)),
            expired=tuple(
                e.slice_name for e in events if e.kind is LifecycleEventKind.EXPIRED
            ),
            renewed=tuple(
                e.slice_name for e in events if e.kind is LifecycleEventKind.RENEWED
            ),
            active=tuple(sorted(r.name for r in registry.active_slices(epoch))),
            pending_requests=self.pending_count,
            solver=stats.solver,
            solver_iterations=stats.iterations,
            solver_runtime_s=stats.runtime_s,
            solver_optimal=stats.optimal,
            solver_warm_cuts=stats.cuts_warm,
            solver_message=stats.message,
            solver_time_truncated=stats.time_truncated,
            events=tuple(events),
            degraded=degraded,
            solver_tier=tier,
            solver_retries=retries,
            health=self.health.state.value,
            degraded_reasons=tuple(reasons),
            rehomed=rehomed,
        )

    def _publish_epoch_view(self, checkpoint: EpochCheckpoint) -> None:
        """Serve other threads' status reads from ``checkpoint`` from now on.

        Runs on the epoch's thread before the epoch's first write; waits
        only for a reader or writer that is inside its (short) critical
        section right now.
        """
        with self._state_mutex:
            self._epoch_thread = threading.get_ident()
            self._epoch_view = checkpoint

    def _withdraw_epoch_view(self) -> None:
        """Point status reads back at the live tables."""
        with self._state_mutex:
            self._epoch_view = None
            self._epoch_thread = None

    def _read_source(self) -> _StateSource:
        """Where a status read looks right now; the caller holds the mutex.

        The running epoch's checkpoint for every thread but the epoch's own
        (a fault hook reading mid-epoch sees the tables it is mutating).
        """
        view = self._epoch_view
        if view is not None and self._epoch_thread != threading.get_ident():
            return view
        return self._orchestrator

    def _derive_events(
        self, epoch: int, checkpoint: EpochCheckpoint, decision
    ) -> list[LifecycleEvent]:
        """The epoch's lifecycle events, from its journal's registry entries.

        A transition or a renewal replaces a name's record, so the names
        whose record the journal holds are the only ones that can have an
        event; each is compared with its pre-epoch life, read through the
        journal.  The work is the epoch's changes, not the registry.

        Order: EXPIRED, RENEWED, ADMITTED, REJECTED (the order the
        transitions happen inside ``run_epoch``), names sorted within each
        kind.  A renewal whose previous life was still ADMITTED going into
        the epoch yields both the EXPIRED event of the old life and the
        RENEWED (+ admission outcome) events of the new one.
        """
        registry = self._orchestrator.registry
        before = checkpoint.registry
        expired: list[LifecycleEvent] = []
        renewed: list[LifecycleEvent] = []
        admitted: list[LifecycleEvent] = []
        rejected: list[LifecycleEvent] = []

        def admission_metadata(name: str) -> dict[str, Any]:
            allocation = decision.allocations.get(name)
            metadata: dict[str, Any] = {"objective_value": decision.objective_value}
            if allocation is not None and allocation.accepted:
                metadata["compute_unit"] = allocation.compute_unit
                metadata["reserved_mbps_total"] = allocation.total_reserved_mbps
            return metadata

        for name in sorted(before.touched()):
            record = registry.record(name)
            prev_state = before.record(name).state if name in before else None
            renewals = registry.renewal_count(name)
            if renewals > before.renewal_count(name):
                old = registry.archived_records(name)[-1]
                if prev_state is SliceState.ADMITTED and old.state is SliceState.EXPIRED:
                    expired.append(
                        LifecycleEvent(
                            kind=LifecycleEventKind.EXPIRED,
                            slice_name=name,
                            epoch=epoch,
                            metadata={"admitted_epoch": old.admitted_epoch},
                        )
                    )
                renewed.append(
                    LifecycleEvent(
                        kind=LifecycleEventKind.RENEWED,
                        slice_name=name,
                        epoch=epoch,
                        metadata={"renewal_index": renewals},
                    )
                )
                if record.state is SliceState.ADMITTED:
                    admitted.append(
                        LifecycleEvent(
                            kind=LifecycleEventKind.ADMITTED,
                            slice_name=name,
                            epoch=epoch,
                            metadata=admission_metadata(name),
                        )
                    )
                elif record.state is SliceState.REJECTED:
                    rejected.append(
                        LifecycleEvent(
                            kind=LifecycleEventKind.REJECTED,
                            slice_name=name,
                            epoch=epoch,
                            metadata=admission_metadata(name),
                        )
                    )
            elif record.state is SliceState.ADMITTED and prev_state is not SliceState.ADMITTED:
                admitted.append(
                    LifecycleEvent(
                        kind=LifecycleEventKind.ADMITTED,
                        slice_name=name,
                        epoch=epoch,
                        metadata=admission_metadata(name),
                    )
                )
            elif record.state is SliceState.REJECTED and prev_state is not SliceState.REJECTED:
                rejected.append(
                    LifecycleEvent(
                        kind=LifecycleEventKind.REJECTED,
                        slice_name=name,
                        epoch=epoch,
                        metadata=admission_metadata(name),
                    )
                )
            elif record.state is SliceState.EXPIRED and prev_state is SliceState.ADMITTED:
                expired.append(
                    LifecycleEvent(
                        kind=LifecycleEventKind.EXPIRED,
                        slice_name=name,
                        epoch=epoch,
                        metadata={"admitted_epoch": record.admitted_epoch},
                    )
                )
        return expired + renewed + admitted + rejected

    # ------------------------------------------------------------------ #
    # Status and release
    # ------------------------------------------------------------------ #
    def status(self, slice_name: str) -> SliceStatus:
        """Lifecycle status of one slice (queued, registered or archived).

        A *live* registry record (REQUESTED or ADMITTED) takes precedence
        over a queued submission under the same name: with a pre-booked
        renewal queued for a still-admitted slice, the status describes the
        live slice, not the renewal waiting at intake.

        Never waits for a decision epoch: a read that overlaps one is
        answered from the epoch's checkpoint (the pre-epoch state).
        """
        slice_name = checked(ensure_text, slice_name, "slice_name")
        with self._state_mutex:
            return self._status_from(self._read_source(), slice_name)

    def _status_from(self, source: _StateSource, slice_name: str) -> SliceStatus:
        """Status of one slice as ``source`` has it; the caller holds the mutex."""
        manager = source.slice_manager
        registry = source.registry
        queued = manager.pending_request(slice_name)
        record = registry.record(slice_name) if slice_name in registry else None
        if queued is not None and (record is None or record.state in TERMINAL_STATES):
            return SliceStatus(
                name=slice_name,
                state="queued",
                arrival_epoch=queued.arrival_epoch,
                duration_epochs=queued.duration_epochs,
                renewal_count=registry.renewal_count(slice_name)
                if record is not None
                else 0,
            )
        if record is None:
            withdrawn = self._withdrawn.get(slice_name)
            if withdrawn is not None:
                arrival_epoch, duration_epochs = withdrawn
                return SliceStatus(
                    name=slice_name,
                    state="released",
                    arrival_epoch=arrival_epoch,
                    duration_epochs=duration_epochs,
                )
            raise LifecycleError(
                f"unknown slice {slice_name!r}: never submitted to this broker",
                details={"slice_name": slice_name},
            )
        return _record_status(record, registry.renewal_count(slice_name))

    def _index_name(self, name: str) -> None:
        """Add ``name`` to the sorted name index; the caller holds both locks."""
        position = bisect.bisect_left(self._names, name)
        if self._names[position : position + 1] != [name]:
            self._names.insert(position, name)

    def _unindex_if_unknown(self, name: str) -> None:
        """Drop ``name`` from the index once nothing reports a status for it
        (not queued, registered or marked withdrawn); both locks held."""
        if (
            self._orchestrator.slice_manager.pending_request(name) is None
            and name not in self._orchestrator.registry
            and name not in self._withdrawn
        ):
            position = bisect.bisect_left(self._names, name)
            if self._names[position : position + 1] == [name]:
                del self._names[position]

    def list_slices(self, offset: int = 0, limit: int | None = None) -> SlicePage:
        """Status of the broker's slices, sorted by name, paged.

        Ordering is stable (lexicographic by slice name), so
        ``offset``/``limit`` windows tile the full listing consistently
        across calls; a page is a slice of the broker's sorted name index and
        status DTOs are only built for it -- a sweep over a 100k-slice
        registry never sorts or materialises every name per call.
        ``limit=None`` returns everything from ``offset``.  The returned page
        is a list that also carries ``total`` (what :meth:`slice_count`
        would say) taken in the same critical section, so the two can never
        disagree.
        """
        offset = checked(ensure_non_negative_int, offset, "offset")
        if limit is not None:
            limit = checked(ensure_non_negative_int, limit, "limit")
        stop = None if limit is None else offset + limit
        with self._state_mutex:
            source = self._read_source()
            return SlicePage(
                [self._status_from(source, name) for name in self._names[offset:stop]],
                total=len(self._names),
                offset=offset,
            )

    def slice_count(self) -> int:
        """Total slices :meth:`list_slices` would page over."""
        with self._state_mutex:
            return len(self._names)

    @_synchronized
    def release(self, slice_name: str, *, epoch: int) -> SliceStatus:
        """Tenant-initiated release: terminate an admitted slice early, or
        cancel a still-queued request.

        A *live admitted* slice always takes precedence: if the name has both
        a live slice and a pre-booked queued renewal, releasing it terminates
        the live slice (the queued renewal stays queued -- cancel it with a
        second ``release`` call if unwanted).  An admitted slice moves to the
        terminal released state immediately; the controllers reclaim its
        reservations at the start of the next decision epoch, exactly as a
        natural expiry would.  The RELEASED event is published synchronously.
        Releasing a slice that is neither queued nor admitted raises
        :class:`LifecycleError`; an ``epoch`` that is not a non-negative
        integer is a :class:`ValidationError` that releases nothing.
        """
        slice_name = checked(ensure_text, slice_name, "slice_name")
        epoch = checked(ensure_non_negative_int, epoch, "epoch")
        # The tables change under the state mutex; the event goes out after
        # it is dropped, so a subscriber may read the broker from its
        # callback (and already sees the released state).
        with self._state_mutex:
            status, metadata = self._release_locked(slice_name)
        self.events.publish(
            [
                LifecycleEvent(
                    kind=LifecycleEventKind.RELEASED,
                    slice_name=slice_name,
                    epoch=epoch,
                    metadata=metadata,
                )
            ]
        )
        return status

    def _release_locked(self, slice_name: str) -> tuple[SliceStatus, dict[str, Any]]:
        """The table mutation of :meth:`release`: the released life's status
        and the RELEASED event's metadata.  The caller holds both locks."""
        manager = self._orchestrator.slice_manager
        registry = self._orchestrator.registry
        live_admitted = (
            slice_name in registry
            and registry.record(slice_name).state is SliceState.ADMITTED
        )
        if not live_admitted and manager.pending_request(slice_name) is not None:
            request = manager.withdraw(slice_name)
            # The withdrawn submission's idempotency ticket is void: a retry
            # under its token after this cancel must re-enqueue, not return a
            # stale "accepted" receipt.
            stale_token = self._token_by_queued_name.pop(slice_name, None)
            if stale_token is not None:
                self._tickets_by_token.pop(stale_token, None)
            if slice_name not in registry:
                # Never registered: remember the withdrawal so status() keeps
                # answering "released" rather than "unknown slice".
                self._withdrawn[slice_name] = (
                    request.arrival_epoch,
                    request.duration_epochs,
                )
                while len(self._withdrawn) > self._cache_limit:  # oldest first
                    evicted = next(iter(self._withdrawn))
                    del self._withdrawn[evicted]
                    self._unindex_if_unknown(evicted)
            status = SliceStatus(
                name=slice_name,
                state="released",
                arrival_epoch=request.arrival_epoch,
                duration_epochs=request.duration_epochs,
            )
            return status, {"stage": "queued"}
        if slice_name not in registry:
            raise LifecycleError(
                f"unknown slice {slice_name!r}: never submitted to this broker",
                details={"slice_name": slice_name},
            )
        try:
            record = registry.release(slice_name)
        except SliceStateError as error:
            raise LifecycleError(str(error), details={"slice_name": slice_name}) from error
        # Describe the life that was just released (status() may already
        # prefer a queued renewal waiting under the same name).  No epoch
        # journals this write, so no epoch re-announces it as an expiry.
        status = _record_status(record, registry.renewal_count(slice_name))
        metadata = {
            "stage": "admitted",
            "admitted_epoch": record.admitted_epoch,
            "compute_unit": record.compute_unit,
        }
        return status, metadata
