"""Safeguarded solver chain and the broker health state machine.

The shape follows the safeguarded augmented-Lagrangian pattern (Kanzow &
Krueger, see PAPERS.md): an aggressive primary optimizer wrapped in
safeguards that guarantee a valid -- possibly conservative -- outcome even
when the primary path fails.  The tiers, strongest first:

``primary``
    The configured solver (Benders).  Transient failures are retried up to
    :data:`MAX_RETRIES` times; a success here is bit-identical to an
    unsafeguarded run.
``warm_replay``
    Replay the last *certified* decision (produced by a successful primary
    solve) -- only when the problem's identity
    (:meth:`repro.core.problem.ACRRProblem.identity`: request set, options
    and capacities) is unchanged, so the replayed reservations are still
    capacity-feasible.
    May be stale w.r.t. this epoch's forecasts; never overbooks physical
    resources beyond what was certified.  A replay is a fallback, never a
    certificate: it is reported as this tier and certifies nothing.
``no_overbooking``
    Solve the no-overbooking variant exactly (full-SLA reservations).
    Bit-identical to :class:`~repro.core.baseline.NoOverbookingSolver` on
    the same instance -- the fault-matrix sweep pins this.  Used only if it
    keeps every committed slice admitted.
``reject_all``
    Safe mode: committed slices stay admitted (lifecycle is never corrupted)
    but with their data-plane reservations suspended; every new request is
    rejected.  Trivially feasible, always available.

The :class:`HealthMonitor` tracks the broker-visible health state:
HEALTHY -> DEGRADED on any non-primary tier, degraded commit or failed
epoch; DEGRADED -> HEALTHY after :data:`RECOVERY_EPOCHS` consecutive clean
primary epochs; reject-all puts the broker in SAFE_MODE, where the chain
skips the primary except for a recovery probe every :data:`PROBE_INTERVAL`-th
solve (a successful probe re-enters DEGRADED and starts the clean streak).
"""

from __future__ import annotations

import enum
from dataclasses import replace

from repro.core.baseline import NoOverbookingSolver
from repro.core.problem import ACRRProblem
from repro.core.solution import (
    OrchestrationDecision,
    SolverStats,
    TenantAllocation,
)
from repro.faults.plan import SolverBudgetExceededError, TransientSolverError
from repro.utils.journal import assign

TIER_PRIMARY = "primary"
TIER_WARM_REPLAY = "warm_replay"
TIER_NO_OVERBOOKING = "no_overbooking"
TIER_REJECT_ALL = "reject_all"

#: Fallback order, strongest tier first.
TIER_ORDER = (TIER_PRIMARY, TIER_WARM_REPLAY, TIER_NO_OVERBOOKING, TIER_REJECT_ALL)

#: Retries of a transient primary failure before the chain falls through.
MAX_RETRIES = 2
#: Consecutive clean primary epochs that take DEGRADED back to HEALTHY.
RECOVERY_EPOCHS = 3
#: In SAFE_MODE, every this-many-th solve is a recovery probe.
PROBE_INTERVAL = 4


class BrokerHealth(str, enum.Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    SAFE_MODE = "safe_mode"


class HealthMonitor:
    """Tracks broker health across epochs (never rolled back with an epoch:
    a fault that forced a rollback still *happened* and must count)."""

    def __init__(self):
        self.state = BrokerHealth.HEALTHY
        #: Consecutive clean (primary-tier, undegraded) epochs so far.
        self.clean_streak = 0
        self._safe_solves = 0

    def should_probe(self) -> bool:
        """Whether the next solve may try the primary tier.

        Always true outside SAFE_MODE.  In SAFE_MODE, every
        :data:`PROBE_INTERVAL`-th solve is a recovery probe; the others go
        straight to reject-all.
        """
        if self.state is not BrokerHealth.SAFE_MODE:
            return True
        self._safe_solves += 1
        return self._safe_solves % PROBE_INTERVAL == 0

    def note_outcome(self, tier: str, degraded: bool) -> None:
        """Fold one committed epoch's solve outcome into the health state."""
        if tier == TIER_REJECT_ALL:
            if self.state is not BrokerHealth.SAFE_MODE:
                self._safe_solves = 0
            self.state = BrokerHealth.SAFE_MODE
            self.clean_streak = 0
        elif tier != TIER_PRIMARY or degraded:
            self.state = BrokerHealth.DEGRADED
            self.clean_streak = 0
        else:
            self.clean_streak += 1
            if self.clean_streak >= RECOVERY_EPOCHS:
                self.state = BrokerHealth.HEALTHY
            elif self.state is BrokerHealth.SAFE_MODE:
                # Successful recovery probe: leave safe mode, keep counting
                # clean epochs towards HEALTHY.
                self.state = BrokerHealth.DEGRADED

    def note_failed_epoch(self) -> None:
        """A rolled-back epoch: reset the streak, leave HEALTHY if there."""
        self.clean_streak = 0
        if self.state is BrokerHealth.HEALTHY:
            self.state = BrokerHealth.DEGRADED


class SafeguardedSolver:
    """Solver wrapper that always returns a valid admission decision.

    Drop-in for any ``solve(problem)`` solver.  On a clean primary solve the
    returned decision is the primary's, untouched -- a zero-fault run
    through the chain is byte-identical to an unsafeguarded run.  On
    failure the chain falls through the tiers documented in the module
    docstring, stamping the active tier, retry count and fallback reason
    into ``decision.stats``.
    """

    #: Exception types the retry tier treats as transient.
    TRANSIENT_TYPES = (TransientSolverError,)

    #: The certified decision is epoch state (a rolled-back epoch must not
    #: leave a decision certified that it never committed); the health
    #: monitor deliberately is not (a fault that forced a rollback still
    #: happened).
    JOURNALED = ("_certified",)
    JOURNALED_PARTS = ("primary",)

    def __init__(
        self,
        primary,
        baseline: NoOverbookingSolver | None = None,
        health: HealthMonitor | None = None,
    ):
        self.primary = primary
        self.baseline = baseline or NoOverbookingSolver()
        self.health = health or HealthMonitor()
        #: Last certified decision: (problem identity, decision) of the
        #: most recent successful primary solve.
        self._certified: tuple[tuple, OrchestrationDecision] | None = None

    # ------------------------------------------------------------------ #
    def solve(self, problem: ACRRProblem) -> OrchestrationDecision:
        if not self.health.should_probe():
            decision = self._reject_all(
                problem, retries=0, reason="safe mode (awaiting recovery probe)"
            )
            self.health.note_outcome(TIER_REJECT_ALL, degraded=True)
            return decision

        retries = 0
        reason = ""
        while True:
            try:
                decision = self.primary.solve(problem)
            except self.TRANSIENT_TYPES as error:
                if retries < MAX_RETRIES:
                    retries += 1
                    continue
                reason = f"transient failures exhausted {retries} retries: {error}"
                break
            except SolverBudgetExceededError as error:
                reason = str(error)
                break
            except (ValueError, RuntimeError) as error:
                reason = f"{type(error).__name__}: {error}"
                break
            self._certify(problem, decision)
            if retries:
                decision = self._with_stats(
                    decision, tier=TIER_PRIMARY, retries=retries, reason=""
                )
            self.health.note_outcome(TIER_PRIMARY, degraded=bool(retries))
            return decision

        replay = self._warm_replay(problem)
        if replay is not None:
            decision = OrchestrationDecision(
                allocations=replay.allocations,
                objective_value=replay.objective_value,
                stats=replace(
                    replay.stats,
                    runtime_s=0.0,
                    iterations=0,
                    cuts_optimality=0,
                    cuts_feasibility=0,
                    message="replayed last certified decision",
                    tier=TIER_WARM_REPLAY,
                    retries=retries,
                    fallback_reason=reason,
                ),
                deficits=replay.deficits,
            )
            self.health.note_outcome(TIER_WARM_REPLAY, degraded=True)
            return decision
        reason += "; no certified decision to replay"

        try:
            decision = self.baseline.solve(problem)
        except (ValueError, RuntimeError) as error:
            reason += f"; baseline failed: {type(error).__name__}: {error}"
        else:
            if self._keeps_committed(problem, decision):
                decision = self._with_stats(
                    decision, tier=TIER_NO_OVERBOOKING, retries=retries, reason=reason
                )
                self.health.note_outcome(TIER_NO_OVERBOOKING, degraded=True)
                return decision
            reason += "; baseline dropped a committed slice"

        decision = self._reject_all(problem, retries=retries, reason=reason)
        self.health.note_outcome(TIER_REJECT_ALL, degraded=True)
        return decision

    # ------------------------------------------------------------------ #
    def _certify(self, problem: ACRRProblem, decision: OrchestrationDecision) -> None:
        assign(self, "_certified", (problem.identity(), decision))

    def _warm_replay(self, problem: ACRRProblem) -> OrchestrationDecision | None:
        """The last certified decision, if still provably capacity-feasible.

        The identity pins the request set, the options and every capacity:
        with it unchanged, the certified reservations still fit the network
        -- only the forecasts may have moved, which affects optimality,
        never feasibility of a fixed reservation vector.
        """
        if self._certified is None or self._certified[0] != problem.identity():
            return None
        return self._certified[1]

    def _keeps_committed(
        self, problem: ACRRProblem, decision: OrchestrationDecision
    ) -> bool:
        return all(
            decision.is_accepted(request.name)
            for request in problem.requests
            if request.committed
        )

    def _reject_all(
        self, problem: ACRRProblem, retries: int, reason: str
    ) -> OrchestrationDecision:
        """Tier 4: keep committed slices admitted (reservations suspended),
        reject everything else.  Never raises."""
        allocations: dict[str, TenantAllocation] = {}
        for request in problem.requests:
            if request.committed:
                allocations[request.name] = TenantAllocation(
                    request=request,
                    accepted=True,
                    compute_unit=request.metadata.get("preferred_compute_unit"),
                    paths={},
                    reservations_mbps={},
                )
            else:
                allocations[request.name] = TenantAllocation(
                    request=request, accepted=False, compute_unit=None
                )
        return OrchestrationDecision(
            allocations=allocations,
            objective_value=0.0,
            stats=SolverStats(
                solver="safeguard",
                optimal=False,
                message="reject-all safe mode",
                tier=TIER_REJECT_ALL,
                retries=retries,
                fallback_reason=reason,
            ),
        )

    @staticmethod
    def _with_stats(
        decision: OrchestrationDecision, tier: str, retries: int, reason: str
    ) -> OrchestrationDecision:
        return OrchestrationDecision(
            allocations=decision.allocations,
            objective_value=decision.objective_value,
            stats=replace(
                decision.stats, tier=tier, retries=retries, fallback_reason=reason
            ),
            deficits=decision.deficits,
        )
