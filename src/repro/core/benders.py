"""Benders decomposition solver for the AC-RR problem (Algorithm 1).

The MILP of Problem 2 couples binary admission/path variables ``x`` with the
continuous reservation variables ``z`` (and the linearisation variables
``y``).  Following Section 4.1, we split it into:

* a **master problem** (Problem 5) over ``x`` and a surrogate cost ``theta``,
  containing the path-selection constraints (5)-(7) and the cuts accumulated
  so far, and
* a **slave problem** (Problem 3) over ``(y, z)`` for a fixed ``x``,
  containing the capacity and coupling constraints.

Every slave solve contributes *optimality cuts* (21) built from its dual
multipliers.  The feasibility cuts (22) of the paper's Algorithm 1 are never
needed: the master carries the floor-footprint capacity surrogate, an exact
projection of slave feasibility onto ``x`` (see :class:`_MasterState`), so
every master candidate has a feasible slave.  A candidate whose slave comes
back infeasible anyway is a numerical failure and raises
:class:`SlaveNumericalError`.  The loop terminates when the master lower
bound and the incumbent upper bound meet, which Theorem 2 guarantees happens
after finitely many iterations.

Cross-epoch warm start (see DESIGN.md, "Warm-started solver layer"): the
orchestrator re-solves a nearly identical instance every decision epoch, so
the solver keeps the dual multipliers behind the last decision's cuts in a
one-slot :class:`CutPool` keyed by :meth:`ACRRProblem.identity`.  When the
next solve has the same identity the stored multipliers are *re-validated*
against the new instance -- the slave constraint matrix ``G`` is
forecast-independent, so a stored ``mu >= 0`` yields a provably valid
inequality for the new master once its right-hand side is re-derived from
the new ``(h0, H)`` and relaxed by the (computable) dual-infeasibility slack
against the new objective.  Stale cuts whose slack grew too large are
skipped; the surviving ones re-seed the master, which typically re-proposes
and certifies the previous optimum in one round, and the cuts that were
tight there are the new certificate.  Anything else runs the cold loop, so
warm and cold return the same decision (the differential warm-start sweeps
assert it on every instance).
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.core.decomposition import SlaveNumericalError, SlaveProblem
from repro.core.lpsolver import (
    FEASIBILITY_TOL,
    Basis,
    MILPSolution,
    append_rows,
    canonical_csc,
    solve_milp,
    stacked_arrays,
)
from repro.core.problem import ACRRProblem, InfeasibleProblemError
from repro.core.solution import (
    OrchestrationDecision,
    SolverStats,
    decision_from_vectors,
)
from repro.utils.journal import assign


def _static_rows_layout(
    problem: ACRRProblem, footprint: sparse.csc_matrix, num_thetas: int
) -> tuple:
    """The master's static rows -- capacity surrogate over path selection,
    no surrogate entries -- as ``(indptr, indices, data, slots, row_lower,
    row_upper)``; ``slots`` are the positions in ``data`` of ``footprint``'s
    entries, in its order.  Selection is forecast-free, so ``data`` serves
    every forecast with ``footprint``'s pattern once the slots are
    rewritten."""
    capacity, selection = problem.capacity_block(), problem.selection_block()
    num_rows = capacity.num_rows + selection.num_rows
    indptr, indices, data, _ = stacked_arrays(
        [[footprint, selection.x], [(num_rows, num_thetas)]]
    )
    # Column j holds its footprint entries first (capacity rows come first).
    slots = np.arange(footprint.nnz) + np.repeat(
        indptr[: problem.num_items] - footprint.indptr[:-1], np.diff(footprint.indptr)
    )
    return (
        indptr,
        indices,
        data,
        slots,
        np.concatenate([capacity.lower, selection.lower]),
        np.concatenate([capacity.upper, selection.upper]),
    )


class _MasterState:
    """Incremental Benders master: static skeleton plus a growing cut matrix.

    The master MILP of Problem 5 changes between iterations only by the cuts
    appended at the bottom, so the per-problem structure -- the objective
    over ``(x, theta_0..theta_{B-1})``, the bounds/integrality vectors and
    the static rows (capacity surrogate, then path selection) -- is
    assembled exactly once, column-major and canonical: the layout HiGHS
    takes.  Cuts are queued as plain dense blocks, column-major (row ``j``
    of a block holds master column ``j``'s entries of its cuts), so
    ``add_cuts`` builds no sparse object at all; ``rows()`` appends the
    cuts queued since the last call below the rows, one pass whatever
    their number, and builds the one matrix it hands out.

    ``theta_lowers`` carries one lower bound per surrogate, one surrogate
    per slave block (:class:`SlaveBlock.theta_lower`); the *sum* of the
    surrogates stands in for the slave cost in the objective.
    """

    def __init__(
        self,
        problem: ACRRProblem,
        cost_x: np.ndarray,
        theta_lowers: np.ndarray,
    ):
        n = problem.num_items
        theta_lowers = np.asarray(theta_lowers, dtype=float)
        num_thetas = len(theta_lowers)
        self.num_items = n
        self.num_thetas = num_thetas
        self.cost = np.concatenate([cost_x, np.ones(num_thetas)])
        self.lower = np.concatenate([np.zeros(n), theta_lowers])
        self.upper = np.concatenate([np.ones(n), np.full(num_thetas, np.inf)])
        self.integrality = np.concatenate([np.ones(n), np.zeros(num_thetas)])

        # Floor-footprint capacity surrogates.  Every admitted item must
        # reserve at least its floor (constraint (9): z >= lambda_hat x, or
        # the full SLA without overbooking) and the capacity coefficients are
        # non-negative, so the minimal capacity usage of an admission vector
        # x is A_x x + A_z (floor . x).  Projecting the capacity rows onto x
        # this way is therefore *exact*: a master candidate satisfies the
        # surrogate iff its slave LP is feasible, which is why the loop needs
        # optimality cuts only.  Without it, the master explored the
        # (exponentially symmetric) space of overloaded path combinations
        # one weak phase-1 feasibility cut at a time -- the differential
        # harness caught instances with binding transport capacity where the
        # incumbent never appeared within hundreds of iterations.
        #
        # The static rows are laid out once per structure, surrogate count
        # and footprint pattern (a floor of zero drops entries); a solve
        # writes this forecast's footprint into its slots, so a master round
        # only merges its cut rows in.
        footprint = problem.floor_footprint()
        pattern = (num_thetas, footprint.indptr.tobytes(), footprint.indices.tobytes())
        indptr, indices, template, slots, self._static_lower, self._static_upper = (
            problem.per_structure(
                ("master rows", *pattern),
                lambda: _static_rows_layout(problem, footprint, num_thetas),
            )
        )
        self.num_static_rows = len(self._static_lower)
        data = template.copy()
        data[slots] = footprint.data
        #: The rows merged so far as canonical column-major arrays, and
        #: their matrix, built when :meth:`rows` hands them out.
        self._layout = (indptr, indices, data)
        self._rows: sparse.csc_matrix | None = None
        #: Every cut, one dense ``(x + thetas, cuts)`` block per
        #: :meth:`add_cuts` call, in insertion order; the blocks not merged
        #: into ``_layout`` yet; how many cuts are.
        self._cut_columns: list[np.ndarray] = []
        self._queued: list[np.ndarray] = []
        self._cut_rhs: list[float] = []
        self._merged_cuts = 0

    @property
    def num_cuts(self) -> int:
        return len(self._cut_rhs)

    def add_cuts(
        self,
        coefficients: np.ndarray,
        rhs: list[float],
        block_ids: list[int | None],
    ) -> None:
        """Append optimality cuts ``coeff' x + thetas >= rhs``, one per
        column of the ``(x, cuts)`` array ``coefficients``.

        ``block_ids`` selects which surrogates each cut bounds: ``None``
        means all of them (the aggregate cut), a block index that block's
        own.  The cuts are only *queued* here; :meth:`rows` merges them in.
        """
        if not block_ids:
            return
        n = self.num_items
        columns = np.zeros((n + self.num_thetas, len(block_ids)))
        columns[:n] = coefficients
        for cut, block_id in enumerate(block_ids):
            if block_id is None:
                columns[n:, cut] = 1.0
            else:
                columns[n + block_id, cut] = 1.0
        self._cut_columns.append(columns)
        self._queued.append(columns)
        self._cut_rhs.extend(rhs)

    def cut_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The cuts as a dense, row-major ``(cuts, x + thetas)`` array, and
        their RHS."""
        if not self._cut_columns:
            return np.zeros((0, self.num_items + self.num_thetas)), np.zeros(0)
        cuts = np.ascontiguousarray(np.hstack(self._cut_columns).T)
        return cuts, np.asarray(self._cut_rhs)

    def tight_cuts(self, values: np.ndarray) -> np.ndarray:
        """Per cut, in row order, whether it is tight at ``values`` (over
        ``x`` and the surrogates), within the relative
        :data:`FEASIBILITY_TOL`."""
        cuts, rhs = self.cut_rows()
        activity = cuts.dot(values)
        return activity - rhs <= FEASIBILITY_TOL * np.maximum(1.0, np.abs(activity))

    def rows(self) -> tuple[sparse.csc_matrix, np.ndarray, np.ndarray]:
        """Capacity surrogate, path selection, then the cuts in insertion
        order: one canonical column-major matrix and its row bounds."""
        if self._queued:
            self._layout = append_rows(
                *self._layout, self.num_static_rows + self._merged_cuts, np.hstack(self._queued)
            )
            self._queued, self._merged_cuts, self._rows = [], self.num_cuts, None
        if self._rows is None:
            shape = (self.num_static_rows + self.num_cuts, self.num_items + self.num_thetas)
            self._rows = canonical_csc(*self._layout, shape)
        return (
            self._rows,
            np.concatenate([self._static_lower, self._cut_rhs]),
            np.concatenate([self._static_upper, np.full(self.num_cuts, np.inf)]),
        )


@dataclass(frozen=True)
class _PoolEntry:
    """The certificate of the last decision.  Immutable: the pool replaces
    it, so the epoch journal can keep the old one without copying it."""

    num_rows: int
    #: Dual multipliers of the decision's cuts as ``(mu, block_id)`` pairs,
    #: no two equal; ``block_id`` is ``None`` for aggregate (full-system)
    #: cuts and a slave block index for block cuts, whose multipliers span
    #: only that block's slave rows.
    multipliers: tuple[tuple[np.ndarray, int | None], ...]
    #: The decision's admission vector.
    best_x: np.ndarray
    #: Per multiplier, the half of its re-validation no forecast enters:
    #: ``(-h0' mu, G' mu)`` over its slave rows, ``G' mu`` kept at its
    #: slave columns, or None until a re-validation computes it (a cold
    #: solve records none).
    halves: tuple[tuple[float, np.ndarray] | None, ...]
    #: The slave ``G`` the halves were computed against: the structure's
    #: own, shared by every clone of it.  A slave with another ``G``
    #: computes them afresh.
    g_columns: sparse.csc_matrix | None = field(default=None, compare=False)
    #: The optimal basis of the slave LP a fast-path hit priced the
    #: decision with, for the next hit's pricing to start from; None after
    #: a cold solve.
    slave_basis: Basis | None = None


class CutPool:
    """Cross-epoch persistence of Benders cuts: one slot holding the
    certificate of the last decision, keyed by :meth:`ACRRProblem.identity`
    (no arrival epochs: a *renewed* slice warm-starts from the cuts of its
    previous life, as long as nothing else was solved in between).

    The pool stores the *dual multipliers* ``mu`` behind each cut rather
    than the cut coefficients themselves: coefficients ``(H' mu, -h0' mu)``
    are cheap to re-derive and doing so automatically adapts each cut to the
    new epoch's right-hand side.  Validity of a re-derived cut for the new
    instance is then proven, not assumed: an optimality cut needs dual
    feasibility ``G' mu >= -d``, and where that fails by a margin, the cut
    is *repaired* instead of trusted: every feasible slave point satisfies
    the implied bounds ``0 <= (y, z) <= sla`` (constraints (8)/(10)), so
    relaxing the right-hand side by ``sum_j max(0, violation_j) * sla_j``
    restores a mathematically valid inequality.  Cuts whose repair slack
    exceeds :data:`_MAX_RELATIVE_SLACK` of the cut's own scale carry no
    information anymore and are skipped as stale.

    ``G`` and ``h0`` are forecast-free, so ``-h0' mu`` and ``G' mu`` of a
    stored multiplier are the same floats every epoch of one structure: the
    certificate carries them (:attr:`_PoolEntry.halves`), computed at a
    multiplier's first re-validation, and a later one computes only what
    the forecast moves -- ``H' mu`` and the violation against the new ``d``.

    Every solve replaces the slot once (:meth:`record`): a cold solve with
    its own multipliers, a fast-path hit with the seeded multipliers whose
    cuts were tight at the seeded master's optimum plus the multiplier it
    priced the previous decision with.  The slot is a certificate, not an
    archive, and dropping anything from it cannot cost validity -- every
    seeded cut is still re-proven and a miss still runs the cold loop --
    only, at worst, a certification; nor can a key collision, for the same
    reason (the carried halves are used only against the ``G`` they were
    computed from).
    """

    JOURNALED = ("_slot",)

    def __init__(self):
        #: ``(identity, certificate)`` of the last decision, or None.
        self._slot: tuple[tuple, _PoolEntry] | None = None

    def __contains__(self, key: tuple) -> bool:
        return self._slot is not None and self._slot[0] == key

    def slave_basis(self, key: tuple) -> Basis | None:
        """The slave basis the certificate of ``key`` holds, if any."""
        return self._slot[1].slave_basis if key in self else None

    def seed_master(
        self, key: tuple, master: "_MasterState", slave: SlaveProblem
    ) -> tuple[list[tuple[np.ndarray, int | None]], np.ndarray | None]:
        """Re-validate the stored cuts of ``key`` and add the survivors.

        Returns ``(the multipliers seeded, in row order; the stored
        admission vector)`` -- ``([], None)`` if the slot holds no
        certificate of this system.  Cuts are seeded in their stored order
        so repeated solves of an identical instance build identical master
        problems.  Halves computed here complete the slot's certificate.
        """
        num_rows = len(slave.h0)
        if key not in self or self._slot[1].num_rows != num_rows:
            return [], None
        entry = self._slot[1]

        # Block cuts are only seedable into a master that actually carries
        # that block's surrogate (a master over the same block structure).
        blocks = None
        if any(block_id is not None for _, block_id in entry.multipliers):
            candidate = slave.blocks()
            if master.num_thetas == len(candidate):
                blocks = candidate

        # The seedable multipliers in storage order, each with its rows and
        # columns of the slave.
        multipliers = entry.multipliers
        usable = []
        for position, (mu, block_id) in enumerate(multipliers):
            if block_id is None:
                if len(mu) == num_rows:
                    usable.append((position, slice(None), slice(None)))
            elif blocks is not None and 0 <= block_id < len(blocks):
                block = blocks[block_id]
                if len(mu) == block.num_rows:
                    usable.append((position, block.slave_rows, block.slave_cols))

        # The forecast-free halves the certificate does not carry yet,
        # computed in one batch and carried from here on.
        carried = entry.g_columns is slave.g_columns
        halves = list(entry.halves) if carried else [None] * len(multipliers)
        missing = [member for member in usable if halves[member[0]] is None]
        if missing:
            # G is forecast-free: its transpose is kept per structure.
            g_transposed = slave.problem.per_structure("slave G'", lambda: slave.g_columns.T)
            computed = _forecast_free_halves(
                slave,
                g_transposed,
                [(*multipliers[position], rows, cols) for position, rows, cols in missing],
            )
            for (position, _, _), half in zip(missing, computed):
                halves[position] = half
            completed = dataclasses.replace(
                entry, halves=tuple(halves), g_columns=slave.g_columns
            )
            assign(self, "_slot", (key, completed))
        if not usable:
            return [], entry.best_x

        # What the forecast moves.
        coeffs, rhs, repair = _revalidate(
            slave,
            [
                (multipliers[position][0], rows, cols, halves[position])
                for position, rows, cols in usable
            ],
        )
        rhs -= repair
        # A cut whose repair outweighs its own scale says nothing any more.
        cut_scale = np.fmax(np.fmax(1.0, np.abs(rhs + repair)), np.abs(coeffs).max(axis=0))
        fresh = np.flatnonzero(~(repair > _MAX_RELATIVE_SLACK * cut_scale)).tolist()
        seeded = [multipliers[usable[column][0]] for column in fresh]
        master.add_cuts(coeffs[:, fresh], rhs[fresh].tolist(), [block_id for _, block_id in seeded])
        return seeded, entry.best_x

    def record(
        self,
        key: tuple,
        num_rows: int,
        multipliers: list[tuple[np.ndarray, int | None]],
        best_x: np.ndarray,
        slave_basis: Basis | None = None,
    ) -> None:
        """Replace the slot with one decision's certificate: its
        multipliers, each ``(block_id, bytes)`` once and at most the newest
        :data:`_MAX_CUTS_PER_STRUCTURE`, its admission vector and a hit's
        slave basis.  A pair the slot already holds for ``key`` (the very
        object :meth:`seed_master` handed out) is kept as it is, with its
        half."""
        held, g_columns = {}, None
        if key in self:
            entry = self._slot[1]
            g_columns = entry.g_columns
            held = {id(pair): half for pair, half in zip(entry.multipliers, entry.halves)}
        distinct = {}
        for pair in multipliers:
            mu, block_id = pair
            identity = (block_id, np.asarray(mu).tobytes())
            if identity not in distinct:
                if id(pair) in held:
                    distinct[identity] = (pair, held[id(pair)])
                else:
                    distinct[identity] = ((np.array(mu), block_id), None)
        kept = list(distinct.values())[max(0, len(distinct) - _MAX_CUTS_PER_STRUCTURE) :]
        certificate = _PoolEntry(
            num_rows,
            tuple(pair for pair, _ in kept),
            np.array(best_x),
            tuple(half for _, half in kept),
            g_columns,
            slave_basis,
        )
        assign(self, "_slot", (key, certificate))


def _forecast_free_halves(
    slave: SlaveProblem,
    g_transposed: sparse.csr_matrix,
    members: list[tuple[np.ndarray, int | None, slice | np.ndarray, slice | np.ndarray]],
) -> list[tuple[float, np.ndarray]]:
    """``(-h0' mu, G' mu)`` of the stored multipliers ``(mu, block_id,
    rows, cols)``: ``rows`` / ``cols`` are the multiplier's slave rows and
    columns -- all of them for an aggregate multiplier, its block's for a
    block multiplier -- and ``G' mu`` is kept over ``cols``.

    Each multiplier is zero-padded into its rows, so the other rows
    contribute exact zeros and one product with ``G'`` serves every
    multiplier; every entry of a block's columns lies in the block's rows.
    Each multiplier keeps the arithmetic of re-validating its own block
    alone: the sparse product sums each column in the same order whatever
    else the batch holds, and ``-h0' mu`` is taken per block over the same
    stacked multipliers (a dense product's summation order can depend on
    its shape).
    """
    padded = np.zeros((len(slave.h0), len(members)))
    groups: dict[int | None, list[int]] = {}
    for column, (mu, block_id, rows, _) in enumerate(members):
        padded[rows, column] = mu
        groups.setdefault(block_id, []).append(column)
    rhs = np.empty(len(members))
    for columns in groups.values():
        mu_matrix = np.stack([members[column][0] for column in columns])
        rhs[columns] = -mu_matrix.dot(slave.h0[members[columns[0]][2]])
    dual_slack = g_transposed.dot(padded)
    return [
        (rhs_value, dual_slack[cols, column].copy())
        for column, (rhs_value, (_, _, _, cols)) in enumerate(zip(rhs.tolist(), members))
    ]


def _revalidate(
    slave: SlaveProblem,
    members: list[tuple[np.ndarray, slice | np.ndarray, slice | np.ndarray, tuple[float, np.ndarray]]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut coefficients ``H' mu`` (one column each), right-hand sides
    ``-h0' mu`` and repair slacks of the stored multipliers ``(mu, rows,
    cols, half)`` -- ``rows`` / ``cols`` its slave rows and columns --
    given each one's forecast-free ``half`` (see
    :func:`_forecast_free_halves`): the part of the re-validation the
    forecast moves.  ``H`` reads the reservation floors; the repair reads
    ``d``."""
    # Dual feasibility G' mu >= -d fails by ``violation``; every feasible
    # slave point obeys 0 <= u <= sla, which bounds what that can cost.
    violation = np.maximum(
        0.0,
        -(
            np.concatenate([dual_slack for *_, (_, dual_slack) in members])
            + np.concatenate([slave.d[cols] for _, _, cols, _ in members])
        ),
    )
    repair = np.empty(len(members))
    end = 0
    for column, (_, _, cols, (_, dual_slack)) in enumerate(members):
        start, end = end, end + len(dual_slack)
        # One contiguous vector per multiplier: a strided dot product sums
        # in another order, and the cut's last bit would move.  Without a
        # violation it is an exact 0.0 (the bounds are finite).
        repair[column] = np.dot(violation[start:end], slave.u_bound[cols])
    rhs = np.array([rhs_value for *_, (rhs_value, _) in members])
    return slave.cut_coefficients([(mu, rows) for mu, rows, _, _ in members]), rhs, repair


#: Hard cap of the certificate a decision leaves in the pool: the newest
#: multipliers of a long cold loop are kept.
_MAX_CUTS_PER_STRUCTURE = 256

#: Largest repair slack, relative to the cut's own scale, at which a stored
#: multiplier is still seeded (see :class:`CutPool`).
_MAX_RELATIVE_SLACK = 0.1

#: This process's pricing helper as ``(pid, worker)``; see :func:`_helper`.
_pricing_helper: tuple[int, futures.ThreadPoolExecutor | None] = (-1, None)


def _helper() -> futures.ThreadPoolExecutor | None:
    """The one worker thread a round's second HiGHS solve runs on, or None
    where the process has a single usable CPU (two threads there only take
    turns).  Rebuilt when the pid changes: a forked child inherits the
    executor but not its thread.  Unlocked on purpose: two threads racing
    here build at most one spare worker, which exits once dropped, while a
    lock caught by a fork would hang the child."""
    global _pricing_helper
    if _pricing_helper[0] != os.getpid():
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        worker = None
        if cpus > 1:
            worker = futures.ThreadPoolExecutor(1, thread_name_prefix="benders-pricing")
        _pricing_helper = (os.getpid(), worker)
    return _pricing_helper[1]


class _Overlapped:
    """A solve started on the :func:`_helper` while the caller runs another
    (DESIGN.md, "Overlapped pricing").  Without a helper the call is
    deferred to :meth:`result`, which is then the serial order."""

    def __init__(self, call, *args):
        self._call, self._args = call, args
        helper = _helper()
        self._future = None if helper is None else helper.submit(call, *args)

    def result(self):
        return self._call(*self._args) if self._future is None else self._future.result()

    def settle(self) -> None:
        """Wait for the call and drop its outcome (a deferred one never
        runs).  Every exit of a round passes here: no work outlives it."""
        if self._future is not None:
            self._future.exception()


@dataclass
class _LoopState:
    """Bounds, incumbent and cut bookkeeping of one run of Algorithm 1."""

    upper_bound: float = float("inf")
    lower_bound: float = -float("inf")
    best_x: np.ndarray | None = None
    best_z: np.ndarray | None = None
    iterations: int = 0
    optimality_cuts: int = 0
    time_truncated: bool = False
    #: ``(mu, block_id)`` behind every cut, in master order; what the
    #: :class:`CutPool` stores for the next structurally equal solve.
    multipliers: list[tuple[np.ndarray, int | None]] = field(default_factory=list)


class BendersSolver:
    """Optimal AC-RR solver based on Benders decomposition.

    The slave is disaggregated by per-tenant resource block (see
    :meth:`SlaveProblem.blocks`): every master round prices each block
    independently and adds one optimality cut per block on its own surrogate
    ``theta_b`` *in addition to* the classic aggregate cut, so the master
    lower bound tightens fast while keeping the exact certificate the
    aggregate cut carries.  The blocks of a round are priced together by one
    block-diagonal LP (:meth:`SlaveProblem.evaluate_blocks`), solved on a
    helper thread beside the joint slave LP (:class:`_Overlapped`).
    """

    JOURNALED_PARTS = ("cut_pool",)

    def __init__(
        self,
        tolerance: float = 1e-4,
        relative_tolerance: float = 0.01,
        max_iterations: int = 200,
        master_time_limit_s: float | None = 60.0,
        time_limit_s: float | None = 120.0,
        warm_start: bool = True,
        multi_cut: bool = True,
    ):
        """Configure the decomposition.

        ``tolerance`` and ``relative_tolerance`` define the stopping rule
        ``UB - LB <= max(tolerance, relative_tolerance * |UB|)``: the classic
        Benders tail converges very slowly (the paper reports hours on CPLEX
        for the full networks), so by default the solver stops once the
        incumbent is provably within 1 % of the optimum.  ``time_limit_s``
        bounds the total wall-clock time; the incumbent found so far is
        returned (and flagged as non-optimal) when it is exceeded.

        ``warm_start`` keeps a :class:`CutPool` on the solver instance
        (:attr:`cut_pool`): a solve of the identity solved last (the
        orchestrator's steady-state epochs) is seeded with the cuts of the
        previous decision's certificate.  Warm starts only ever add *valid*
        inequalities, so a warm decision carries the certificate a cold one
        does (asserted by the differential warm-start sweeps); disable for
        raw-latency baselines.

        ``multi_cut`` is inert: the per-block master is the only master.
        The keyword is accepted (``True`` only) because
        ``benchmarks/e2e/workloads.py`` still passes it.
        """
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if relative_tolerance < 0:
            raise ValueError("relative_tolerance must be non-negative")
        if max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if not multi_cut:
            raise ValueError("multi_cut=False: the single-cut master was deleted")
        self.tolerance = tolerance
        self.relative_tolerance = relative_tolerance
        self.max_iterations = max_iterations
        self.master_time_limit_s = master_time_limit_s
        self.time_limit_s = time_limit_s
        self.cut_pool: CutPool | None = CutPool() if warm_start else None

    # ------------------------------------------------------------------ #
    def solve(self, problem: ACRRProblem) -> OrchestrationDecision:
        """Run Algorithm 1 and return the resulting orchestration decision."""
        start = time.perf_counter()
        slave = SlaveProblem(problem)
        cost_x = problem.objective_x()
        # Builds the block stack before any round hands the slave to a helper.
        theta_lowers = np.array([block.theta_lower for block in slave.blocks()])

        if self.cut_pool is not None:
            fast = self._warm_fast_path(problem, slave, cost_x, theta_lowers, start)
            if fast is not None:
                return fast

        # Cold path.  Deliberately untouched by warm-start state: when the
        # fast path misses, the trajectory below is bit-identical to a
        # ``warm_start=False`` solver, cuts, candidates, incumbent and all.
        master = _MasterState(problem, cost_x, theta_lowers)
        state = _LoopState()
        for iteration in range(1, self.max_iterations + 1):
            state.iterations = iteration
            x_candidate, state.lower_bound = self._master_step(master)
            outcome, block_outcomes = self._price(slave, cost_x, x_candidate, state)
            self._add_cuts(master, slave, state, outcome, block_outcomes)
            if self._converged(state):
                break
            if (
                self.time_limit_s is not None
                and time.perf_counter() - start > self.time_limit_s
                and state.best_x is not None
            ):
                state.time_truncated = True
                break

        if state.best_x is None:
            raise InfeasibleProblemError(
                "Benders decomposition found no feasible admission vector within "
                f"{self.max_iterations} iterations"
            )
        stats = self._loop_stats(state, runtime_s=time.perf_counter() - start)
        if self.cut_pool is not None:
            self.cut_pool.record(
                problem.identity(), len(slave.h0), state.multipliers, state.best_x
            )
        return decision_from_vectors(problem, state.best_x, state.best_z, stats)

    # ------------------------------------------------------------------ #
    # The steps of one round
    # ------------------------------------------------------------------ #
    def _master_step(self, master: _MasterState) -> tuple[np.ndarray, float]:
        """Solve the master: the next candidate and a valid lower bound."""
        result = self._solve_master(master)
        if result.infeasible:
            raise InfeasibleProblemError(
                "Benders master problem became infeasible: the committed "
                "slices cannot be accommodated, and the decomposition does not "
                "model the Section 3.4 deficit relaxation (options.allow_deficit "
                "is read by DirectMILPSolver only)"
            )
        if not result.success:
            raise RuntimeError(f"Benders master MILP not solved: {result.status}")
        return np.round(result.values[: master.num_items]), float(result.objective)

    @staticmethod
    def _price(
        slave: SlaveProblem, cost_x: np.ndarray, x_candidate: np.ndarray, state: _LoopState
    ):
        """Price the candidate: the joint slave LP here while the helper
        prices every block with one stacked LP.  A candidate that improves on
        the incumbent becomes the incumbent (and the upper bound).  The joint
        LP's error wins; a block error surfaces after a successful joint
        solve -- the order of pricing them one by one.

        The master's floor-footprint surrogate is exact, so every candidate
        has a feasible slave: an infeasible one is a numerical failure."""
        blocks = _Overlapped(slave.evaluate_blocks, x_candidate)
        try:
            outcome = slave.evaluate(x_candidate)
            if not outcome.feasible:
                raise SlaveNumericalError(
                    "slave LP infeasible at a master candidate that satisfies the "
                    f"exact capacity surrogate (phase-1 infeasibility {outcome.infeasibility!r})"
                )
            candidate_upper = float(np.dot(cost_x, x_candidate)) + outcome.objective
            if candidate_upper < state.upper_bound - 1e-12:
                state.upper_bound = candidate_upper
                state.best_x = x_candidate
                state.best_z = outcome.z
            return outcome, blocks.result()
        finally:
            blocks.settle()

    @staticmethod
    def _add_cuts(
        master: _MasterState, slave: SlaveProblem, state: _LoopState, outcome, block_outcomes
    ) -> None:
        """Cut the candidate off with optimality cuts (21): the aggregate
        cut, then one per block in block order -- the order the master and
        the pool both see.

        The aggregate cut keeps the certificate exact where blocks compete
        for shared capacity.  Each block prices the tenant's relaxed sub-LP,
        so its cut is a valid lower bound on theta_b (q(x) >= sum_b q_b(x),
        see SlaveBlock)."""
        cuts = [(outcome.duals, slice(None), None)] + [
            (result.duals, block.slave_rows, block.index)
            for block, result in zip(slave.blocks(), block_outcomes)
        ]
        master.add_cuts(
            slave.cut_coefficients([(mu, rows) for mu, rows, _ in cuts]),
            [-float(np.dot(slave.h0[rows], mu)) for mu, rows, _ in cuts],
            [block_id for *_, block_id in cuts],
        )
        multipliers = [(mu, block_id) for mu, _, block_id in cuts]
        state.multipliers += multipliers
        state.optimality_cuts += len(multipliers)

    def _gap_target(self, upper_bound: float) -> float:
        return max(self.tolerance, self.relative_tolerance * abs(upper_bound))

    def _converged(self, state: _LoopState) -> bool:
        """The stopping rule: an incumbent exists and the bounds have met."""
        return bool(
            np.isfinite(state.upper_bound)
            and state.upper_bound - state.lower_bound
            <= self._gap_target(state.upper_bound)
        )

    def _loop_stats(self, state: _LoopState, runtime_s: float) -> SolverStats:
        message = f"UB={state.upper_bound:.6f} LB={state.lower_bound:.6f}"
        if state.time_truncated:
            message += " (time limit reached; incumbent not certified)"
        return SolverStats(
            solver="benders",
            iterations=state.iterations,
            runtime_s=runtime_s,
            optimal=not state.time_truncated and self._converged(state),
            gap=max(0.0, state.upper_bound - state.lower_bound),
            cuts_optimality=state.optimality_cuts,
            message=message,
            time_truncated=state.time_truncated,
        )

    # ------------------------------------------------------------------ #
    # Warm start
    # ------------------------------------------------------------------ #
    def _warm_fast_path(
        self,
        problem: ACRRProblem,
        slave: SlaveProblem,
        cost_x: np.ndarray,
        theta_lowers: np.ndarray,
        start: float,
    ) -> OrchestrationDecision | None:
        """One-iteration re-certification of the previous epoch's optimum.

        The pool's stored cuts are re-validated and seeded into a fresh
        master; one master solve then yields a *valid lower bound* for the
        new instance (the seeded cuts are proven valid inequalities) and one
        slave evaluation prices the previous admission vector on the new
        right-hand side, hot-started from the slave basis the previous hit
        left in the certificate (a drifted forecast leaves that basis
        optimal, and the multipliers and vertex are the cold solve's:
        DESIGN.md, "HiGHS is driven directly").  When ``UB(previous x) - LB
        <= gap_target`` -- the exact stopping rule the cold loop uses -- the
        previous decision is certified gap-target-optimal for the new
        instance and returned after a single master/slave round.

        Anything less -- an infeasible slave, an open gap, a structurally
        unknown instance -- returns None and the caller runs the standard
        cold loop from a virgin master, so a fast-path miss is bit-identical
        to a solver with warm starts disabled.  The fast path never trades
        accuracy for speed: a hit carries the same optimality certificate a
        cold termination carries.

        Closing the stopping rule is not enough on its own: a hit is a
        *re-proposal* -- the seeded master must propose exactly the previous
        admission vector, as the first round of a cold loop would propose
        its incumbent.  The seeded cuts bound the answer; they never choose
        it.  A previous decision certified inside the stopping band but not
        re-proposed is a tie cold may break the other way, so it runs cold.
        A byte-identical re-solve (a renewal the orchestrator's decision
        reuse did not catch) takes this same path: it re-proposes or runs
        cold, same decision.
        """
        pool_key = problem.identity()
        if pool_key not in self.cut_pool:
            # Not the identity solved last: nothing to seed.
            return None
        slave_basis = self.cut_pool.slave_basis(pool_key)
        seeded_master = _MasterState(problem, cost_x, theta_lowers)
        seeded, previous_x = self.cut_pool.seed_master(pool_key, seeded_master, slave)
        if not seeded:
            return None
        # The previous decision is priced on the helper while the seeded
        # master is solved here: the two share no state.  The slave LP
        # starts from the basis the previous hit left, if any.
        pricing = _Overlapped(slave.evaluate, previous_x, slave_basis)
        try:
            solved = self._solve_master(seeded_master)
            if not solved.success:
                return None
            master_objective = float(solved.objective)
            x_proposed = np.round(solved.values[: seeded_master.num_items])
            tight = seeded_master.tight_cuts(solved.values)
            outcome = pricing.result()
        finally:
            pricing.settle()
        if not outcome.feasible:
            return None
        upper_bound = float(np.dot(cost_x, previous_x)) + outcome.objective
        gap = upper_bound - master_objective
        if not np.isfinite(gap) or gap > self._gap_target(upper_bound):
            return None
        if not np.array_equal(x_proposed, previous_x):
            return None
        stats = SolverStats(
            solver="benders",
            iterations=1,
            runtime_s=time.perf_counter() - start,
            optimal=True,
            gap=max(0.0, gap),
            cuts_optimality=1,
            cuts_warm=len(seeded),
            message=(
                f"UB={upper_bound:.6f} LB={master_objective:.6f} (warm fast path, "
                f"{len(seeded)} seeded cuts, {'cold' if slave_basis is None else 'hot'} pricing)"
            ),
        )
        # The hit's certificate: the seeded cuts that bound the re-proposal,
        # the one it was priced with, and that slave LP's basis.
        kept = [multiplier for multiplier, bound in zip(seeded, tight) if bound]
        self.cut_pool.record(
            pool_key,
            len(slave.h0),
            kept + [(outcome.duals, None)],
            previous_x,
            outcome.basis,
        )
        return decision_from_vectors(problem, previous_x, outcome.z, stats)

    def _solve_master(self, master: _MasterState) -> MILPSolution:
        """Solve the current master MILP (values over x and the surrogates,
        x not yet rounded)."""
        return solve_milp(
            master.cost,
            *master.rows(),
            master.integrality,
            master.lower,
            master.upper,
            time_limit_s=self.master_time_limit_s,
        )
