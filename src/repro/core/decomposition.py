"""Shared machinery for the decomposition-based solvers (Benders and KAC).

Both algorithms of Section 4 work on the same *slave* linear program
(Problem 3): for a fixed admission/path vector ``x``, choose the reservations
``z`` (and the linearisation variables ``y``) that minimise the risk part of
the objective subject to the capacity and coupling constraints.  This module
builds that LP once, in the parametric form

    min  d' u          u = (y, z) >= 0
    s.t. G u <= h0 + H x,

so that solving it for a new ``x`` only changes the right-hand side.  The
dual multipliers of a feasible solve yield Benders *optimality cuts*; the
phase-1 certificate of an infeasible solve yields the knapsack weights
(27)-(28) used by the KAC heuristic.  Benders never asks for a feasibility
cut: its master's capacity surrogate keeps every candidate slave-feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from repro.core.lpsolver import (
    Basis,
    CompiledLP,
    LPSolution,
    Phase1Problem,
    canonical_csc,
    gather_slices,
    stack_columns,
    stacked_arrays,
    transposed_layout,
    with_data,
)
from repro.core.problem import ACRRProblem

#: Numerical tolerance below which a phase-1 optimum counts as "feasible".
FEASIBILITY_TOLERANCE = 1e-6


class SlaveNumericalError(RuntimeError):
    """The slave LP solver failed on an essentially-feasible instance.

    Deterministic numerical breakdown, not a transient fault: the phase-1
    certificate proves the instance is feasible (within
    :data:`FEASIBILITY_TOLERANCE`) yet the LP solver refused it, a block LP
    was not solved, or a Benders candidate -- slave-feasible by the master's
    exact capacity surrogate -- came back infeasible.  Subclasses
    ``RuntimeError`` so the safeguard chain's fall-through tier
    (:mod:`repro.faults.safeguard`) catches it and degrades instead of
    retrying -- retrying a deterministic solve reproduces the failure.
    """


@dataclass(frozen=True)
class SlaveSolveOutcome:
    """Result of evaluating the slave LP at a fixed admission vector."""

    feasible: bool
    objective: float
    y: np.ndarray
    z: np.ndarray
    duals: np.ndarray
    infeasibility: float
    ray: np.ndarray
    #: The slave LP's optimal basis (None unless feasible), to hot-start the
    #: next slave LP of this structure from.
    basis: Basis | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SlaveBlock:
    """One tenant's relaxed slice of the slave LP (multi-cut block).

    ``rows`` / ``cols`` are the block's ranges in the :class:`BlockStack`,
    ``slave_rows`` / ``slave_cols`` the slave rows and columns they copy, in
    increasing slave order.  Dropping the other tenants' non-negative terms
    from a shared ``<=`` row while keeping the full right-hand side relaxes
    the row, so the block optimum underestimates the tenant's share of the
    joint slave cost:

        q(x) >= sum_b q_b(x)   for every admission vector x,

    which makes per-block optimality cuts ``theta_b >= -(h0_b + H_b x)' mu``
    valid lower bounds on the per-block surrogates whatever iteration the
    multipliers came from.
    """

    index: int
    rows: slice
    cols: slice
    #: Views into the stack's row and column maps: fixed by the ranges.
    slave_rows: np.ndarray = field(compare=False, repr=False)
    slave_cols: np.ndarray = field(compare=False, repr=False)
    #: Valid lower bound on the block optimum for any admission vector: the
    #: linearisation variable y never exceeds the SLA bitrate and its
    #: objective coefficients are non-positive, so the block objective is
    #: bounded below by the sum of c_y[i] * Lambda_i over the block's items.
    #: Bounds the master's surrogate theta_b before any optimality cut exists.
    theta_lower: float

    @property
    def num_rows(self) -> int:
        return self.rows.stop - self.rows.start


@dataclass(frozen=True)
class BlockStack:
    """Every per-tenant block of the slave as one block-diagonal LP.

    Block ``b`` is the relaxed slice of the slave that belongs to tenant
    ``b``: the capacity rows its items touch, then the items' coupling rows,
    restricted to the tenant's own ``u = (y_b, z_b)`` columns.  Shared
    capacity rows are duplicated once per block that touches them, so the
    blocks are row- *and* column-disjoint and stack into

        min  d' u   s.t.  diag(G_b) u <= h(x)[slave_rows],   u >= 0,

    which separates: its optimum is the concatenation of the block optima,
    primal and dual.  One LP call therefore prices every block of a round
    (:meth:`SlaveProblem.evaluate_blocks`) and a :class:`SlaveBlock` is just
    a contiguous row range and column range of these arrays.  The stack
    holds no ``h0`` or ``H``: a right-hand side is the slave's gathered, and
    a block multiplier's cut is the slave's cut of it padded into the
    block's slave rows (:meth:`SlaveProblem.cut_coefficients`).
    """

    blocks: list[SlaveBlock]
    d: np.ndarray
    #: ``diag(G_b)`` column-major and canonical: what HiGHS is handed.
    g_columns: sparse.csc_matrix
    u_lower: np.ndarray
    u_upper: np.ndarray
    #: The slave row of every stack row: increasing within each block.
    slave_rows: np.ndarray

    @cached_property
    def g_matrix(self) -> sparse.csr_matrix:
        """``g_columns`` row-major, for slicing single blocks out."""
        return self.g_columns.tocsr()


@dataclass(frozen=True)
class BlockSolveOutcome:
    """Result of pricing one :class:`SlaveBlock` at a fixed admission vector."""

    block_index: int
    objective: float
    duals: np.ndarray


#: Relative strong-duality residual above which block multipliers are refused.
DUALITY_TOLERANCE = 1e-6


def _check_strong_duality(
    block_index: int, objective: float, b: np.ndarray, duals: np.ndarray
) -> None:
    """Refuse block multipliers whose dual objective misses the primal one.

    At an LP optimum ``q_b = d_b' u_b = -(h0_b + H_b x)' mu_b`` (``u >= 0``
    carries no finite bound duals).  A residual means the multipliers do not
    belong to this block -- mis-sliced or numerically broken -- and a cut
    built from them would be wrong, so the safeguard chain degrades instead.
    """
    residual = abs(objective + float(np.dot(b, duals)))
    if not residual <= DUALITY_TOLERANCE * max(1.0, abs(objective)):
        raise SlaveNumericalError(
            f"block {block_index} violates strong duality: primal objective "
            f"{objective!r}, residual {residual!r}"
        )


def _slave_frame(problem: ACRRProblem) -> tuple:
    """``G``, ``h0`` and the implied bounds: the slave's half no forecast
    enters (the coupling block's y and z parts are forecast-free)."""
    capacity, coupling = problem.capacity_block(), problem.coupling_block()
    return (
        stack_columns([[capacity.y, coupling.y], [capacity.z, coupling.z]]),
        np.concatenate([capacity.upper, coupling.upper]),
        np.concatenate([problem.sla_mbps, problem.sla_mbps]),
    )


def _h_layout(capacity, coupling, floor: np.ndarray) -> tuple:
    """``H = -[A_x of the capacity rows; A_x of the coupling rows]`` as
    ``(H row-major, H' column-major, slots, floored)`` over one set of
    arrays: ``slots`` are the positions in their data of the row-(9)
    entries, one per column in ``floored`` (those with a non-zero
    ``floor``).  Every other entry is forecast-free, so the layout serves
    every forecast with the same zero floors once the slots of a copy of
    the data are rewritten (:func:`~repro.core.lpsolver.with_data`)."""
    indptr, indices, data, (num_rows, num_cols) = stacked_arrays([[capacity.x, coupling.x]])
    indptr, indices, order = transposed_layout(indptr, indices, num_rows)
    floored = np.flatnonzero(floor != 0)
    # Row (9) of column i is coupling row 5i + 1 (see
    # ACRRProblem.coupling_block) and holds x_i's entry alone.
    slots = indptr[capacity.num_rows + 5 * floored + 1]
    rows = sparse.csr_matrix((np.negative(data[order]), indices, indptr), shape=(num_rows, num_cols))
    return rows, rows.T, slots, floored


class SlaveProblem:
    """The parametric slave LP shared by the Benders and KAC solvers."""

    def __init__(self, problem: ACRRProblem):
        self.problem = problem
        n = problem.num_items
        self.num_items = n

        capacity = problem.capacity_block()

        # No forecast enters G, h0 or the implied bounds: built once per
        # structure and shared by the slaves of every with_forecasts clone.
        # G is over u = [y, z], column-major and canonical (HiGHS is handed
        # these arrays as they are); any feasible slave point satisfies
        # 0 <= (y, z) <= sla.
        self.g_columns, self.h0, self.u_bound = problem.per_structure(
            "slave", lambda: _slave_frame(problem)
        )
        # Right-hand side h(x) = h0 + H x.  Only row (9) of H, -floor x <=
        # -z, reads the forecast, and a floor of zero is no entry there, so
        # H's layout is built once per structure *and* zero-floor mask; a
        # bind writes the floors into their slots of a copy of the data.
        floor = problem.reservation_floor()
        rows, columns, slots, floored = problem.per_structure(
            ("slave H", np.packbits(floor == 0).tobytes()),
            lambda: _h_layout(capacity, problem.coupling_block(), floor),
        )
        data = rows.data.copy()
        data[slots] = np.negative(floor[floored])
        self.h_matrix: sparse.csr_matrix = with_data(rows, data)
        #: ``H'`` over the same arrays, for :meth:`cut_coefficients`.
        self.h_transposed: sparse.csc_matrix = with_data(columns, data)
        self.num_capacity_rows = capacity.num_rows

        # Slave objective: only the y-part of Psi is decided by the slave.
        self.d: np.ndarray = np.concatenate([problem.objective_y(), np.zeros(n)])
        self.u_lower = np.zeros(2 * n)
        self.u_upper = np.full(2 * n, np.inf)
        # Compiled on first use, re-solved per right-hand side afterwards:
        # the slave LP, its phase-1 certificate problem (first infeasible
        # evaluate) and the stacked block LP.  They hold the forecast's
        # objective, so they live and die with this object (one solve).
        self._lp: CompiledLP | None = None
        self._phase1: Phase1Problem | None = None
        self._stack_lp: CompiledLP | None = None
        # Per-tenant blocks for multi-cut disaggregation, stacked into one
        # block-diagonal system; built lazily.
        self._block_stack: BlockStack | None = None
        # The last candidate priced and its outcomes: a master that
        # re-proposes the previous round's admission vector would re-solve
        # byte-identical LPs.
        self._last_outcome: tuple[bytes, SlaveSolveOutcome] | None = None
        self._last_block_outcomes: tuple[bytes, list[BlockSolveOutcome]] | None = None

    @cached_property
    def g_matrix(self) -> sparse.csr_matrix:
        """``g_columns`` row-major."""
        return self.g_columns.tocsr()

    # ------------------------------------------------------------------ #
    def rhs(self, x: np.ndarray) -> np.ndarray:
        """h(x) = h0 + H x for a given admission vector."""
        x = np.asarray(x, dtype=float)
        return self.h0 + self.h_matrix.dot(x)

    def evaluate(self, x: np.ndarray, basis: Basis | None = None) -> SlaveSolveOutcome:
        """Solve the slave LP at ``x``; fall back to the phase-1 certificate.

        With a ``basis`` (an earlier slave LP's of this shape) the LP is
        hot-started from it.  That outcome is not remembered: the next cold
        call at ``x`` solves cold, so the cold loop never prices with a
        hot-started vertex."""
        if basis is not None:
            return self._evaluate(x, basis)
        key = np.asarray(x, dtype=float).tobytes()
        if self._last_outcome is None or self._last_outcome[0] != key:
            self._last_outcome = (key, self._evaluate(x))
        return self._last_outcome[1]

    def _evaluate(self, x: np.ndarray, basis: Basis | None = None) -> SlaveSolveOutcome:
        b = self.rhs(x)
        if self._lp is None:
            self._lp = CompiledLP(self.d, self.g_columns, self.u_lower, self.u_upper)
        solution: LPSolution = self._lp.solve(b, basis)
        n = self.num_items
        if solution.success:
            return SlaveSolveOutcome(
                feasible=True,
                objective=solution.objective,
                y=solution.primal[:n],
                z=solution.primal[n:],
                duals=solution.duals_upper,
                infeasibility=0.0,
                ray=np.zeros(len(b)),
                basis=solution.basis,
            )
        if self._phase1 is None:
            self._phase1 = Phase1Problem(self.g_columns, self.u_lower, self.u_upper)
        infeasibility, ray = self._phase1.certificate(b)
        if infeasibility <= FEASIBILITY_TOLERANCE:
            # The LP failed for numerical reasons but is essentially feasible,
            # so neither outcome would be honest: the phase-1 point carries no
            # dual prices for an optimality cut, and a feasibility cut would
            # wrongly exclude a feasible x.  Raise the typed numerical error
            # so the safeguard chain degrades to a conservative tier instead
            # of retrying a deterministic failure.
            raise SlaveNumericalError(
                "slave LP solver failure despite a feasible phase-1 problem: "
                f"{solution.status}"
            )
        return SlaveSolveOutcome(
            feasible=False,
            objective=float("inf"),
            y=np.zeros(n),
            z=np.zeros(n),
            duals=np.zeros(len(b)),
            infeasibility=infeasibility,
            ray=ray,
        )

    # ------------------------------------------------------------------ #
    # Multi-cut blocks
    # ------------------------------------------------------------------ #
    def blocks(self) -> list[SlaveBlock]:
        """Per-tenant blocks in deterministic (tenant) order, built lazily."""
        return self.block_stack().blocks

    def block_stack(self) -> BlockStack:
        """The block-diagonal system the :meth:`blocks` are ranges of."""
        if self._block_stack is None:
            self._block_stack = self._build_block_stack()
        return self._block_stack

    def _block_stack_frame(self) -> tuple:
        """The stacked block system's forecast-free half, straight from the
        slave arrays: per block its identity, its row / column range and
        the slave rows / columns those copy; the item ranges, the row and
        column maps and ``diag(G_b)``.

        Items are tenant-contiguous, so block ``b``'s columns are the
        tenant's ``y`` columns then its ``z`` columns, and ``diag(G_b)`` is
        ``G`` with its columns in that order and its rows renumbered: every
        entry of a slave column lies in a row of the column's own block.
        """
        n, num_capacity = self.num_items, self.num_capacity_rows
        resource_blocks = self.problem.resource_blocks()
        block_ids = np.arange(len(resource_blocks))
        sizes = np.array([len(block.item_indices) for block in resource_blocks])
        starts = np.concatenate([[0], np.cumsum(sizes)])
        block_of_item = np.repeat(block_ids, sizes)
        touched = np.zeros((len(resource_blocks), num_capacity), dtype=bool)
        for block in resource_blocks:
            touched[block.index, list(block.capacity_rows)] = True
        # Block rows: the capacity rows it touches, then 5 per item.
        position = np.cumsum(touched, axis=1)
        row_offsets = np.concatenate([[0], np.cumsum(position[:, -1] + 5 * sizes)])

        # Stacked row of a slave row: a capacity row by its position among
        # the rows its block touches; coupling row 5i + k of item i right
        # after its own block's capacity rows (no other block holds it).
        capacity_map = row_offsets[:-1, np.newaxis] + position - 1
        shift = (row_offsets[:-1] + position[:, -1] - 5 * starts[:-1])[block_of_item]
        coupling_map = np.repeat(shift, 5) + np.arange(5 * n)
        rows = np.empty(row_offsets[-1], dtype=np.intp)  # and back
        rows[coupling_map] = num_capacity + np.arange(5 * n)
        toucher, capacity_row = np.nonzero(touched)
        rows[capacity_map[toucher, capacity_row]] = capacity_row

        # Stacked column order: y_i sits at i + (first item of its block),
        # z_i one block size further.
        cols = np.empty(2 * n, dtype=np.intp)
        cols[np.arange(n) + starts[:-1][block_of_item]] = np.arange(n)
        cols[np.arange(n) + starts[1:][block_of_item]] = n + np.arange(n)
        g = self.g_columns
        indptr, entry = gather_slices(g.indptr, cols)
        block_of_entry = np.repeat(np.repeat(block_ids, 2 * sizes), indptr[1:] - indptr[:-1])
        row = g.indices[entry]
        in_capacity = row < num_capacity
        row = np.where(
            in_capacity,
            capacity_map[block_of_entry, np.where(in_capacity, row, 0)],
            coupling_map[np.maximum(row - num_capacity, 0)],
        )
        g_stack = canonical_csc(indptr, row, g.data[entry], (len(rows), 2 * n))
        blocks = []
        for b, block in enumerate(resource_blocks):
            row_range = slice(int(row_offsets[b]), int(row_offsets[b + 1]))
            col_range = slice(2 * int(starts[b]), 2 * int(starts[b + 1]))
            blocks.append((block.index, row_range, col_range, rows[row_range], cols[col_range]))
        return blocks, starts, rows, cols, g_stack

    def _build_block_stack(self) -> BlockStack:
        """Bind the forecast to the per-structure frame: ``d`` in stack
        order and the surrogate floors."""
        blocks, starts, rows, cols, g_stack = self.problem.per_structure(
            "block stack", self._block_stack_frame
        )
        theta_floor = np.minimum(self.problem.objective_y() * self.problem.sla_mbps, 0.0)
        return BlockStack(
            blocks=[
                # A sum over the block's own slice: pairwise, as ever.
                SlaveBlock(*block, float(theta_floor[starts[b] : starts[b + 1]].sum()))
                for b, block in enumerate(blocks)
            ],
            d=self.d[cols],
            g_columns=g_stack,
            u_lower=np.zeros(len(cols)),
            u_upper=np.full(len(cols), np.inf),
            slave_rows=rows,
        )

    def evaluate_block(self, block: SlaveBlock, x: np.ndarray) -> BlockSolveOutcome:
        """Price one block at ``x`` with its own LP: the reference
        :meth:`evaluate_blocks` is tested against."""
        stack = self.block_stack()
        b = self.h0[block.slave_rows] + self.h_matrix[block.slave_rows].dot(
            np.asarray(x, dtype=float)
        )
        solution: LPSolution = CompiledLP(
            stack.d[block.cols],
            stack.g_matrix[block.rows, block.cols],
            stack.u_lower[block.cols],
            stack.u_upper[block.cols],
        ).solve(b)
        if not solution.success:
            raise SlaveNumericalError(f"block {block.index} LP not solved: {solution.status}")
        _check_strong_duality(block.index, solution.objective, b, solution.duals_upper)
        return BlockSolveOutcome(block.index, solution.objective, solution.duals_upper)

    def evaluate_blocks(self, x: np.ndarray) -> list[BlockSolveOutcome]:
        """Price every block at ``x`` with one LP call on the stacked system.

        The stacked LP is block-diagonal, so its optimal primal and dual
        split by row/column range into the per-block optima (measured
        bit-identical to :meth:`evaluate_block`'s duals).  Each block
        relaxes the joint slave, which the Benders master's exact capacity
        surrogate keeps feasible at every candidate, so a stacked call that
        does not succeed is numerical: it raises :class:`SlaveNumericalError`.
        """
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        if self._last_block_outcomes is None or self._last_block_outcomes[0] != key:
            self._last_block_outcomes = (key, self._evaluate_blocks(x))
        return self._last_block_outcomes[1]

    def _evaluate_blocks(self, x: np.ndarray) -> list[BlockSolveOutcome]:
        stack = self.block_stack()
        b = self.rhs(x)[stack.slave_rows]
        if self._stack_lp is None:
            self._stack_lp = CompiledLP(
                stack.d, stack.g_columns, stack.u_lower, stack.u_upper
            )
        solution: LPSolution = self._stack_lp.solve(b)
        if not solution.success:
            raise SlaveNumericalError(f"stacked block LP not solved: {solution.status}")
        outcomes = []
        for block in stack.blocks:
            duals = solution.duals_upper[block.rows]
            objective = float(
                np.dot(stack.d[block.cols], solution.primal[block.cols])
            )
            _check_strong_duality(block.index, objective, b[block.rows], duals)
            outcomes.append(BlockSolveOutcome(block.index, objective, duals))
        return outcomes

    # ------------------------------------------------------------------ #
    # Cut generation
    # ------------------------------------------------------------------ #
    def cut_coefficients(
        self, multipliers: list[tuple[np.ndarray, slice | np.ndarray]]
    ) -> np.ndarray:
        """``H' mu`` of every ``(mu, rows)`` pair, one column each.

        ``mu >= 0`` multiplies the slave rows ``rows``: all of them
        (``slice(None)``) for a slave multiplier, a block's ``slave_rows``
        for a block multiplier.  Both cut families have the common linear
        form over x:

            (H' mu)' x >= -h0' mu          (feasibility cut)
            theta + (H' mu)' x >= -h0' mu  (optimality cut)

        and a block cut is the slave's cut of its multiplier, which spans the
        full admission vector (shared capacity rows carry other tenants'
        baseline terms) and bounds ``theta_b`` alone.  Each ``mu`` is
        zero-padded into its rows, so the other rows add exact zeros and one
        product serves every pair: the sparse product sums each column in
        the same order whatever else the batch holds.  The right-hand sides
        ``-h0' mu`` stay with the callers: a dense product's summation order
        can depend on its shape, so each keeps its own.
        """
        padded = np.zeros((len(self.h0), len(multipliers)))
        for column, (mu, rows) in enumerate(multipliers):
            padded[rows, column] = mu
        return self.h_transposed.dot(padded)

    def knapsack_weights(self, ray: np.ndarray) -> tuple[np.ndarray, float]:
        """KAC weights (27)-(28): per-item weights and the knapsack capacity.

        A feasibility cut ``(H' mu)' x >= -h0' mu`` is rewritten as
        ``sum_i w_i x_i <= W`` with ``w_i = -(H' mu)_i`` and ``W = h0' mu``,
        which is the multi-constrained knapsack form of Problem 6.
        """
        coeff = self.cut_coefficients([(ray, slice(None))])[:, 0]
        return -coeff, float(np.dot(self.h0, ray))
